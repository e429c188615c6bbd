(* Malformed-input robustness for every artifact loader: seeded
   truncations and bit flips of a well-formed document must produce
   either a parse or the loader's documented error — never another
   exception.

   - images ([Image.of_string]): only [Image.Format_error];
   - manifest sets ([Manifest.set_of_string]), counterexample replays
     ([Schedule.of_string]) and trace / metrics JSON
     ([Export.validate]): an [Error] result, never an exception. *)

open Hft_machine
open Hft_core
module Manifest = Hft_analysis.Manifest
module Schedule = Hft_check.Schedule
module Export = Hft_obs.Export
module Workload = Hft_guest.Workload

let mutations = 300

(* Truncate at a random offset, or flip one random bit of one byte. *)
let mutate rng s =
  let n = String.length s in
  if Random.State.bool rng then String.sub s 0 (Random.State.int rng n)
  else begin
    let b = Bytes.of_string s in
    let i = Random.State.int rng n in
    let bit = 1 lsl Random.State.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
    Bytes.to_string b
  end

(* Run [load] over seeded mutations of [doc]; [documented] recognises
   the errors the loader promises.  Reports every escape. *)
let fuzz ~seed ~documented load doc () =
  let rng = Random.State.make [| seed |] in
  let escapes = ref [] in
  for i = 1 to mutations do
    let m = mutate rng doc in
    match load m with
    | () -> ()
    | exception e when documented e -> ()
    | exception e ->
      escapes :=
        Printf.sprintf "mutation %d: %s" i (Printexc.to_string e) :: !escapes
  done;
  match !escapes with
  | [] -> ()
  | l ->
    Alcotest.failf "%d escape(s):\n%s" (List.length l)
      (String.concat "\n" (List.rev l))

(* A [result]-returning loader documents [Error], never an exception. *)
let of_result load s = ignore (load s : (_, string) result)
let no_exception _ = false

(* ---------- seed documents ---------- *)

let image_doc (w : Workload.t) =
  let program = w.Workload.program in
  Image.to_string
    ~manifest:(Manifest.to_json (Manifest.of_program program))
    program

let manifest_set_doc =
  let entry (w : Workload.t) =
    Printf.sprintf "{\"title\": %S, \"manifest\": %s}" w.Workload.name
      (Manifest.to_json (Manifest.of_program w.Workload.program))
  in
  Printf.sprintf "{\"schema\": \"hftsim-manifest-set/1\", \"images\": [%s]}"
    (String.concat ", "
       (List.map entry [ Workload.probe_priv; Workload.queued_io ~pairs:2 ]))

let replay_doc =
  Schedule.to_string
    {
      Schedule.scenario = "handoff";
      retransmit = true;
      ack_wait = false;
      roots = [ 0; 2 ];
      choices = [ 1; 0; 3; 0; 1 ];
      violation = Some "a lost acknowledgement";
    }

(* One small crash run, recorded and aggregated. *)
let trace_docs =
  lazy
    (let registry = Hft_obs.Metrics.create () in
     let obs = Hft_obs.Recorder.create ~tap:(Hft_obs.Metrics.tap registry) () in
     let params = Params.with_epoch_length Params.default 1024 in
     let workload = Workload.mixed ~compute:20 ~ops:2 () in
     let sys = System.create ~params ~obs ~workload () in
     System.crash_primary_at sys (Hft_sim.Time.of_ms 20);
     ignore (System.run sys : System.outcome);
     let entries = Hft_obs.Recorder.entries obs in
     ( Export.jsonl entries,
       Export.chrome entries,
       Export.metrics_json registry ))

let trace_case pick () =
  let jsonl, chrome, metrics = Lazy.force trace_docs in
  let doc = pick (jsonl, chrome, metrics) in
  (match Export.validate doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the unmutated document is rejected: %s" e);
  fuzz ~seed:5 ~documented:no_exception (of_result Export.validate) doc ()

(* ---------- images ---------- *)

let image_format_error = function Image.Format_error _ -> true | _ -> false
let load_image s = ignore (Image.of_string s : Asm.program)

(* One instruction word decoding to an out-of-range offset (a single
   hex digit changed in a shipped image) once escaped the loader as
   [Encode.Decode_error]. *)
let corrupt_word_is_a_format_error () =
  let doc = image_doc Workload.probe_priv in
  let lines = String.split_on_char '\n' doc in
  let is_word l = String.length l = 16 && l.[1] <> ' ' in
  let seen = ref false in
  let corrupted =
    List.map
      (fun l ->
        if is_word l && not !seen then begin
          seen := true;
          "ffffffffffffffff"
        end
        else l)
      lines
    |> String.concat "\n"
  in
  Alcotest.(check bool) "found a word to corrupt" true !seen;
  match Image.of_string corrupted with
  | _ -> Alcotest.fail "a corrupt instruction word was accepted"
  | exception Image.Format_error m ->
    Alcotest.(check bool) ("error names the word: " ^ m) true
      (String.length m > 0)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "hft_fuzz"
    [
      ( "image",
        [
          case "a corrupt instruction word is a format error"
            corrupt_word_is_a_format_error;
          case "mutated probe image: only Format_error"
            (fuzz ~seed:1 ~documented:image_format_error load_image
               (image_doc Workload.probe_priv));
          case "mutated dhrystone image: only Format_error"
            (fuzz ~seed:2 ~documented:image_format_error load_image
               (image_doc (Workload.dhrystone ~iterations:10)));
        ] );
      ( "manifest-set",
        [
          case "mutated manifest set: Error, never an exception"
            (fuzz ~seed:3 ~documented:no_exception
               (of_result Manifest.set_of_string) manifest_set_doc);
        ] );
      ( "replay",
        [
          case "mutated replay schedule: Error, never an exception"
            (fuzz ~seed:4 ~documented:no_exception
               (of_result Schedule.of_string) replay_doc);
        ] );
      ( "trace",
        [
          case "mutated trace JSONL: Error, never an exception"
            (trace_case (fun (j, _, _) -> j));
          case "mutated Chrome trace: Error, never an exception"
            (trace_case (fun (_, c, _) -> c));
          case "mutated metrics JSON: Error, never an exception"
            (trace_case (fun (_, _, m) -> m));
        ] );
    ]
