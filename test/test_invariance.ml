(* The configuration-invariance oracle.

   A replica's epoch depends only on the initial state, the delivered
   inputs and where the boundaries fall, so a setting that claims to
   preserve semantics is correct exactly when it leaves every
   replica's per-epoch state-digest stream unchanged.  This harness
   runs each shipped workload under three fault settings, once in a
   baseline configuration and once per knob (plus all knobs at once),
   and demands the identical (epoch, hash) stream per replica and the
   identical run outcome.  At every boundary it also checks that the
   incremental state hash equals a from-scratch re-hash.

   Built only from public functions: the digest stream is captured by
   chaining onto [Hypervisor.set_on_epoch_boundary]. *)

open Hft_core
module Cpu = Hft_machine.Cpu
module Memory = Hft_machine.Memory
module Workload = Hft_guest.Workload
module Time = Hft_sim.Time

(* ---------- configurations ---------- *)

type config = {
  c_name : string;
  threaded : bool;
  validate : bool;
  profile : bool;
  record : bool;  (* Recorder with a Metrics tap and dispatch events *)
}

let baseline =
  {
    c_name = "baseline";
    threaded = false;
    validate = true;
    profile = false;
    record = false;
  }

let configs =
  [
    baseline;
    { baseline with c_name = "threaded"; threaded = true };
    { baseline with c_name = "no-validator"; validate = false };
    { baseline with c_name = "profiler"; profile = true };
    { baseline with c_name = "recorder"; record = true };
    {
      c_name = "all";
      threaded = true;
      validate = false;
      profile = true;
      record = true;
    };
  ]

let config name = List.find (fun c -> c.c_name = name) configs

(* A test-size disk: fewer, smaller blocks (cheap to initialise on
   every run) and short latencies (few idle epochs per operation). *)
let test_disk =
  {
    Hft_devices.Disk.default_params with
    Hft_devices.Disk.blocks = 64;
    block_words = 256;
    read_latency = Time.of_us 500;
    write_latency = Time.of_us 500;
  }

let params_of ~epoch_length c =
  let p = { Params.default with Params.disk = test_disk } in
  let p = Params.with_epoch_length p epoch_length in
  let p =
    Params.with_exec_backend p
      (if c.threaded then Params.Threaded else Params.Interp)
  in
  Params.with_profile_guest (Params.with_validate_manifest p c.validate)
    c.profile

(* ---------- fault settings ---------- *)

(* Fault points are placed halfway through the fault-free baseline run
   of the same workload, so every workload fails mid-flight. *)
type fault = Fault_free | Crash of Time.t | Hv_crash of int

let fault_name = function
  | Fault_free -> "fault-free"
  | Crash _ -> "crash"
  | Hv_crash _ -> "hv-crash"

(* ---------- one run ---------- *)

type run = {
  streams : (string * (int * int) list) list;
      (* per replica, its (epoch, hash) boundaries in order *)
  outcome : (string * string) list;  (* named outcome fields *)
  scheme_breaks : string list;  (* incremental <> full re-hash *)
  sys : System.t;
  recorded : int;  (* events the recorder saw *)
}

(* Chain a digest recorder (and the hash-scheme check) onto one
   replica's boundary hook. *)
let record_stream hv breaks =
  let stream = ref [] in
  let previous = Hypervisor.get_on_epoch_boundary hv in
  Hypervisor.set_on_epoch_boundary hv (fun ~epoch ~hash ->
      let cpu = Hypervisor.cpu hv in
      let inc = Cpu.state_hash ~include_tlb:false cpu in
      let full = Cpu.state_hash ~include_tlb:false ~full:true cpu in
      if inc <> full then
        breaks :=
          Printf.sprintf "%s epoch %d: incremental 0x%x, full re-hash 0x%x"
            (Hypervisor.name hv) epoch inc full
          :: !breaks;
      stream := (epoch, hash) :: !stream;
      previous ~epoch ~hash);
  (Hypervisor.name hv, stream)

let outcome_fields sys (o : System.outcome) =
  let per_replica (name, (st : Stats.t)) =
    [
      (name ^ " epochs", string_of_int st.Stats.epochs);
      (name ^ " instructions", string_of_int st.Stats.instructions);
    ]
  in
  [
    ( "completed by",
      match o.System.completed_by with
      | `Primary -> "primary"
      | `Promoted_backup -> "promoted backup" );
    ("virtual time", Format.asprintf "%a" Time.pp o.System.time);
    ("results", Format.asprintf "%a" Guest_results.pp o.System.results);
    ("console", String.escaped o.System.console);
    ( "disk storage hash",
      Printf.sprintf "0x%x" (Hft_devices.Disk.storage_hash (System.disk sys)) );
    ("messages", string_of_int o.System.messages_sent);
    ("bytes", string_of_int o.System.bytes_sent);
  ]
  @ List.concat_map per_replica
      [ ("primary", o.System.primary_stats); ("backup", o.System.backup_stats) ]

(* [perturb] runs against the freshly built system before it starts;
   the non-vacuity test uses it to corrupt guest memory mid-run. *)
let run_one ?(epoch_length = 1024) ?(perturb = fun _ -> ()) ~workload ~fault c =
  let params = params_of ~epoch_length c in
  let obs =
    if c.record then
      Hft_obs.Recorder.create ~capacity:4096 ~dispatch:true
        ~tap:(Hft_obs.Metrics.tap (Hft_obs.Metrics.create ()))
        ()
    else Hft_obs.Recorder.null
  in
  let sys = System.create ~params ~obs ~workload () in
  let breaks = ref [] in
  let streams =
    List.map
      (fun hv -> record_stream hv breaks)
      [ System.primary sys; System.backup sys ]
  in
  (match fault with
  | Fault_free -> ()
  | Crash at -> System.crash_primary_at sys at
  | Hv_crash epoch ->
    System.hv_fault_on_epoch sys ~target:`Primary ~kind:Hypervisor.Hv_crash
      epoch);
  perturb sys;
  let o = System.run sys in
  {
    streams = List.map (fun (name, s) -> (name, List.rev !s)) streams;
    outcome = outcome_fields sys o;
    scheme_breaks = List.rev !breaks;
    sys;
    recorded = Hft_obs.Recorder.total_recorded obs;
  }

(* ---------- comparison ---------- *)

(* The first difference between [run] and [base], as one report line
   naming the cell, the replica, the first differing epoch and both
   hashes (or the outcome field and both values). *)
let first_difference ~cell ~base run =
  let stream_diff (name, s) =
    let rec go b r =
      match (b, r) with
      | [], [] -> None
      | (e, h) :: b', (e', h') :: r' when e = e' && h = h' -> go b' r'
      | (e, h) :: _, (e', h') :: _ ->
        Some
          (Printf.sprintf
             "%s: %s epoch %d: baseline 0x%x, this configuration 0x%x%s" cell
             name e h h'
             (if e = e' then "" else Printf.sprintf " (at epoch %d)" e'))
      | (e, h) :: _, [] ->
        Some
          (Printf.sprintf
             "%s: %s epoch %d: baseline 0x%x, this configuration none" cell
             name e h)
      | [], (e, h) :: _ ->
        Some
          (Printf.sprintf
             "%s: %s epoch %d: baseline none, this configuration 0x%x" cell
             name e h)
    in
    go (List.assoc name base.streams) s
  in
  let field_diff (k, v) =
    let bv = List.assoc k base.outcome in
    if bv = v then None
    else
      Some
        (Printf.sprintf "%s: %s: baseline %s, this configuration %s" cell k
           bv v)
  in
  match List.find_map stream_diff run.streams with
  | Some _ as d -> d
  | None -> (
    match List.find_map field_diff run.outcome with
    | Some _ as d -> d
    | None -> (
      match run.scheme_breaks with
      | b :: _ -> Some (Printf.sprintf "%s: hash scheme: %s" cell b)
      | [] -> None))

(* A fault setting whose fault never struck would silently repeat the
   fault-free cell. *)
let fault_struck fault run =
  let primary = System.primary run.sys in
  match fault with
  | Fault_free -> true
  | Crash _ -> List.assoc "completed by" run.outcome = "promoted backup"
  | Hv_crash _ -> (Hypervisor.stats primary).Stats.microreboots > 0

(* Every fault setting x every configuration of one workload; returns
   the report lines (empty when invariant). *)
let check_workload ?epoch_length workload =
  let name = workload.Workload.name in
  let free = run_one ?epoch_length ~workload ~fault:Fault_free baseline in
  let half_time =
    Time.of_ns
      (Time.to_ns (Hypervisor.halt_time (System.primary free.sys)) / 2)
  in
  let half_epochs =
    (Hypervisor.stats (System.primary free.sys)).Stats.epochs / 2
  in
  List.concat_map
    (fun fault ->
      let base =
        if fault = Fault_free then free
        else run_one ?epoch_length ~workload ~fault baseline
      in
      (if fault_struck fault base then []
       else
         [
           Printf.sprintf "%s/%s: the fault never struck" name
             (fault_name fault);
         ])
      @ List.filter_map
        (fun c ->
          let cell =
            Printf.sprintf "%s/%s/%s" name (fault_name fault) c.c_name
          in
          let run =
            if c == baseline then base
            else run_one ?epoch_length ~workload ~fault c
          in
          first_difference ~cell ~base run)
        configs)
    [ Fault_free; Crash half_time; Hv_crash half_epochs ]

let expect_invariant (workload, epoch_length) () =
  match check_workload ~epoch_length workload with
  | [] -> ()
  | lines -> Alcotest.fail (String.concat "\n" lines)

(* ---------- the matrix: every `hftsim run -w` workload ---------- *)

(* [masked_io]'s critical section spins long enough to outlast the
   shipped disk's latency; the test disk needs far less. *)
let masked_io =
  let w = Workload.masked_io ~ops:2 in
  let spin (k, v) =
    if k = Hft_guest.Layout.cfg_spin then (k, 10_000) else (k, v)
  in
  { w with Workload.config = List.map spin w.Workload.config }

(* Sizes and epoch lengths give each run a few dozen boundaries at
   most: every boundary pays a from-scratch re-hash of guest memory. *)
let workloads =
  [
    (Workload.dhrystone ~iterations:400, 1024);
    (Workload.disk_write ~pad:20 ~spin:200 ~ops:3 (), 1024);
    (Workload.disk_read ~pad:20 ~spin:200 ~ops:3 (), 1024);
    (Workload.mixed ~pad:20 ~compute:40 ~ops:3 (), 1024);
    (Workload.clock_sampler ~samples:200, 1024);
    (Workload.timer_tick ~period_us:500 ~ticks:6, 1024);
    (Workload.console_hello ~text:"invariant under every knob\n", 128);
    (Workload.probe_priv, 128);
    (masked_io, 4096);
    (Workload.queued_io ~pairs:2, 1024);
    (Workload.server ~requests:3 ~period_us:1000, 1024);
  ]

(* ---------- the oracle is not vacuous ---------- *)

(* Flip one guest memory word of the primary mid-run, in an area the
   guest never touches, in exactly one configuration: the oracle must
   fail there and name the first boundary after the flip. *)
let corrupted_word_is_caught () =
  let workload = Workload.dhrystone ~iterations:1500 in
  let free = run_one ~workload ~fault:Fault_free baseline in
  let flipped = ref false and first_after = ref (-1) in
  let perturb sys =
    let hv = System.primary sys in
    ignore
      (Hft_sim.Engine.at (System.engine sys) (Time.of_ms 2) (fun () ->
           flipped := true;
           let mem = Cpu.mem (Hypervisor.cpu hv) in
           Memory.write mem 0xE000 (Memory.read mem 0xE000 + 1)));
    let previous = Hypervisor.get_on_epoch_boundary hv in
    Hypervisor.set_on_epoch_boundary hv (fun ~epoch ~hash ->
        if !flipped && !first_after < 0 then first_after := epoch;
        previous ~epoch ~hash)
  in
  let run = run_one ~perturb ~workload ~fault:Fault_free (config "threaded") in
  Alcotest.(check bool) "flip happened mid-run" true (!first_after > 0);
  let cell = "dhrystone/fault-free/threaded" in
  match first_difference ~cell ~base:free run with
  | None -> Alcotest.fail "a corrupted word went unnoticed"
  | Some line ->
    let contains sub =
      let n = String.length line and m = String.length sub in
      let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("names the configuration: " ^ line) true
      (contains "/threaded:");
    Alcotest.(check bool) ("names the primary: " ^ line) true
      (contains "primary epoch");
    Alcotest.(check bool)
      (Printf.sprintf "names epoch %d: %s" !first_after line)
      true
      (contains (Printf.sprintf "epoch %d:" !first_after))

(* Each knob must actually take effect, or the matrix would compare a
   configuration with itself. *)
let knobs_take_effect () =
  let workload = Workload.dhrystone ~iterations:400 in
  let stats c =
    let r = run_one ~workload ~fault:Fault_free c in
    (r, Hypervisor.stats (System.primary r.sys))
  in
  let _, base = stats baseline in
  let _, thr = stats (config "threaded") in
  let _, nov = stats (config "no-validator") in
  let prof, _ = stats (config "profiler") in
  let recorder, _ = stats (config "recorder") in
  Alcotest.(check int) "baseline runs no translated code" 0
    base.Stats.threaded_instrs;
  Alcotest.(check bool) "threaded runs translated code" true
    (thr.Stats.threaded_instrs > 0);
  Alcotest.(check bool) "baseline validates" true
    (base.Stats.validated_instructions > 0);
  Alcotest.(check int) "validator off validates nothing" 0
    nov.Stats.validated_instructions;
  Alcotest.(check bool) "profiler counts retirements" true
    (Cpu.profile_total (Hypervisor.cpu (System.primary prof.sys)) > 0);
  Alcotest.(check bool) "recorder records events" true (recorder.recorded > 0)

(* ---------- random programs ---------- *)

let prop_random_programs_invariant =
  QCheck.Test.make
    ~name:"random programs: every configuration gives the baseline's digests"
    ~count:8 (QCheck.make Random_programs.structured_main_gen) (fun main ->
      let workload = Random_programs.workload_of_main main in
      match check_workload ~epoch_length:64 workload with
      | [] -> true
      | lines -> QCheck.Test.fail_report (String.concat "\n" lines))

let () =
  Alcotest.run "hft_invariance"
    [
      ( "matrix",
        List.map
          (fun ((w, _) as cell) ->
            Alcotest.test_case
              (w.Workload.name ^ ": 3 fault settings x 6 configurations")
              `Quick (expect_invariant cell))
          workloads );
      ( "oracle",
        [
          Alcotest.test_case "a corrupted word fails the oracle at its epoch"
            `Quick corrupted_word_is_caught;
          Alcotest.test_case "every knob takes effect" `Quick knobs_take_effect;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_programs_invariant ] );
    ]
