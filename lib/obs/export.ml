open Hft_sim

(* ---------- shared emission helpers ---------- *)

let ts_us ns = float ns /. 1_000.0

let field_value = function
  | Event.Int i -> string_of_int i
  | Event.Bool b -> if b then "true" else "false"
  | Event.Str s -> Printf.sprintf "\"%s\"" (Json.escape s)

let args_json ev =
  let b = Buffer.create 64 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":%s" (Json.escape k) (field_value v))
    (Event.fields ev);
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------- Chrome trace-event JSON (Perfetto) ---------- *)

(* Track layout: pid 1 = the replicas (one group of tracks per
   hypervisor), pid 2 = the channels, pid 3 = devices and everything
   else.  Within a source, instant events live on the base tid and
   each synchronous span category gets its own lane so slices never
   overlap on a track; intr-delay and msg-rtt spans (which genuinely
   overlap) are emitted as async begin/end pairs instead. *)

let lane_of_cat = function
  | "epoch" -> Some 1
  | "ack-wait" -> Some 2
  | "rtx-chain" -> Some 3
  | "failover" -> Some 4
  | "recovery" -> Some 5
  | _ -> None (* async: intr-delay, msg-rtt *)

let build_tracks entries =
  let tbl = Hashtbl.create 16 in
  let next = Hashtbl.create 4 in
  Hashtbl.replace next 1 3;
  Hashtbl.replace next 2 0;
  Hashtbl.replace next 3 0;
  let assign s =
    if not (Hashtbl.mem tbl s) then begin
      let pid, rank =
        match s with
        | "primary" -> (1, 0)
        | "backup" -> (1, 1)
        | "backup2" -> (1, 2)
        | _ when String.contains s '>' -> (2, -1)
        | _ -> (3, -1)
      in
      let rank =
        if rank >= 0 then rank
        else begin
          let r = Hashtbl.find next pid in
          Hashtbl.replace next pid (r + 1);
          r
        end
      in
      Hashtbl.replace tbl s (pid, rank * 8)
    end
  in
  List.iter (fun e -> assign e.Recorder.source) entries;
  tbl

let chrome entries =
  let spans = Span.of_entries entries in
  let tracks = build_tracks entries in
  let track s =
    match Hashtbl.find_opt tracks s with
    | Some pt -> pt
    | None -> (3, 99 * 8) (* a span source with no instant events *)
  in
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  let meta ~pid ?tid name value =
    sep ();
    (match tid with
    | None ->
      Printf.bprintf b
        "{\"ph\":\"M\",\"pid\":%d,\"name\":\"%s\",\"args\":{\"name\":\"%s\"}}"
        pid name (Json.escape value)
    | Some tid ->
      Printf.bprintf b
        "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"%s\",\"args\":{\"name\":\"%s\"}}"
        pid tid name (Json.escape value))
  in
  (* process names *)
  let pids = Hashtbl.create 4 in
  Hashtbl.iter (fun _ (pid, _) -> Hashtbl.replace pids pid ()) tracks;
  List.iter
    (fun (pid, name) ->
      if Hashtbl.mem pids pid then meta ~pid "process_name" name)
    [ (1, "hftsim replicas"); (2, "hftsim channels"); (3, "hftsim devices") ];
  (* base thread names *)
  Hashtbl.iter
    (fun src (pid, tid) -> meta ~pid ~tid "thread_name" src)
    tracks;
  (* lane thread names, for the lanes actually used *)
  let lanes_named = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.t) ->
      match lane_of_cat s.cat with
      | Some lane ->
        let pid, base = track s.source in
        let tid = base + lane in
        if not (Hashtbl.mem lanes_named (pid, tid)) then begin
          Hashtbl.replace lanes_named (pid, tid) ();
          meta ~pid ~tid "thread_name" (s.source ^ "/" ^ s.cat)
        end
      | None -> ())
    spans;
  (* instant events: one per recorded entry *)
  List.iter
    (fun { Recorder.time; source; ev } ->
      let pid, tid = track source in
      sep ();
      Printf.bprintf b
        "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\",\"name\":\"%s\",\"cat\":\"event\",\"args\":%s}"
        pid tid
        (ts_us (Time.to_ns time))
        (Json.escape (Event.tag ev))
        (args_json ev))
    entries;
  (* spans *)
  let async_id = ref 0 in
  List.iter
    (fun (s : Span.t) ->
      let pid, base = track s.source in
      match (s.t1, lane_of_cat s.cat) with
      | Some t1, Some lane ->
        sep ();
        Printf.bprintf b
          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"%s\"}"
          pid (base + lane)
          (ts_us (Time.to_ns s.t0))
          (ts_us (Time.to_ns (Time.diff t1 s.t0)))
          (Json.escape s.label) s.cat
      | Some t1, None ->
        incr async_id;
        let id = !async_id in
        sep ();
        Printf.bprintf b
          "{\"ph\":\"b\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"id\":\"0x%x\",\"name\":\"%s\",\"cat\":\"%s\"}"
          pid base
          (ts_us (Time.to_ns s.t0))
          id (Json.escape s.label) s.cat;
        sep ();
        Printf.bprintf b
          "{\"ph\":\"e\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"id\":\"0x%x\",\"name\":\"%s\",\"cat\":\"%s\"}"
          pid base
          (ts_us (Time.to_ns t1))
          id (Json.escape s.label) s.cat
      | None, lane ->
        (* unclosed: a marker, not a slice *)
        let tid = match lane with Some l -> base + l | None -> base in
        sep ();
        Printf.bprintf b
          "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"s\":\"t\",\"name\":\"%s\",\"cat\":\"%s\"}"
          pid tid
          (ts_us (Time.to_ns s.t0))
          (Json.escape ("open: " ^ s.label))
          s.cat)
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ---------- hftsim-trace/1 JSONL ---------- *)

let schema = "hftsim-trace/1"
let metrics_schema = "hftsim-metrics/2"

let jsonl ?(dropped = 0) entries =
  let spans = Span.of_entries entries in
  let hists =
    let m = Metrics.create () in
    List.iter (Metrics.observe m) entries;
    Metrics.span_hists m
  in
  let b = Buffer.create (1 lsl 16) in
  Printf.bprintf b
    "{\"schema\":\"%s\",\"kind\":\"header\",\"events\":%d,\"spans\":%d,\"hists\":%d,\"dropped\":%d}\n"
    schema (List.length entries) (List.length spans) (List.length hists)
    dropped;
  List.iter
    (fun { Recorder.time; source; ev } ->
      Printf.bprintf b
        "{\"kind\":\"event\",\"t_ns\":%d,\"src\":\"%s\",\"ev\":\"%s\",\"args\":%s}\n"
        (Time.to_ns time) (Json.escape source)
        (Json.escape (Event.tag ev))
        (args_json ev))
    entries;
  List.iter
    (fun (s : Span.t) ->
      match s.t1 with
      | Some t1 ->
        Printf.bprintf b
          "{\"kind\":\"span\",\"cat\":\"%s\",\"src\":\"%s\",\"label\":\"%s\",\"t0_ns\":%d,\"t1_ns\":%d,\"dur_ns\":%d}\n"
          s.cat (Json.escape s.source) (Json.escape s.label)
          (Time.to_ns s.t0) (Time.to_ns t1)
          (Time.to_ns (Time.diff t1 s.t0))
      | None ->
        Printf.bprintf b
          "{\"kind\":\"span\",\"cat\":\"%s\",\"src\":\"%s\",\"label\":\"%s\",\"t0_ns\":%d,\"t1_ns\":null,\"dur_ns\":null}\n"
          s.cat (Json.escape s.source) (Json.escape s.label)
          (Time.to_ns s.t0))
    spans;
  List.iter
    (fun (cat, h) ->
      Printf.bprintf b
        "{\"kind\":\"hist\",\"cat\":\"%s\",\"count\":%d,\"p50_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f,\"max_us\":%.3f}\n"
        cat (Hist.count h) (Hist.p50_us h) (Hist.p95_us h) (Hist.p99_us h)
        (Hist.max_us h))
    hists;
  Buffer.contents b

(* ---------- hftsim-metrics/2 JSON ---------- *)

(* Schema note: /2 is a superset of /1.  The "histograms" array keeps
   the exact /1 element shape, so /1 readers that ignore unknown
   top-level members keep working; /2 adds "counters", "gauges",
   "windows" (the rolling aggregation) and "dropped_events". *)

let metrics_json ?(dropped = 0) m =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"schema\":\"%s\",\n\
     \"compat\":\"histograms is unchanged from hftsim-metrics/1; /2 adds \
     counters, gauges, windows, dropped_events\",\n\
     \"dropped_events\":%d,\n\
     \"histograms\":["
    metrics_schema dropped;
  List.iteri
    (fun i (cat, h) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n{\"cat\":\"%s\",\"count\":%d,\"p50_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f,\"max_us\":%.3f,\"mean_us\":%.3f,\"buckets\":["
        cat (Hist.count h) (Hist.p50_us h) (Hist.p95_us h) (Hist.p99_us h)
        (Hist.max_us h)
        (Hist.mean_ns h /. 1_000.0);
      List.iteri
        (fun j (lo, n) ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b "[%d,%d]" lo n)
        (Hist.nonzero_buckets h);
      Buffer.add_string b "]}")
    (Metrics.span_hists m);
  Buffer.add_string b "\n],\n\"counters\":[";
  List.iteri
    (fun i (c : Metrics.counter) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n{\"actor\":\"%s\",\"name\":\"%s\",\"value\":%d}"
        (Json.escape c.Metrics.c_actor)
        (Json.escape c.Metrics.c_name)
        c.Metrics.c_val)
    (Metrics.counters m);
  Buffer.add_string b "\n],\n\"gauges\":[";
  List.iteri
    (fun i (g : Metrics.gauge) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n{\"actor\":\"%s\",\"name\":\"%s\",\"value\":%d}"
        (Json.escape g.Metrics.g_actor)
        (Json.escape g.Metrics.g_name)
        g.Metrics.g_val)
    (Metrics.gauges m);
  Buffer.add_string b "\n],\n\"windows\":[";
  List.iteri
    (fun i (w : Metrics.window) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n{\"t0_ns\":%d,\"len_ns\":%d,\"epochs\":%d,\"epoch_p50_us\":%.3f,\"epoch_p99_us\":%.3f,\"ack_count\":%d,\"ack_p99_us\":%.3f,\"availability\":%.4f}"
        w.Metrics.w_t0_ns w.Metrics.w_len_ns w.Metrics.w_epochs
        (Hist.p50_us w.Metrics.w_epoch)
        (Hist.p99_us w.Metrics.w_epoch)
        (Hist.count w.Metrics.w_ack)
        (Hist.p99_us w.Metrics.w_ack)
        (Metrics.availability w))
    (Metrics.windows m);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ---------- validation ---------- *)

type summary = {
  format : [ `Chrome | `Jsonl | `Metrics ];
  events : int;
  spans : int;
  span_cats : string list;
  hists : int;
  drops : int;
      (** events the recorder ring discarded before export (jsonl
          header [dropped], metrics [dropped_events]); 0 for formats
          that do not carry the count *)
  counters : int;  (** metrics documents only *)
  windows : int;  (** metrics documents only *)
}

let sorted_cats tbl =
  Hashtbl.fold (fun c () acc -> c :: acc) tbl [] |> List.sort String.compare

let require what = function
  | Some v -> Ok v
  | None -> Error (what ^ " missing")

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let validate_chrome_events evs =
  let events = ref 0 and spans = ref 0 in
  let cats = Hashtbl.create 8 in
  let check_one i ev =
    let mem k = Json.member k ev in
    let str k = Option.bind (mem k) Json.to_string_opt in
    let num k = Option.bind (mem k) Json.to_float_opt in
    let ctx what = Printf.sprintf "traceEvents[%d]: %s" i what in
    let* ph = require (ctx "\"ph\"") (str "ph") in
    match ph with
    | "M" ->
      let* _ = require (ctx "\"name\"") (str "name") in
      let* _ = require (ctx "\"pid\"") (num "pid") in
      Ok ()
    | "i" ->
      let* _ = require (ctx "\"name\"") (str "name") in
      let* _ = require (ctx "\"ts\"") (num "ts") in
      incr events;
      Ok ()
    | "X" ->
      let* _ = require (ctx "\"name\"") (str "name") in
      let* cat = require (ctx "\"cat\"") (str "cat") in
      let* _ = require (ctx "\"ts\"") (num "ts") in
      let* dur = require (ctx "\"dur\"") (num "dur") in
      if dur < 0.0 then Error (ctx "negative \"dur\"")
      else begin
        incr spans;
        Hashtbl.replace cats cat ();
        Ok ()
      end
    | "b" | "e" ->
      let* cat = require (ctx "\"cat\"") (str "cat") in
      let* _ = require (ctx "\"id\"") (str "id") in
      let* _ = require (ctx "\"ts\"") (num "ts") in
      if ph = "b" then begin
        incr spans;
        Hashtbl.replace cats cat ()
      end;
      Ok ()
    | other -> Error (ctx (Printf.sprintf "unknown \"ph\":%S" other))
  in
  let rec go i = function
    | [] -> Ok ()
    | ev :: rest ->
      let* () = check_one i ev in
      go (i + 1) rest
  in
  let* () = go 0 evs in
  Ok
    {
      format = `Chrome;
      events = !events;
      spans = !spans;
      span_cats = sorted_cats cats;
      hists = 0;
      drops = 0;
      counters = 0;
      windows = 0;
    }

let validate_jsonl content =
  let lines =
    String.split_on_char '\n' content
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty file"
  | header :: rest ->
    let* h =
      match Json.parse header with
      | Ok h -> Ok h
      | Error e -> Error ("header: " ^ e)
    in
    let* s =
      require "header \"schema\""
        (Option.bind (Json.member "schema" h) Json.to_string_opt)
    in
    if s <> schema then
      Error (Printf.sprintf "schema %S, expected %S" s schema)
    else begin
      let events = ref 0 and spans = ref 0 and hists = ref 0 in
      let drops =
        match
          Option.bind (Json.member "dropped" h) Json.to_float_opt
        with
        | Some d -> int_of_float d
        | None -> 0 (* pre-drop-counter captures *)
      in
      let cats = Hashtbl.create 8 in
      let check_line i line =
        let ctx what = Printf.sprintf "line %d: %s" (i + 2) what in
        let* v =
          match Json.parse line with
          | Ok v -> Ok v
          | Error e -> Error (ctx e)
        in
        let str k = Option.bind (Json.member k v) Json.to_string_opt in
        let num k = Option.bind (Json.member k v) Json.to_float_opt in
        (* a second schema declaration mid-stream means two artifacts
           were concatenated — reject with the schemas named rather
           than failing on whatever field differs first *)
        let* () =
          match str "schema" with
          | Some s2 when s2 <> s ->
            Error
              (ctx
                 (Printf.sprintf
                    "mixed schemas: this line declares %S but the header \
                     declared %S — artifacts of different schemas must not \
                     be concatenated"
                    s2 s))
          | _ -> Ok ()
        in
        let* kind = require (ctx "\"kind\"") (str "kind") in
        match kind with
        | "event" ->
          let* _ = require (ctx "\"t_ns\"") (num "t_ns") in
          let* _ = require (ctx "\"src\"") (str "src") in
          let* _ = require (ctx "\"ev\"") (str "ev") in
          incr events;
          Ok ()
        | "span" ->
          let* cat = require (ctx "\"cat\"") (str "cat") in
          let* _ = require (ctx "\"src\"") (str "src") in
          let* _ = require (ctx "\"t0_ns\"") (num "t0_ns") in
          incr spans;
          Hashtbl.replace cats cat ();
          Ok ()
        | "hist" ->
          let* _ = require (ctx "\"cat\"") (str "cat") in
          let* _ = require (ctx "\"count\"") (num "count") in
          let* _ = require (ctx "\"p50_us\"") (num "p50_us") in
          let* _ = require (ctx "\"p99_us\"") (num "p99_us") in
          incr hists;
          Ok ()
        | "header" ->
          Error
            (ctx
               "unexpected second header — two artifacts must not be \
                concatenated into one file")
        | other -> Error (ctx (Printf.sprintf "unknown \"kind\":%S" other))
      in
      let rec go i = function
        | [] -> Ok ()
        | l :: rest ->
          let* () = check_line i l in
          go (i + 1) rest
      in
      let* () = go 0 rest in
      Ok
        {
          format = `Jsonl;
          events = !events;
          spans = !spans;
          span_cats = sorted_cats cats;
          hists = !hists;
          drops;
          counters = 0;
          windows = 0;
        }
    end

let validate_metrics top s =
  let arr k =
    match Json.member k top |> Option.map Json.to_list_opt with
    | Some (Some l) -> Ok l
    | Some None -> Error (Printf.sprintf "%S is not an array" k)
    | None -> Ok [] (* /1 has only histograms *)
  in
  let check_objs what l checks =
    let rec go i = function
      | [] -> Ok ()
      | o :: rest ->
        let rec fields = function
          | [] -> Ok ()
          | (k, `Num) :: more -> (
            match Option.bind (Json.member k o) Json.to_float_opt with
            | Some _ -> fields more
            | None ->
              Error (Printf.sprintf "%s[%d]: %S missing or not a number" what i k))
          | (k, `Str) :: more -> (
            match Option.bind (Json.member k o) Json.to_string_opt with
            | Some _ -> fields more
            | None ->
              Error (Printf.sprintf "%s[%d]: %S missing or not a string" what i k))
        in
        let* () = fields checks in
        go (i + 1) rest
    in
    go 0 l
  in
  let* hists = arr "histograms" in
  let* () =
    check_objs "histograms" hists
      [ ("cat", `Str); ("count", `Num); ("p50_us", `Num); ("p99_us", `Num) ]
  in
  let* counters = arr "counters" in
  let* () =
    check_objs "counters" counters
      [ ("actor", `Str); ("name", `Str); ("value", `Num) ]
  in
  let* gauges = arr "gauges" in
  let* () =
    check_objs "gauges" gauges
      [ ("actor", `Str); ("name", `Str); ("value", `Num) ]
  in
  let* windows = arr "windows" in
  let* () =
    check_objs "windows" windows
      [
        ("t0_ns", `Num);
        ("len_ns", `Num);
        ("epochs", `Num);
        ("epoch_p50_us", `Num);
        ("epoch_p99_us", `Num);
        ("availability", `Num);
      ]
  in
  let* () =
    if s = metrics_schema || s = "hftsim-metrics/1" then Ok ()
    else
      Error
        (Printf.sprintf "metrics schema %S, expected %S (or the /1 subset)" s
           metrics_schema)
  in
  let drops =
    match
      Option.bind (Json.member "dropped_events" top) Json.to_float_opt
    with
    | Some d -> int_of_float d
    | None -> 0
  in
  Ok
    {
      format = `Metrics;
      events = 0;
      spans = 0;
      span_cats = [];
      hists = List.length hists;
      drops;
      counters = List.length counters;
      windows = List.length windows;
    }

let validate content =
  let trimmed = String.trim content in
  let as_whole = Json.parse trimmed in
  match as_whole with
  | Ok top when Json.member "traceEvents" top <> None ->
    let* evs =
      require "\"traceEvents\" array"
        (Option.bind (Json.member "traceEvents" top) Json.to_list_opt)
    in
    validate_chrome_events evs
  | Ok top
    when (match
            Option.bind (Json.member "schema" top) Json.to_string_opt
          with
         | Some s ->
           String.length s >= 15
           && String.sub s 0 15 = "hftsim-metrics/"
         | None -> false) ->
    let s =
      match Option.bind (Json.member "schema" top) Json.to_string_opt with
      | Some s -> s
      | None -> assert false
    in
    validate_metrics top s
  | _ -> validate_jsonl content

let pp_summary fmt s =
  match s.format with
  | `Metrics ->
    Format.fprintf fmt
      "%s: %d histograms, %d counters, %d windows%s"
      metrics_schema s.hists s.counters s.windows
      (if s.drops > 0 then
         Printf.sprintf ", %d dropped event(s)" s.drops
       else "")
  | (`Chrome | `Jsonl) as f ->
    Format.fprintf fmt
      "%s: %d events, %d spans across %d categories%s, %d histograms%s"
      (match f with `Chrome -> "chrome trace" | `Jsonl -> schema)
      s.events s.spans
      (List.length s.span_cats)
      (match s.span_cats with
      | [] -> ""
      | cats -> " (" ^ String.concat ", " cats ^ ")")
      s.hists
      (if s.drops > 0 then
         Printf.sprintf ", %d dropped event(s)" s.drops
       else "")
