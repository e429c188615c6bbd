(* End-to-end benchmark of replicated runs and the model checker.

   perfbench.exe MODE --workload NAME [--seed N] [--seconds S]

   measure  repeat the workload's batch for S seconds with tracing off
            and report the end-to-end metrics (setup excepted);
   setup    in this fresh process, pay one leg's set-up up to the
            first simulated event and report its seconds
            (--backend interp|threaded);
   trace    the traced run: per-layer ledger, isolated per-call
            timings and trace self-checks;
   digest   print the workload's fidelity digest.

   Human-readable lines go first; the last line is "RESULT <json>".
   perfbench/run.py drives these modes and prints the benchmark's
   result line. *)

open Hft_core
module Engine = Hft_sim.Engine
module Channel = Hft_net.Channel
module Recorder = Hft_obs.Recorder
module Checker = Hft_check.Checker

let now_ns = Job.now_ns
let secs = Job.secs

(* ------------------------------------------------------------------ *)
(* Shared bookkeeping                                                  *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let account t errs =
  t.attempted <- t.attempted + 1;
  if errs <> [] then begin
    t.failed <- t.failed + 1;
    t.errors <- t.errors @ errs
  end

(* One leg per backend over every unit; the threaded run of a unit
   fails when it disagrees with the interp run. *)
let run_legs ?(prepare = fun _ _ -> ()) ?(compact = false) job tally =
  let legs =
    List.map
      (fun backend ->
        ( backend,
          List.map
            (fun u ->
              if compact then Gc.compact ();
              Job.run_unit ~prepare:(prepare backend) u ~backend)
            job.Job.units ))
      Job.backends
  in
  let interp = List.assoc Params.Interp legs
  and threaded = List.assoc Params.Threaded legs in
  List.iter (fun r -> account tally (Job.run_errors r)) interp;
  List.iter2
    (fun a b -> account tally (Job.run_errors b @ Job.cross_errors a b))
    interp threaded;
  legs

let digest_of runs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map Job.fidelity runs)))

(* A digest mismatch fails the interp leg it was taken from. *)
let check_pin job ~seed tally runs =
  match Job.pinned_digest job ~seed with
  | Some pin when not (String.equal (digest_of runs) pin) ->
    tally.failed <- tally.failed + 1;
    tally.errors <-
      tally.errors
      @ [
          Printf.sprintf "fidelity digest %s differs from pinned %s"
            (digest_of runs) pin;
        ]
  | _ -> ()

let leg_host runs = List.fold_left (fun a r -> a + r.Job.r_host_ns) 0 runs

let leg_ratio runs =
  float (leg_host runs)
  /. float (max 1 (List.fold_left (fun a r -> a + Job.sim_ns r) 0 runs))

(* check-all has no long leg of its own: its replicated metrics come
   from root-schedule replays of the scenarios, this many per batch. *)
let replay_rounds job = if job.Job.check_sweep then 60 else 1

let print_result tally ~extra metrics =
  List.iter (fun e -> Printf.printf "error: %s\n" e) tally.errors;
  print_endline
    ("RESULT "
    ^ Stat.result_json ~attempted:tally.attempted ~failed:tally.failed
        ~errors:tally.errors ~extra metrics)

(* ------------------------------------------------------------------ *)
(* measure                                                             *)

let measure job ~seed ~seconds =
  let tally = tally () in
  let speed = Reference.create () in
  let ratios = Hashtbl.create 2 in
  let batches = ref [] and samples = ref [] in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let last = ref 0 in
  let first = ref true in
  let heap_words = ref 0 in
  while !first || now_ns () + !last <= deadline do
    let b0 = now_ns () in
    let job_ns = ref 0 in
    (* the reference kernel samples at fixed points of the batch: before
       each scenario's exploration and after the replays on check-all,
       before the legs elsewhere.  None falls among the replays, whose
       first epochs would otherwise pay for the memory a compaction
       returned. *)
    if job.Job.check_sweep then begin
      let results =
        Job.explore_all ~before:(fun () -> Reference.sample speed) ()
      in
      List.iter
        (fun (_, errs, ns) ->
          account tally errs;
          job_ns := !job_ns + ns)
        results;
      Gc.compact ()
    end
    else Reference.sample speed;
    for _ = 1 to replay_rounds job do
      let prepare backend sys =
        if backend = Params.Interp then Job.epoch_clock sys samples
      in
      let legs =
        run_legs ~prepare ~compact:(not job.Job.check_sweep) job tally
      in
      if !first then check_pin job ~seed tally (List.assoc Params.Interp legs);
      first := false;
      List.iter
        (fun (backend, runs) ->
          Hashtbl.replace ratios backend
            (leg_ratio runs
            :: Option.value ~default:[] (Hashtbl.find_opt ratios backend));
          if not job.Job.check_sweep then job_ns := !job_ns + leg_host runs)
        legs
    done;
    if job.Job.check_sweep then Reference.sample speed;
    batches := secs !job_ns :: !batches;
    (* the peak of one batch, before the samples kept across batches
       add to it *)
    if !heap_words = 0 then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    last := now_ns () - b0
  done;
  let us = List.map (fun ns -> float ns /. 1e3) !samples in
  let ratio b = Stat.median (Hashtbl.find ratios b) in
  let heap_mb = float (!heap_words * (Sys.word_size / 8)) /. 1e6 in
  let raw =
    [
      ("host_s_per_sim_s.interp", (ratio Params.Interp, "s/s"));
      ("host_s_per_sim_s.threaded", (ratio Params.Threaded, "s/s"));
      ("epoch_host_us.p50", (Stat.quantile 0.5 us, "us"));
      ("epoch_host_us.p99", (Stat.quantile 0.99 us, "us"));
      ("batch_s", (Stat.median !batches, "s"));
    ]
  in
  let scale = Reference.scale speed in
  Printf.printf
    "%s: %d batch(es), %d epoch sample(s) on the interp leg, reference \
     kernel %.4f s (median of %d), scale %.4f\n"
    job.Job.name (List.length !batches) (List.length us)
    (Reference.median_s speed)
    (List.length speed.Reference.samples)
    scale;
  List.iter
    (fun (k, (v, u)) -> Printf.printf "  raw %-28s %.6g %s\n" k v u)
    raw;
  print_result tally
    ~extra:
      [
        ("epoch_samples", string_of_int (List.length us));
        ("batches", string_of_int (List.length !batches));
        ("scale", Stat.json_float scale);
      ]
    (List.map (fun (k, m) -> (k, Reference.normalize speed m)) raw
    @ [ ("peak_heap_mb", (heap_mb, "MB")) ])

(* ------------------------------------------------------------------ *)
(* setup                                                               *)

exception First_event

let setup job ~backend =
  let t0 = now_ns () in
  List.iter
    (fun u ->
      let sys, _ = Job.build u ~backend in
      Engine.set_observer (System.engine sys) (fun _ ~label:_ ~actor:_ ->
          raise First_event);
      try ignore (System.run ~limit:u.Job.u_limit sys) with First_event -> ())
    job.Job.units;
  let s = secs (now_ns () - t0) in
  let tally = tally () in
  tally.attempted <- 1;
  print_result tally ~extra:[] [ ("setup_s", (s, "s")) ]

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* A [Stats] field summed over both nodes of every run. *)
let node_stats runs f =
  sum
    (fun r ->
      f (Hypervisor.stats (System.primary r.Job.r_sys))
      + f (Hypervisor.stats (System.backup r.Job.r_sys)))
    runs

(* Counts a host-only change must leave exactly equal, per leg (per
   round of replays on check-all: [ledger] spans [rounds] of them,
   [runs] one). *)
let fidelity_counts ~rounds ledger runs =
  let stats = node_stats runs in
  let channels f =
    sum
      (fun r ->
        f (System.channel_to_backup r.Job.r_sys)
        + f (System.channel_to_primary r.Job.r_sys))
      runs
  in
  [
    ("sim.events", ledger.Spans.dispatched / rounds);
    ("machine.slices", Spans.label_count ledger "stop" / rounds);
    ("machine.guest_instrs", sum (fun r -> Job.retired r.Job.r_sys) runs);
    ("core.epochs", stats (fun s -> s.Stats.epochs));
    ("core.traps_simulated", stats (fun s -> s.Stats.simulated));
    ("net.messages", channels Channel.messages_sent);
    ("net.bytes", channels Channel.bytes_sent);
  ]

let other_counts runs =
  let stats = node_stats runs in
  [
    ("net.retransmits", stats (fun s -> s.Stats.retransmits));
    ("machine.pages_hashed", stats (fun s -> s.Stats.pages_hashed));
    ( "devices.disk_ops",
      sum
        (fun r ->
          List.length (Hft_devices.Disk.Log.entries (System.disk r.Job.r_sys)))
        runs );
    ("obs.events_recorded", sum (fun r -> Recorder.total_recorded r.Job.r_obs) runs);
    ("obs.dropped", sum (fun r -> Recorder.dropped r.Job.r_obs) runs);
  ]

(* One repeat: for each backend, the untraced leg(s), then the traced
   leg(s) of the same units. *)
type repeat = {
  ledgers : (Params.exec_backend * Spans.ledger) list;
  untraced_ns : int;
  traced_runs : (Params.exec_backend * Job.run list) list;
  minor_words : float;
  major : int;
  epoch_samples : int;
}

let traced_repeat job tally ~capacity =
  let rounds = replay_rounds job in
  let untraced = ref 0 and minor = ref 0. and major = ref 0 in
  let samples = ref [] in
  let per_backend =
    List.map
      (fun backend ->
        let ledger = Spans.ledger () in
        let traced = ref [] in
        for round = 1 to rounds do
          List.iter
            (fun u ->
              if not job.Job.check_sweep then Gc.compact ();
              let prepare sys =
                if backend = Params.Interp then Job.epoch_clock sys samples
              in
              let r = Job.run_unit ~prepare u ~backend in
              untraced := !untraced + r.Job.r_host_ns;
              minor := !minor +. r.Job.r_minor_words;
              major := !major + r.Job.r_major;
              if not job.Job.check_sweep then Gc.compact ();
              let tracer = ref None in
              let prepare sys = tracer := Some (Spans.attach sys ~capacity) in
              let on_start run_start =
                Spans.start (Option.get !tracer) ~run_start
              in
              let on_end run_end =
                Spans.finish (Option.get !tracer) ledger ~run_end
              in
              let rt = Job.run_unit ~prepare ~on_start ~on_end u ~backend in
              if round = 1 then traced := rt :: !traced)
            job.Job.units
        done;
        (backend, ledger, List.rev !traced))
      Job.backends
  in
  let runs b =
    let _, _, r = List.find (fun (b', _, _) -> b' = b) per_backend in
    r
  in
  List.iter (fun r -> account tally (Job.run_errors r)) (runs Params.Interp);
  List.iter2
    (fun a b -> account tally (Job.run_errors b @ Job.cross_errors a b))
    (runs Params.Interp) (runs Params.Threaded);
  {
    ledgers = List.map (fun (b, l, _) -> (b, l)) per_backend;
    untraced_ns = !untraced;
    traced_runs = List.map (fun (b, _, r) -> (b, r)) per_backend;
    minor_words = !minor;
    major = !major;
    epoch_samples = List.length !samples / rounds;
  }

(* Calibration: one untimed interp leg that keeps what the isolated
   timings need — CPU snapshots at evenly spaced epoch boundaries of
   the primary, a fingerprint timing at the middle dispatch, and the
   leg's typed event stream. *)
type calibration = {
  points : (Params.exec_backend * Isolated.point) list;
  fingerprint_us : float list;
  events : Recorder.entry array;
}

let calibrate job ~expected =
  let points = ref [] and fps = ref [] and events = ref [] in
  List.iter2
    (fun (u : Job.unit_spec) (epochs, dispatched) ->
      let n_points = if job.Job.check_sweep then 2 else 8 in
      let marks =
        List.init n_points (fun k -> max 1 ((k + 1) * epochs / (n_points + 1)))
      in
      let capture = Recorder.create () in
      let prepare sys =
        let hv = System.primary sys in
        let previous = Hypervisor.get_on_epoch_boundary hv in
        Hypervisor.set_on_epoch_boundary hv (fun ~epoch ~hash ->
            previous ~epoch ~hash;
            if List.mem epoch marks && Hypervisor.alive hv then begin
              let live = Hypervisor.cpu hv in
              List.iter
                (fun b -> points := (b, Isolated.point_of u b live) :: !points)
                Job.backends
            end);
        let seen = ref 0 in
        Engine.set_observer (System.engine sys) (fun _ ~label:_ ~actor:_ ->
            incr seen;
            if !seen = dispatched / 2 then
              fps := Isolated.fingerprint_us sys ~reps:200 :: !fps)
      in
      let r =
        if u.Job.u_failover <> None then
          Job.run_unit ~prepare u ~backend:Params.Interp
        else Job.run_unit ~obs:capture ~prepare u ~backend:Params.Interp
      in
      let recorder = if u.Job.u_failover <> None then r.Job.r_obs else capture in
      events := !events @ Recorder.entries recorder)
    job.Job.units expected;
  {
    points = List.rev !points;
    fingerprint_us = !fps;
    events = Array.of_list !events;
  }

let points_of cal backend =
  List.filter_map
    (fun (b, p) -> if b = backend then Some p else None)
    cal.points

let trace job ~seconds =
  let tally = tally () in
  let speed = Reference.create () in
  let t_start = now_ns () in
  (* sizes from one plain interp leg *)
  let probe =
    List.map (fun u -> Job.run_unit u ~backend:Params.Interp) job.Job.units
  in
  let expected =
    List.map
      (fun r ->
        let o = Result.get_ok r.Job.r_outcome in
        ( o.System.primary_stats.Stats.epochs,
          Engine.events_dispatched (System.engine r.Job.r_sys) ))
      probe
  in
  let capacity =
    List.fold_left (fun a (_, d) -> max a d) 0 expected + 1024
  in
  (* the checker sweep, once *)
  let states, transitions, runs, states_per_s =
    if job.Job.check_sweep then begin
      let results = Job.explore_all () in
      let s = secs (sum (fun (_, _, ns) -> ns) results) in
      List.iter (fun (_, errs, _) -> account tally errs) results;
      let total f = float (sum (fun (r, _, _) -> f r.Checker.r_stats) results) in
      let states = total (fun s -> s.Checker.states) in
      ( states,
        total (fun s -> s.Checker.transitions),
        total (fun s -> s.Checker.runs),
        states /. s )
    end
    else (0., 0., 0., 0.)
  in
  Gc.compact ();
  let cal = calibrate job ~expected in
  (* repeats of untraced + traced legs while the budget allows *)
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let repeats = ref [] and last = ref 0 in
  while !repeats = [] || now_ns () + !last <= deadline do
    let r0 = now_ns () in
    Reference.sample speed;
    repeats := traced_repeat job tally ~capacity :: !repeats;
    last := now_ns () - r0
  done;
  let repeats = List.rev !repeats in
  let first = List.hd repeats in
  let rounds = float (replay_rounds job) in
  let ledger r b = List.assoc b r.ledgers in
  let traced_wall r =
    List.fold_left (fun a (_, l) -> a + l.Spans.wall_ns) 0 r.ledgers
  in
  (* self-checks: coverage, span sums, label map; exact counts across
     legs and repeats *)
  List.iter
    (fun r ->
      List.iter
        (fun (b, l) ->
          let errs = Spans.errors ~leg:(Params.backend_name b) l in
          if errs <> [] then account tally errs)
        r.ledgers)
    repeats;
  let counts r b =
    fidelity_counts ~rounds:(replay_rounds job) (ledger r b)
      (List.assoc b r.traced_runs)
  in
  let reference = counts first Params.Interp in
  List.iter
    (fun r ->
      List.iter
        (fun b ->
          if counts r b <> reference then
            account tally
              [
                Printf.sprintf "%s: fidelity counts differ from the first interp leg"
                  (Params.backend_name b);
              ])
        Job.backends)
    repeats;
  (* per-layer host time, summed over both legs, median over repeats *)
  let layer_s layer =
    Stat.median
      (List.map
         (fun r ->
           List.fold_left
             (fun a (_, l) ->
               let ns, _ = Spans.by_layer l layer in
               a + ns)
             0 r.ledgers
           |> fun ns -> secs ns /. rounds)
         repeats)
  in
  let interp_ledger = ledger first Params.Interp in
  let layer_instrs layer =
    let _, ins = Spans.by_layer interp_ledger layer in
    float ins /. rounds
  in
  let count k = float (List.assoc k reference) in
  let slices = count "machine.slices" and instrs = count "machine.guest_instrs" in
  let fuel_mean = instrs /. Float.max 1. slices in
  let pending_mean =
    float interp_ledger.Spans.pending_sum
    /. float (max 1 interp_ledger.Spans.observed)
  in
  Reference.sample speed;
  let budget = 300_000_000 in
  let interp_points = points_of cal Params.Interp in
  let npi_interp = Isolated.ns_per_instr interp_points ~budget_ns:budget in
  let npi_threaded =
    Isolated.ns_per_instr (points_of cal Params.Threaded) ~budget_ns:budget
  in
  let slice_ns =
    Isolated.slice_ns interp_points
      ~fuel:(int_of_float (Float.round fuel_mean))
      ~budget_ns:budget
  in
  let state_hash_us = Isolated.state_hash_us interp_points ~budget_ns:budget in
  let dispatch_ns =
    Isolated.dispatch_ns
      ~pending:(int_of_float (Float.round pending_mean))
      ~budget_ns:budget
  in
  let emit_ns = Isolated.emit_ns cal.events ~budget_ns:budget in
  let manifest_ms =
    List.fold_left
      (fun a u -> a +. Isolated.manifest_ms u ~reps:5)
      0. job.Job.units
  in
  let translate_ms =
    List.fold_left
      (fun a u -> a +. Isolated.translate_ms u ~reps:5)
      0. job.Job.units
  in
  let threaded_runs = List.assoc Params.Threaded first.traced_runs in
  let threaded_fraction =
    float (node_stats threaded_runs (fun s -> s.Stats.threaded_instrs))
    /. float (max 1 (sum (fun r -> Job.retired r.Job.r_sys) threaded_runs))
  in
  (* estimated shares of the traced wall time: a traced count times an
     isolated per-call cost.  [per_run] counts come from the first round
     of runs, so they scale by the rounds the ledger covers. *)
  let est_share per_backend =
    List.fold_left (fun a (b, _) -> a +. per_backend b) 0. first.ledgers
    /. float (traced_wall first)
  in
  let per_run b f = rounds *. float (sum f (List.assoc b first.traced_runs)) in
  let machine_share =
    est_share (fun b ->
        per_run b (fun r -> Job.retired r.Job.r_sys)
        *. if b = Params.Interp then npi_interp else npi_threaded)
  in
  let sim_share =
    est_share (fun b -> float (ledger first b).Spans.dispatched *. dispatch_ns)
  in
  let obs_share =
    est_share (fun b ->
        per_run b (fun r -> Recorder.total_recorded r.Job.r_obs) *. emit_ns)
  in
  let overhead =
    Stat.median
      (List.map
         (fun r -> float (traced_wall r) /. float (max 1 r.untraced_ns))
         repeats)
  in
  let coverage =
    let o = sum (fun r -> sum (fun (_, l) -> l.Spans.observed) r.ledgers) repeats
    and d =
      sum (fun r -> sum (fun (_, l) -> l.Spans.dispatched) r.ledgers) repeats
    in
    float o /. float (max 1 d)
  in
  let others = other_counts (List.assoc Params.Interp first.traced_runs) in
  (* the ledger, for the reader *)
  List.iter
    (fun (b, l) ->
      Printf.printf "ledger (%s leg, first repeat): %.3f s traced\n"
        (Params.backend_name b) (secs l.Spans.wall_ns);
      List.iter
        (fun (label, (e : Spans.entry)) ->
          Printf.printf "  %-28s %-18s %9d events %10.4f s %12d instrs\n" label
            (match Spans.layer_of_label label with
            | Some layer -> Spans.layer_name layer
            | None -> "UNMAPPED")
            e.Spans.count (secs e.Spans.ns) e.Spans.instrs)
        (Spans.rows l))
    first.ledgers;
  Printf.printf
    "%s: %d repeat(s), tracing overhead %.3fx, reference kernel %.4f s, \
     scale %.4f (ledger times above are raw)\n"
    job.Job.name (List.length repeats) overhead
    (Reference.median_s speed)
    (Reference.scale speed);
  let c k = (count k, "count") in
  let o k = (float (List.assoc k others), "count") in
  print_result tally
    ~extra:
      [
        ("repeats", string_of_int (List.length repeats));
        ("scale", Stat.json_float (Reference.scale speed));
      ]
    (List.map (fun (k, m) -> (k, Reference.normalize speed m))
    [
       ("sim.events", c "sim.events");
       ("sim.pending_mean", (pending_mean, "count"));
       ("sim.dispatch_ns", (dispatch_ns, "ns"));
       ("sim.est_share", (sim_share, "ratio"));
       ("machine.slices", c "machine.slices");
       ("machine.fuel_mean", (fuel_mean, "instrs"));
       ("machine.guest_instrs", c "machine.guest_instrs");
       ("machine.ns_per_instr.interp", (npi_interp, "ns"));
       ("machine.ns_per_instr.threaded", (npi_threaded, "ns"));
       ("machine.threaded_fraction", (threaded_fraction, "ratio"));
       ("machine.slice_ns", (slice_ns, "ns"));
       ("machine.pages_hashed", o "machine.pages_hashed");
       ("machine.state_hash_us", (state_hash_us, "us"));
       ("machine.translate_ms", (translate_ms, "ms"));
       ("machine.est_share", (machine_share, "ratio"));
       ("core.slice_s", (layer_s Spans.Slice, "s"));
       ("core.slice_instrs", (layer_instrs Spans.Slice, "instrs"));
       ("core.boundary_s", (layer_s Spans.Boundary, "s"));
       ("core.boundary_instrs", (layer_instrs Spans.Boundary, "instrs"));
       ("core.protocol_s", (layer_s Spans.Protocol, "s"));
       ("core.epochs", c "core.epochs");
       ("core.traps_simulated", c "core.traps_simulated");
       ("core.epoch_samples", (float first.epoch_samples, "count"));
       ("net.deliver_s", (layer_s Spans.Net, "s"));
       ("net.messages", c "net.messages");
       ("net.bytes", c "net.bytes");
       ("net.retransmits", o "net.retransmits");
       ("devices.complete_s", (layer_s Spans.Devices, "s"));
       ("devices.disk_ops", o "devices.disk_ops");
       ("obs.events_recorded", o "obs.events_recorded");
       ("obs.dropped", o "obs.dropped");
       ("obs.emit_ns", (emit_ns, "ns"));
       ("obs.est_share", (obs_share, "ratio"));
       ( "gc.minor_mwords",
         ( Stat.median (List.map (fun r -> r.minor_words /. 1e6 /. rounds) repeats),
           "Mwords" ) );
       ( "gc.major_collections",
         ( Stat.median (List.map (fun r -> float r.major /. rounds) repeats),
           "count" ) );
       ("analysis.manifest_ms", (manifest_ms, "ms"));
       ("check.fingerprint_us", (Stat.mean cal.fingerprint_us, "us"));
       ("check.states", (states, "count"));
       ("check.transitions", (transitions, "count"));
       ("check.runs", (runs, "count"));
       ("check.states_per_s", (states_per_s, "1/s"));
       ("trace.coverage", (coverage, "ratio"));
       ("trace.overhead", (overhead, "ratio"));
     ])

(* ------------------------------------------------------------------ *)
(* command line                                                        *)

let usage () =
  prerr_endline
    "usage: perfbench.exe (measure|setup|trace|digest) --workload NAME \
     [--seed N] [--seconds S] [--backend interp|threaded]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, rest = match args with m :: r -> (m, r) | [] -> usage () in
  let workload = ref None and seed = ref Job.default_seed
  and seconds = ref 10. and backend = ref Params.Interp in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: r ->
      workload := Some w;
      parse r
    | "--seed" :: s :: r ->
      (match int_of_string_opt s with Some n -> seed := n | None -> usage ());
      parse r
    | "--seconds" :: s :: r ->
      (match float_of_string_opt s with Some x -> seconds := x | None -> usage ());
      parse r
    | "--backend" :: b :: r ->
      (match Params.backend_of_name b with
      | Some (Params.Interp | Params.Threaded as x) -> backend := x
      | _ -> usage ());
      parse r
    | _ -> usage ()
  in
  parse rest;
  let job =
    match !workload with
    | None -> usage ()
    | Some w -> (
      match Job.find w ~seed:!seed with
      | Some j -> j
      | None ->
        Printf.eprintf "unknown workload %S (%s)\n" w
          (String.concat "|" Job.names);
        exit 2)
  in
  match mode with
  | "measure" -> measure job ~seed:!seed ~seconds:!seconds
  | "setup" -> setup job ~backend:!backend
  | "trace" -> trace job ~seconds:!seconds
  | "digest" ->
    let tally = tally () in
    let legs = run_legs job tally in
    let d = digest_of (List.assoc Params.Interp legs) in
    List.iter
      (fun r -> Printf.printf "%s: %s\n" r.Job.r_unit.Job.u_name (Job.fidelity r))
      (List.assoc Params.Interp legs);
    print_result tally ~extra:[ ("digest", Stat.json_string d) ] []
  | _ -> usage ()
