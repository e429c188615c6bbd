(* The benchmark's workloads, as the replicated systems they build.

   A workload is a list of units.  A unit builds one replicated
   [System.t], configured the way [hftsim run] configures it
   ([System.create] defaults: lockstep and the manifest validator on,
   original protocol, Ethernet), for a given execution backend.  A
   leg runs every unit of a workload once on one backend.  The three
   replicated workloads have one unit each; check-all has one per
   bounded scenario (its root schedule, no faults), next to the
   model-checker sweep itself. *)

open Hft_core
module Time = Hft_sim.Time
module Workload = Hft_guest.Workload
module Recorder = Hft_obs.Recorder
module Metrics = Hft_obs.Metrics
module Scenarios = Hft_harness.Scenarios

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float ns /. 1e9

type unit_spec = {
  u_name : string;
  u_params : Params.t;  (** backend is overridden per leg *)
  u_workload : Workload.t;
  u_disk_seed : int option;
  u_failover : (int * int) option;
      (** crash the primary at this many simulated ms, reintegrate the
          failed node this many ms after promotion; records into a
          [Recorder] with a [Metrics.tap] as [hftsim run --crash]
          does *)
  u_limit : int;
}

type t = {
  name : string;
  seeded : bool;
  units : unit_spec list;
  check_sweep : bool;  (** also run [Checker.explore] on every scenario *)
}

let backends = [ Params.Interp; Params.Threaded ]

let replicated ~name ~el ?disk_seed ?failover workload =
  {
    u_name = name;
    u_params = Params.with_epoch_length Params.default el;
    u_workload = workload;
    u_disk_seed = disk_seed;
    u_failover = failover;
    u_limit = 200_000_000;
  }

(* Leg sizes: about a second of host time per interp leg on a 2-core
   x86-64 container (see README.md). *)
let cpu_iterations = 200_000
let write_ops = 96
let failover_ops = 160
let failover_crash_ms = 3000
let reintegrate_ms = 50

let names = [ "cpu-4k"; "write-64k"; "failover-obs"; "check-all" ]

let find name ~seed =
  match name with
  | "cpu-4k" ->
    Some
      {
        name;
        seeded = false;
        check_sweep = false;
        units =
          [
            replicated ~name ~el:4096
              (Workload.dhrystone ~iterations:cpu_iterations);
          ];
      }
  | "write-64k" ->
    Some
      {
        name;
        seeded = true;
        check_sweep = false;
        units =
          [
            replicated ~name ~el:65536 ~disk_seed:seed
              (Workload.disk_write ~seed ~ops:write_ops ());
          ];
      }
  | "failover-obs" ->
    Some
      {
        name;
        seeded = true;
        check_sweep = false;
        units =
          [
            replicated ~name ~el:4096 ~disk_seed:seed
              ~failover:(failover_crash_ms, reintegrate_ms)
              (Workload.disk_write ~seed ~ops:failover_ops ());
          ];
      }
  | "check-all" ->
    Some
      {
        name;
        seeded = false;
        check_sweep = true;
        units =
          List.map
            (fun (sc : Scenarios.bounded) ->
              {
                u_name = sc.Scenarios.sc_name;
                u_params = Scenarios.params sc ~variant:Scenarios.correct;
                u_workload = sc.Scenarios.sc_workload;
                u_disk_seed = None;
                u_failover = None;
                u_limit = sc.Scenarios.sc_limit;
              })
            Scenarios.all;
      }
  | _ -> None

let params u backend = Params.with_exec_backend u.u_params backend

(* Everything [hftsim run] does before the engine starts: the lint
   gate, then [System.create] (cold manifest analysis on first use in
   the process, translation on the threaded backend), then fault
   wiring. *)
let build ?obs u ~backend =
  let params = params u backend in
  let findings = Hft_harness.Scenario.lint ~params u.u_workload in
  if Hft_analysis.Finding.has_errors findings then
    failwith (u.u_name ^ ": image fails the static analyzer");
  let obs =
    match (u.u_failover, obs) with
    | Some _, _ -> Recorder.create ~tap:(Metrics.tap (Metrics.create ())) ()
    | None, Some obs -> obs
    | None, None -> Recorder.null
  in
  let sys =
    System.create ~params ?disk_seed:u.u_disk_seed ~obs ~workload:u.u_workload
      ()
  in
  (match u.u_failover with
  | Some (crash_ms, reint_ms) ->
    System.crash_primary_at sys (Time.of_ms crash_ms);
    System.reintegrate_after_failover sys ~delay:(Time.of_ms reint_ms)
  | None -> ());
  (sys, obs)

(* The fidelity gate for one finished run. *)
let outcome_errors u (o : System.outcome) =
  let expected_role, failover =
    match u.u_failover with
    | Some _ -> (`Promoted_backup, true)
    | None -> (`Primary, false)
  in
  List.filter_map
    (fun (bad, msg) -> if bad then Some (u.u_name ^ ": " ^ msg) else None)
    [
      ( o.System.lockstep_mismatches <> [],
        Printf.sprintf "lockstep mismatch at %d epoch(s)"
          (List.length o.System.lockstep_mismatches) );
      (o.System.epochs_compared = 0, "no lockstep comparison made");
      (not o.System.disk_consistent, "inconsistent disk history");
      (o.System.completed_by <> expected_role, "completed with the wrong role");
      (o.System.failover <> failover, "unexpected failover state");
    ]

(* Fidelity digests pinned at the default seed (seedless workloads at
   any seed).  A host-only change must not move them. *)
let default_seed = 1

let pinned =
  [
    ("cpu-4k", "d91acb2f7c117e249babde3d6beb0966");
    ("write-64k", "78dc0789ffbaa47fa300c648d7838b71");
    ("failover-obs", "7c158db0eaba4ec1de9a7848bbd3fd28");
    ("check-all", "2a8efa135da0010b3ded1b8db1d6e4f2");
  ]

let pinned_digest job ~seed =
  if job.seeded && seed <> default_seed then None
  else List.assoc_opt job.name pinned

type run = {
  r_unit : unit_spec;
  r_sys : System.t;
  r_obs : Recorder.t;
  r_outcome : (System.outcome, string) result;
  r_host_ns : int;  (** [System.run] only *)
  r_minor_words : float;
  r_major : int;
}

(* Build, then time [System.run].  [prepare] runs after the build,
   outside the timed region (hooks, observers); [on_start] and
   [on_end] receive the clock readings that bound it. *)
let run_unit ?obs ?(prepare = fun _ -> ()) ?(on_start = fun _ -> ())
    ?(on_end = fun _ -> ()) u ~backend =
  let sys, obs = build ?obs u ~backend in
  prepare sys;
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  on_start t0;
  let outcome =
    match System.run ~limit:u.u_limit sys with
    | o -> Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  let t1 = now_ns () in
  on_end t1;
  let g1 = Gc.quick_stat () in
  {
    r_unit = u;
    r_sys = sys;
    r_obs = obs;
    r_outcome = outcome;
    r_host_ns = t1 - t0;
    r_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    r_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* What a host-only change must leave exactly equal: the virtual-time
   results of the run and what it left on the disk. *)
let fidelity r =
  match r.r_outcome with
  | Error e -> "error " ^ e
  | Ok o ->
    let g = o.System.results and p = o.System.primary_stats
    and b = o.System.backup_stats in
    Printf.sprintf
      "time_ns=%d epochs=%d+%d checksum=%d ops=%d retries=%d scratch=%d \
       ticks=%d syscalls=%d console=%S messages=%d bytes=%d simulated=%d+%d \
       disk=%d"
      (Time.to_ns o.System.time) p.Stats.epochs b.Stats.epochs
      g.Guest_results.checksum g.Guest_results.ops g.Guest_results.retries
      g.Guest_results.scratch g.Guest_results.ticks g.Guest_results.syscalls
      o.System.console o.System.messages_sent o.System.bytes_sent
      p.Stats.simulated b.Stats.simulated
      (Hft_devices.Disk.storage_hash (System.disk r.r_sys))

let run_errors r =
  match r.r_outcome with
  | Error e -> [ r.r_unit.u_name ^ ": raised " ^ e ]
  | Ok o -> outcome_errors r.r_unit o

(* The same unit on the two backends must agree on every fidelity
   field. *)
let cross_errors a b =
  match (a.r_outcome, b.r_outcome) with
  | Ok _, Ok _ ->
    let fa = fidelity a and fb = fidelity b in
    if String.equal fa fb then []
    else
      [
        Printf.sprintf "%s: backends disagree:\n  interp   %s\n  threaded %s"
          a.r_unit.u_name fa fb;
      ]
  | _ -> []

let sim_ns r =
  match r.r_outcome with Ok o -> Time.to_ns o.System.time | Error _ -> 0

(* Guest instructions both CPUs have retired so far. *)
let retired sys =
  Hft_machine.Cpu.instructions_retired (Hypervisor.cpu (System.primary sys))
  + Hft_machine.Cpu.instructions_retired (Hypervisor.cpu (System.backup sys))

(* Chain one clock read onto each node's epoch-boundary hook, keeping
   the boundaries of whichever node is acting primary. *)
let epoch_clock sys (samples : int list ref) =
  let last = ref (-1) in
  List.iter
    (fun hv ->
      let previous = Hypervisor.get_on_epoch_boundary hv in
      Hypervisor.set_on_epoch_boundary hv (fun ~epoch ~hash ->
          (match Hypervisor.role hv with
          | (Hypervisor.Primary | Hypervisor.Promoted) when Hypervisor.alive hv
            ->
            let t = now_ns () in
            if !last >= 0 then samples := (t - !last) :: !samples;
            last := t
          | _ -> ());
          previous ~epoch ~hash))
    [ System.primary sys; System.backup sys ]

(* [Checker.explore] on every scenario: (result, errors, host ns of the
   exploration alone).  [before] runs, untimed, before each one. *)
let explore_all ?(before = fun () -> ()) () =
  List.map
    (fun sc ->
      before ();
      let t0 = now_ns () in
      let r = Hft_check.Checker.explore sc ~variant:Scenarios.correct in
      let ns = now_ns () - t0 in
      let errors =
        if r.Hft_check.Checker.r_complete && r.Hft_check.Checker.r_violations = []
        then []
        else [ sc.Scenarios.sc_name ^ ": no clean fixpoint" ]
      in
      (r, errors, ns))
    Scenarios.all
