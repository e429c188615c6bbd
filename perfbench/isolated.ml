(* Isolated per-call timings of single layers, each parameterized with
   what the workload's own run does: CPUs restored from snapshots taken
   at real epoch boundaries of the run, the traced mean slice length
   and queue depth, and the run's own typed event stream. *)

open Hft_core
module Engine = Hft_sim.Engine
module Time = Hft_sim.Time
module Cpu = Hft_machine.Cpu
module Tlb = Hft_machine.Tlb
module Recorder = Hft_obs.Recorder
module Metrics = Hft_obs.Metrics
module Manifest = Hft_analysis.Manifest

let now_ns = Job.now_ns

(* The cost of the two clock reads around a timed call. *)
let clock_ns =
  lazy
    (let n = 100_000 in
     let t0 = now_ns () in
     for _ = 1 to n do
       ignore (Sys.opaque_identity (now_ns ()))
     done;
     float (now_ns () - t0) /. float n)

let fresh_cpu (u : Job.unit_spec) backend =
  let params = Job.params u backend in
  let workload = u.Job.u_workload in
  let cpu =
    Cpu.create ~config:params.Params.cpu_config
      ~code:workload.Hft_guest.Workload.program.Hft_machine.Asm.code ()
  in
  Hypervisor.arm_manifest_validator ~params ~workload ~deprivileged:true cpu;
  Hypervisor.arm_translation ~params ~workload ~deprivileged:true cpu;
  cpu

(* A CPU holding a copy of the state a real run had at an epoch
   boundary (registers, memory and TLB), with its own snapshot of it to
   return to. *)
type point = {
  cpu : Cpu.t;
  snap : Cpu.snapshot;
  tlb : Tlb.entry list;
  el : int;
}

let point_of (u : Job.unit_spec) backend live =
  let cpu = fresh_cpu u backend in
  Cpu.restore cpu (Cpu.snapshot live);
  {
    cpu;
    snap = Cpu.snapshot cpu;
    tlb = Tlb.entries (Cpu.tlb live);
    el = u.Job.u_params.Params.epoch_length;
  }

let reset p =
  Cpu.restore p.cpu p.snap;
  List.iter (Tlb.insert (Cpu.tlb p.cpu)) (List.rev p.tlb);
  Cpu.set_recovery p.cpu p.el

(* The hypervisor-managed TLB fill (section 3.2), which the isolated
   runs perform untimed between calls, as the hypervisor does between
   slices.  [false] when the page is absent and the guest would take
   the miss itself. *)
let fill_tlb p ~vaddr =
  let vpage = vaddr lsr (Cpu.config p.cpu).Cpu.page_shift in
  let word =
    Hft_machine.Memory.read (Cpu.mem p.cpu) (Hft_guest.Layout.pt_base + vpage)
  in
  word <> 0
  && begin
       Tlb.insert (Cpu.tlb p.cpu) (Tlb.decode_entry_word ~vpage word);
       true
     end

(* After a stop: carry on where the hypervisor would only have refilled
   the TLB or re-armed the epoch, otherwise return to the snapshot. *)
let after_stop p (stop : Cpu.stop) =
  match stop with
  | Cpu.Fuel -> ()
  | Cpu.Recovery -> Cpu.set_recovery p.cpu p.el
  | Cpu.Tlb_miss { vaddr; _ } when fill_tlb p ~vaddr -> ()
  | _ -> reset p

(* Run [Cpu.run ~fuel] from each point for [budget_ns] of host time in
   all, re-arming the recovery counter at each epoch end and returning
   to the snapshot on any other stop (the hypervisor's work, which is
   not timed here).  Returns (ns inside [Cpu.run], instructions,
   calls). *)
let drive points ~fuel ~budget_ns =
  let overhead = Lazy.force clock_ns in
  let per_point = budget_ns / max 1 (List.length points) in
  List.fold_left
    (fun (ns, ins, calls) p ->
      reset p;
      let deadline = now_ns () + per_point in
      let ns = ref ns and ins = ref ins and calls = ref calls in
      let idle = ref 0 in
      while now_ns () < deadline && !idle < 4 do
        let t0 = now_ns () in
        let r = Cpu.run p.cpu ~fuel in
        let t1 = now_ns () in
        ns := !ns +. float (t1 - t0) -. overhead;
        ins := !ins + r.Cpu.executed;
        incr calls;
        if r.Cpu.executed = 0 then incr idle else idle := 0;
        after_stop p r.Cpu.stop
      done;
      (!ns, !ins, !calls))
    (0., 0, 0) points

let ns_per_instr points ~budget_ns =
  let ns, ins, _ = drive points ~fuel:1_000_000 ~budget_ns in
  ns /. float (max 1 ins)

let slice_ns points ~fuel ~budget_ns =
  let ns, _, calls = drive points ~fuel:(max 1 fuel) ~budget_ns in
  ns /. float (max 1 calls)

(* [Cpu.state_hash] after the guest has dirtied memory for up to one
   epoch from a boundary state (until its next stop into the
   hypervisor, or the epoch end). *)
let state_hash_us points ~budget_ns =
  let per_point = budget_ns / max 1 (List.length points) in
  let samples = ref [] in
  List.iter
    (fun p ->
      let deadline = now_ns () + per_point in
      while now_ns () < deadline do
        reset p;
        ignore (Cpu.state_hash p.cpu);
        let left = ref p.el and go = ref true in
        while !go && !left > 0 do
          let r = Cpu.run p.cpu ~fuel:!left in
          left := !left - r.Cpu.executed;
          go :=
            r.Cpu.executed > 0
            &&
            match r.Cpu.stop with
            | Cpu.Fuel -> true
            | Cpu.Tlb_miss { vaddr; _ } -> fill_tlb p ~vaddr
            | _ -> false
        done;
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (Cpu.state_hash p.cpu));
        samples := float (now_ns () - t0) /. 1e3 :: !samples
      done)
    points;
  Stat.mean !samples

(* [Engine.after] + [Engine.step] of a no-op with [pending] other
   events queued, delays drawn over the same horizon so the queue
   keeps its depth. *)
let dispatch_ns ~pending ~budget_ns =
  let e = Engine.create () in
  let rng = Random.State.make [| 0x5eed |] in
  let horizon = 1_000_000 in
  let noop () = () in
  for _ = 1 to max 0 pending do
    ignore
      (Engine.after e ~label:"stop" ~actor:"primary"
         (Time.of_ns (Random.State.int rng horizon))
         noop)
  done;
  let delays = Array.init 4096 (fun _ -> Time.of_ns (Random.State.int rng horizon)) in
  let batch = 4096 and total = ref 0 and ns = ref 0 in
  let deadline = now_ns () + budget_ns in
  while now_ns () < deadline do
    let t0 = now_ns () in
    for i = 0 to batch - 1 do
      ignore (Engine.after e ~label:"stop" ~actor:"primary" delays.(i) noop);
      ignore (Engine.step e)
    done;
    ns := !ns + (now_ns () - t0);
    total := !total + batch
  done;
  float !ns /. float (max 1 !total)

(* [Recorder.emit] into a recorder tapped by a fresh [Metrics]
   registry, replaying the run's own event stream. *)
let emit_ns (entries : Recorder.entry array) ~budget_ns =
  if Array.length entries = 0 then 0.
  else begin
    let ns = ref 0 and total = ref 0 in
    let deadline = now_ns () + budget_ns in
    while now_ns () < deadline do
      let r = Recorder.create ~tap:(Metrics.tap (Metrics.create ())) () in
      let t0 = now_ns () in
      Array.iter
        (fun (e : Recorder.entry) ->
          Recorder.emit r ~time:e.Recorder.time ~source:e.Recorder.source
            e.Recorder.ev)
        entries;
      ns := !ns + (now_ns () - t0);
      total := !total + Array.length entries
    done;
    float !ns /. float !total
  end

(* Median of [reps] timings of [f (prepare ())]; [prepare] is untimed. *)
let median_ms ~prepare ~reps f =
  Stat.median
    (List.init reps (fun _ ->
         let x = prepare () in
         let t0 = now_ns () in
         f x;
         float (now_ns () - t0) /. 1e6))

(* Cold [Manifest.of_code] on the unit's image, with the knobs the
   hypervisor passes. *)
let manifest_ms (u : Job.unit_spec) ~reps =
  let p = u.Job.u_params in
  let program = u.Job.u_workload.Hft_guest.Workload.program in
  median_ms ~prepare:ignore ~reps (fun () ->
      ignore
        (Sys.opaque_identity
           (Manifest.of_code ~rewritten:false ~random_tlb:false
              ~mmio_base:p.Params.cpu_config.Cpu.mmio_base
              ~code_refs:program.Hft_machine.Asm.code_refs
              program.Hft_machine.Asm.code)))

(* [Hypervisor.arm_translation] into a fresh CPU (manifest cache
   warm, so this is translation alone). *)
let translate_ms (u : Job.unit_spec) ~reps =
  let params = Job.params u Params.Threaded in
  let workload = u.Job.u_workload in
  let code = workload.Hft_guest.Workload.program.Hft_machine.Asm.code in
  let prepare () = Cpu.create ~config:params.Params.cpu_config ~code () in
  Hypervisor.arm_translation ~params ~workload ~deprivileged:true (prepare ());
  median_ms ~prepare ~reps (fun cpu ->
      Hypervisor.arm_translation ~params ~workload ~deprivileged:true cpu)

let fingerprint_us sys ~reps =
  let t0 = now_ns () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (System.fingerprint sys))
  done;
  float (now_ns () - t0) /. 1e3 /. float reps
