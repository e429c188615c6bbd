(* Outside-in dispatch tracing.

   An [Engine.set_observer] hook records one span per dispatched event
   into preallocated arrays: the host clock at the observer call, the
   label, and the guest instructions both CPUs have retired so far.  A
   span runs from its observer call to the next one (or to the end of
   [System.run]), so it holds the event's handler plus the pop of the
   next event; its self time is its duration, since spans never nest.
   [finish] folds the spans into a per-label ledger, and labels map to
   layers through a fixed table: a label the table does not know is an
   error, so time cannot silently drop out of the ledger. *)

open Hft_core
module Engine = Hft_sim.Engine

type layer = Slice | Boundary | Net | Devices | Protocol

let layer_name = function
  | Slice -> "core.slice"
  | Boundary -> "core.boundary"
  | Net -> "net.deliver"
  | Devices -> "devices.complete"
  | Protocol -> "core.protocol"

(* The time from [System.run]'s entry to the first dispatch (the two
   [Hypervisor.start] calls and the first pop). *)
let run_start_label = "(run start)"

let layer_of_label label =
  match label with
  | "start" | "stop" | "resume" | "boundary-resume" | "failover-resume" ->
    Some Slice
  | "epoch" | "boundary-send" | "epoch-end" | "idle-epoch" -> Some Boundary
  | "disk complete" -> Some Devices
  | "detector" | "rtx" | "crash" | "reintegrate" | "reintegrated" | "hv-fault"
  | "hv-panic" | "hv-watchdog" | "hv-reboot" ->
    Some Protocol
  | _ when label = run_start_label -> Some Protocol
  | _ when String.ends_with ~suffix:" deliver" label -> Some Net
  | _ -> None

type entry = { mutable count : int; mutable ns : int; mutable instrs : int }

(* Totals over every traced run of a leg. *)
type ledger = {
  labels : (string, entry) Hashtbl.t;
  mutable wall_ns : int;  (** [System.run] wall time, summed *)
  mutable observed : int;
  mutable dispatched : int;  (** [Engine.events_dispatched], summed *)
  mutable pending_sum : int;
  mutable unmapped : string list;
  mutable overflow : bool;
}

let ledger () =
  {
    labels = Hashtbl.create 32;
    wall_ns = 0;
    observed = 0;
    dispatched = 0;
    pending_sum = 0;
    unmapped = [];
    overflow = false;
  }

type t = {
  sys : System.t;
  starts : int array;
  ids : int array;
  instrs : int array;
  mutable n : int;
  mutable overflowed : bool;
  mutable pending : int;
  id_of : (string, int) Hashtbl.t;
  mutable names : string list;  (** reversed: id [k] is element [n-1-k] *)
  mutable run_start : int;
  mutable run_start_instrs : int;
}

let label_id t label =
  match Hashtbl.find_opt t.id_of label with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.id_of in
    Hashtbl.add t.id_of label i;
    t.names <- label :: t.names;
    i

(* Install on a freshly built system; [capacity] bounds the spans. *)
let attach sys ~capacity =
  let t =
    {
      sys;
      starts = Array.make capacity 0;
      ids = Array.make capacity 0;
      instrs = Array.make capacity 0;
      n = 0;
      overflowed = false;
      pending = 0;
      id_of = Hashtbl.create 32;
      names = [];
      run_start = 0;
      run_start_instrs = 0;
    }
  in
  let engine = System.engine sys in
  Engine.set_observer engine (fun _time ~label ~actor:_ ->
      let now = Job.now_ns () in
      let i = t.n in
      if i < capacity then begin
        t.starts.(i) <- now;
        t.ids.(i) <- label_id t label;
        t.instrs.(i) <- Job.retired sys;
        t.pending <- t.pending + Engine.pending engine;
        t.n <- i + 1
      end
      else t.overflowed <- true);
  t

(* Called with the clock reading taken right before [System.run]. *)
let start t ~run_start =
  t.run_start_instrs <- Job.retired t.sys;
  t.run_start <- run_start

let add_span l label ~ns ~instrs =
  let e =
    match Hashtbl.find_opt l.labels label with
    | Some e -> e
    | None ->
      let e = { count = 0; ns = 0; instrs = 0 } in
      Hashtbl.add l.labels label e;
      if layer_of_label label = None then l.unmapped <- label :: l.unmapped;
      e
  in
  e.count <- e.count + 1;
  e.ns <- e.ns + ns;
  e.instrs <- e.instrs + instrs

(* Fold the spans of one finished run (ended at host time [run_end])
   into the ledger. *)
let finish t l ~run_end =
  Engine.clear_observer (System.engine t.sys);
  let names = Array.of_list (List.rev t.names) in
  let end_instrs = Job.retired t.sys in
  let n = t.n in
  let first = if n > 0 then t.starts.(0) else run_end in
  let first_instrs = if n > 0 then t.instrs.(0) else end_instrs in
  add_span l run_start_label ~ns:(first - t.run_start)
    ~instrs:(first_instrs - t.run_start_instrs);
  for i = 0 to n - 1 do
    let stop, stop_instrs =
      if i + 1 < n then (t.starts.(i + 1), t.instrs.(i + 1))
      else (run_end, end_instrs)
    in
    add_span l names.(t.ids.(i)) ~ns:(stop - t.starts.(i))
      ~instrs:(stop_instrs - t.instrs.(i))
  done;
  l.wall_ns <- l.wall_ns + (run_end - t.run_start);
  l.observed <- l.observed + n;
  l.dispatched <- l.dispatched + Engine.events_dispatched (System.engine t.sys);
  l.pending_sum <- l.pending_sum + t.pending;
  if t.overflowed then l.overflow <- true

let label_count l label =
  match Hashtbl.find_opt l.labels label with Some e -> e.count | None -> 0

(* (self ns, retired instructions) of one layer. *)
let by_layer l layer =
  Hashtbl.fold
    (fun label e (ns, ins) ->
      if layer_of_label label = Some layer then (ns + e.ns, ins + e.instrs)
      else (ns, ins))
    l.labels (0, 0)

let self_ns_total l = Hashtbl.fold (fun _ e acc -> acc + e.ns) l.labels 0

(* Self-check failures: every dispatch observed, spans summing to the
   traced wall time, every label mapped, no span dropped. *)
let errors ~leg l =
  List.filter_map
    (fun (bad, msg) -> if bad then Some (leg ^ ": trace " ^ msg) else None)
    [
      ( l.observed <> l.dispatched,
        Printf.sprintf "observed %d dispatches, engine dispatched %d"
          l.observed l.dispatched );
      ( self_ns_total l <> l.wall_ns,
        Printf.sprintf "span self times sum to %d ns, traced wall is %d ns"
          (self_ns_total l) l.wall_ns );
      ( l.unmapped <> [],
        "labels missing from the layer map: "
        ^ String.concat ", " (List.sort_uniq compare l.unmapped) );
      (l.overflow, "span buffer overflowed");
    ]

let rows l =
  Hashtbl.fold (fun label e acc -> (label, e) :: acc) l.labels []
  |> List.sort (fun (_, a) (_, b) -> compare b.ns a.ns)
