type event = {
  time : Time.t;
  seq : int;
  label : string;
  actor : string;
  fn : unit -> unit;
  mutable slot : int;  (* heap slot; -1 once fired or cancelled *)
}

type handle = event

type choice = { c_time : Time.t; c_seq : int; c_label : string; c_actor : string }

(* How far an actor's in-flight slice has advanced its state. *)
type reservation = { r_actor : string; mutable r_until : Time.t }

type t = {
  queue : event Heap.t;
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable dispatched : int;
  mutable stopping : bool;
  mutable sched : (choice array -> int) option;
  mutable observer : (Time.t -> label:string -> actor:string -> unit) option;
  mutable reserved : reservation list;  (* one per reserving actor *)
}

exception Stopped

let compare_event a b =
  let c = Time.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    queue =
      Heap.create_indexed ~cmp:compare_event ~index:(fun ev i -> ev.slot <- i);
    clock = Time.zero;
    next_seq = 0;
    dispatched = 0;
    stopping = false;
    sched = None;
    observer = None;
    reserved = [];
  }

let now t = t.clock

let at t ?(label = "") ?(actor = "") time fn =
  if Time.(time < t.clock) then
    invalid_arg
      (Format.asprintf "Engine.at: %a is before now (%a)" Time.pp time Time.pp
         t.clock);
  let ev = { time; seq = t.next_seq; label; actor; fn; slot = -1 } in
  t.next_seq <- t.next_seq + 1;
  Heap.push t.queue ev;
  ev

let after t ?label ?actor d fn = at t ?label ?actor (Time.add t.clock d) fn

let cancel t ev = if ev.slot >= 0 then Heap.remove t.queue ev.slot

let is_pending _t ev = ev.slot >= 0

let next_time t =
  match Heap.peek t.queue with Some ev -> Some ev.time | None -> None

let touches ev actor = String.equal ev.actor "" || String.equal ev.actor actor

(* The min-heap visit stops below any event at or after the best bound
   so far: everything there is later still. *)
let horizon t ~actor ~lookahead =
  let la = Time.to_ns lookahead in
  let best = ref max_int in
  Heap.iter_pruned t.queue (fun ev ->
      let time = Time.to_ns ev.time in
      time < !best
      && begin
        let bound = if touches ev actor then time else time + la in
        if bound < !best then best := bound;
        true
      end);
  if !best = max_int then None else Some (Time.of_ns !best)

let reserve t ~actor ~lookahead until =
  let until =
    match horizon t ~actor ~lookahead with
    | Some h -> Time.min h until
    | None -> until
  in
  match List.find_opt (fun r -> String.equal r.r_actor actor) t.reserved with
  | Some r -> r.r_until <- until
  | None -> t.reserved <- { r_actor = actor; r_until = until } :: t.reserved

let pending t = Heap.length t.queue

let set_scheduler t f = t.sched <- Some f
let clear_scheduler t = t.sched <- None

let set_observer t f = t.observer <- Some f
let clear_observer t = t.observer <- None

(* Order-insensitive digest of the pending event set: each event
   contributes (time since now, actor, label) — but not its sequence
   number, which depends on the allocation order of earlier instants
   and would make otherwise-identical states hash apart.  Used by the
   model checker's state fingerprint. *)
let pending_fingerprint t =
  let fnv_prime = 0x100000001b3 in
  let mask = (1 lsl 62) - 1 in
  let acc = ref 0x12d6f1e9 in
  Heap.iter_pruned t.queue (fun ev ->
      let h =
        Hashtbl.hash
          (Time.to_ns (Time.diff ev.time t.clock), ev.actor, ev.label)
      in
      acc := !acc lxor ((h + 0x9e3779b9) * fnv_prime land mask);
      true);
  !acc

let lookahead_violation ev r =
  failwith
    (Format.asprintf
       "Engine: lookahead violation: %s event %S at %a fires inside %s's \
        slice, which has run to %a"
       (if String.equal ev.actor "" then "actorless" else ev.actor)
       ev.label Time.pp ev.time r.r_actor Time.pp r.r_until)

let rec check_reserved ev = function
  | [] -> ()
  | r :: rest ->
    if Time.(ev.time < r.r_until) && touches ev r.r_actor then
      lookahead_violation ev r;
    check_reserved ev rest

let dispatch t ev =
  check_reserved ev t.reserved;
  t.clock <- ev.time;
  t.dispatched <- t.dispatched + 1;
  (match t.observer with
  | Some f when not (String.equal ev.label "") ->
    f t.clock ~label:ev.label ~actor:ev.actor
  | _ -> ());
  ev.fn ()

(* With a scheduler installed, every dispatch consults it: the set of
   co-enabled events (everything pending at the earliest instant, in
   scheduling order) is surfaced as a choice and the scheduler picks
   which fires first.  Index 0 reproduces the default seq-order
   tie-break exactly. *)
let step_scheduled t f first =
  let batch = ref [] in
  Heap.iter_pruned t.queue (fun ev ->
      Time.equal ev.time first.time
      && begin
        batch := ev :: !batch;
        true
      end);
  let evs = Array.of_list !batch in
  Array.sort (fun a b -> Int.compare a.seq b.seq) evs;
  let choices =
    Array.map
      (fun e ->
        { c_time = e.time; c_seq = e.seq; c_label = e.label; c_actor = e.actor })
      evs
  in
  let idx = f choices in
  let ev = evs.(if idx < 0 || idx >= Array.length evs then 0 else idx) in
  Heap.remove t.queue ev.slot;
  dispatch t ev

let step_first t first =
  match t.sched with
  | None -> dispatch t (Heap.pop_exn t.queue)
  | Some f -> step_scheduled t f first

let step t =
  match Heap.peek t.queue with
  | None -> false
  | Some first ->
    step_first t first;
    true

let run ?(limit = 200_000_000) t =
  t.stopping <- false;
  let fired = ref 0 in
  let rec loop () =
    if t.stopping then ()
    else if !fired >= limit then
      failwith "Engine.run: event limit exceeded (runaway simulation?)"
    else if step t then begin
      incr fired;
      loop ()
    end
  in
  loop ()

let run_until t deadline =
  t.stopping <- false;
  let rec loop () =
    if t.stopping then ()
    else
      match Heap.peek t.queue with
      | Some ev when Time.(ev.time <= deadline) ->
        step_first t ev;
        loop ()
      | _ -> ()
  in
  loop ();
  if Time.(t.clock < deadline) && not t.stopping then t.clock <- deadline

let stop t = t.stopping <- true

let events_dispatched t = t.dispatched
