(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of events.
    Events scheduled for the same instant fire in the order they were
    scheduled (a monotonically increasing sequence number breaks
    ties), so a simulation run is a pure function of its inputs.

    Every component of the fault-tolerance stack — the two simulated
    processors, the disk, the hypervisor-to-hypervisor channels, the
    failure injector — advances only by scheduling and handling events
    on a shared engine. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled (used by the
    backup's failure-detector timeout, which is cancelled whenever a
    message from the primary arrives). *)

exception Stopped
(** Raised out of {!run} by {!stop}. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t

val at :
  t -> ?label:string -> ?actor:string -> Time.t -> (unit -> unit) -> handle
(** [at t time f] schedules [f] to run when the clock reaches [time].
    Raises [Invalid_argument] if [time] is in the past.

    [actor] tags the event with the component whose state its handler
    mutates (a hypervisor name, or the receiving end of a channel).
    The model checker's partial-order reduction treats same-instant
    events with distinct non-empty actors as independent; the empty
    default means "touches shared state — dependent with everything",
    which is always sound. *)

val after :
  t -> ?label:string -> ?actor:string -> Time.t -> (unit -> unit) -> handle
(** [after t d f] is [at t (Time.add (now t) d) f]. *)

val cancel : t -> handle -> unit
(** Remove the event from the queue, in O(log n).  Cancelling an
    already-fired or already-cancelled event is a no-op. *)

val is_pending : t -> handle -> bool

val next_time : t -> Time.t option
(** Time of the earliest pending event, if any (the bare-metal
    executor idles a waiting guest until then). *)

val pending : t -> int
(** Number of scheduled events that have neither fired nor been
    cancelled: the queue's length. *)

(** {2 Per-actor lookahead}

    A simulated processor runs a slice of guest instructions at once
    and schedules a [stop] event at the virtual time the slice ends.
    Its state is then ahead of the clock, which is only sound if no
    event that can touch that state fires before the [stop]. *)

val horizon : t -> actor:string -> lookahead:Time.t -> Time.t option
(** The earliest time an event can touch [actor]'s state: the earlier
    of the earliest pending event tagged [actor] or untagged, and the
    earliest pending event of any other actor plus [lookahead] (the
    least delay with which one actor's handler schedules events for
    another).  [None] on an empty queue.  With [lookahead] zero this is
    {!next_time}.  The cost grows with the number of pending events
    earlier than the result, not with the queue's length. *)

val reserve : t -> actor:string -> lookahead:Time.t -> Time.t -> unit
(** [reserve t ~actor ~lookahead until] records that [actor]'s
    in-flight slice has advanced its state to [until], capped at
    [horizon t ~actor ~lookahead] (a slice that had to run one
    instruction past its horizon claims nothing beyond it).  Until the
    clock reaches that time, dispatching an event tagged [actor] or an
    untagged one raises [Failure] with a message starting
    ["Engine: lookahead violation"]: such an event would see the
    actor's state from the future.  The check costs one time comparison
    per reserving actor on every dispatch.  A later [reserve] for the
    same actor replaces the earlier one. *)

val step : t -> bool
(** Dispatch the single earliest event.  Returns [false] when the
    queue is empty. *)

(** {2 Scheduler hook}

    By default same-instant events fire in scheduling order (the seq
    tie-break above).  A model checker can install a scheduler to
    override that choice: before every dispatch the engine collects
    all co-enabled events — the pending events sharing the earliest
    pending instant, presented in scheduling order — and asks the hook
    which fires first.  Returning [0] reproduces the default order
    exactly; the remaining events stay queued and are re-offered on
    the next step.  The hook runs on every step, including singleton
    batches, so a checker can examine system state between any two
    events. *)

type choice = {
  c_time : Time.t;  (** instant shared by the whole batch *)
  c_seq : int;  (** engine sequence number (unique per run) *)
  c_label : string;  (** trace label, [""] if none *)
  c_actor : string;  (** component tag, [""] = shared state *)
}

val set_scheduler : t -> (choice array -> int) -> unit
(** Install the hook.  The argument array is never empty; an
    out-of-range return value is treated as [0]. *)

val clear_scheduler : t -> unit

val set_observer : t -> (Time.t -> label:string -> actor:string -> unit) -> unit
(** Install a dispatch observer: called for every dispatched event
    that carries a non-empty label, before its handler runs.  Unlike the
    scheduler hook it cannot affect ordering — it exists so an
    observability layer can mirror dispatches into a structured
    recorder without the engine depending on it. *)

val clear_observer : t -> unit

val pending_fingerprint : t -> int
(** Order-insensitive digest of the pending events, hashing each
    as (delay from now, actor, label) — sequence numbers and absolute
    times are excluded so runs that reach the same state by different
    interleavings hash alike.  Part of the checker's state
    fingerprint. *)

val run : ?limit:int -> t -> unit
(** Dispatch events until the queue is empty, or [limit] events have
    fired (default: 200 million, a runaway-simulation backstop;
    exceeding it raises [Failure]). *)

val run_until : t -> Time.t -> unit
(** Dispatch all events scheduled at or before the given time and
    advance the clock to exactly that time. *)

val stop : t -> unit
(** Make the innermost {!run}/{!run_until} return once the current
    event handler finishes. *)

val events_dispatched : t -> int
