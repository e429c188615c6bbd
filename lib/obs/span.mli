(** Span reconstruction: pair begin/end events into timed intervals.

    Categories produced (see {!categories}):
    - ["epoch"]     — {!Event.Epoch_begin} to {!Event.Epoch_end}, keyed
      by epoch number per source: the paper's EL term as lived.
    - ["ack-wait"]  — {!Event.Ack_wait_begin}/[_end]: the P2 stall.
    - ["intr-delay"]— {!Event.Intr_buffered} to {!Event.Intr_delivered}
      keyed by interrupt id: the paper's delay(EL), per interrupt.
    - ["msg-rtt"]   — {!Event.Msg_send} to {!Event.Msg_acked} keyed by
      [dseq] at the sender: send-to-cumulative-ack round trip.
    - ["rtx-chain"] — first {!Event.Rtx_round} of a backoff chain to
      the ack (or give-up) that ends it.
    - ["failover"]  — a {!Event.Crash} to the promoted survivor's
      first {!Event.Io_submit}.
    - ["recovery"]  — {!Event.Hv_detected} to the first
      {!Event.Epoch_end} the node completes after its
      {!Event.Microreboot_done} (or to {!Event.Recovery_escalated}).

    Spans without a matching end (a crash mid-epoch, an interrupt
    never delivered) are kept with [t1 = None]. *)

type t = {
  cat : string;
  source : string;
  label : string;
  t0 : Hft_sim.Time.t;
  t1 : Hft_sim.Time.t option;
}

val closed : t -> bool
val duration : t -> Hft_sim.Time.t option

val categories : string list
(** All category names {!of_entries} can produce. *)

(** {2 Streaming pairer}

    The only begin/end pairing in the tree: {!of_entries} folds it
    over a list, and {!Metrics.observe} drives it one event at a time
    so quantiles survive ring wraparound.  Feeding formats no label
    strings. *)

type pairer

val pairer : unit -> pairer

val feed :
  pairer ->
  Recorder.entry ->
  ('a ->
  cat:string ->
  source:string ->
  t0:Hft_sim.Time.t ->
  t1:Hft_sim.Time.t ->
  opener:Event.t ->
  closer:Event.t ->
  unit) ->
  'a ->
  unit
(** [feed p e on_close ctx] advances the pairing state by one
    (time-ordered) entry and calls [on_close ctx] once for every span
    [e] closes (at most two: an ack can end a round trip and a
    retransmission chain, an epoch end an epoch and a recovery).
    [cat] is one of {!categories}; [opener] is the event that opened
    the span (for a failover, the promotion; for a retransmission
    chain, its latest round) and [closer] is [e]'s event. *)

val of_entries : Recorder.entry list -> t list
(** Reconstruct spans from a time-ordered entry list (as returned by
    {!Recorder.entries}).  Result is sorted by start time. *)

type failover = {
  crashed : string;
  crash_time : Hft_sim.Time.t;
  detector_time : Hft_sim.Time.t option;
  promoted : string option;
  promoted_time : Hft_sim.Time.t option;
  first_io_time : Hft_sim.Time.t option;
  synthesized : int;
}

val failovers : Recorder.entry list -> failover list
(** Post-mortem failover timelines, one per observed crash, in crash
    order. *)

type recovery = {
  node : string;
  fault_kind : string;
  fault_time : Hft_sim.Time.t;
  detected_by : string option;
  detect_time : Hft_sim.Time.t option;
  reboot_time : Hft_sim.Time.t option;
  first_epoch_time : Hft_sim.Time.t option;
  r_reconciled_ios : int;
  r_reconciled_msgs : int;
  escalated : bool;
}

val recoveries : Recorder.entry list -> recovery list
(** Post-mortem recovery timelines, one per seeded hypervisor fault,
    in injection order: injection, detection, microreboot completion
    (with reconciliation counts) and first post-reboot epoch — or
    [escalated] when in-place recovery gave up. *)
