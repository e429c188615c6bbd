open Hft_sim

type t = {
  cat : string;
  source : string;
  label : string;
  t0 : Time.t;
  t1 : Time.t option;
}

let closed s = s.t1 <> None

let duration s =
  match s.t1 with Some t1 -> Some (Time.diff t1 s.t0) | None -> None

let categories =
  [
    "epoch"; "ack-wait"; "intr-delay"; "msg-rtt"; "rtx-chain"; "failover";
    "recovery";
  ]

(* The one begin/end pairing implementation, shared by the timeline
   export ({!of_entries}) and the streaming registry ({!Metrics}).
   Begin events open a slot keyed by (category, source, key) holding
   the start time and the opening event; the matching end event closes
   it.  A re-begin on an open key (possible only across a
   reintegration, where the revived node restarts an epoch number it
   had crashed inside) abandons the earlier open; unmatched ends (an
   interrupt carried to the peer inside a snapshot) are ignored.
   Nothing here formats a label: [label] renders one from the slot's
   events only when a span is materialized.  Categories are indexes
   into [names]. *)
let names = Array.of_list categories

let epoch = 0
and ack_wait = 1
and intr_delay = 2
and msg_rtt = 3
and rtx_chain = 4
and failover = 5
and recovery = 6

module Slots = Hashtbl.Make (struct
  type t = int * string * int

  (* [String.equal] is a pointer test for an emitter's own name *)
  let equal ((c : int), s, (k : int)) (c', s', k') =
    k = k' && c = c' && String.equal s s'

  (* a handful of sources ever; keys are small integers *)
  let hash (c, s, k) = (((k * 8) + c) * 0x9e3779b1) lxor String.length s
end)

type pairer = {
  opens : (Time.t * Event.t) Slots.t;
  (* recovery: nodes whose microreboot completed; their next epoch end
     closes the recovery span *)
  mutable rebooted : string list;
  (* failover: newest crash per node, newest first, and the promoted
     node awaiting its first I/O *)
  mutable crashes : (string * Time.t) list;
  mutable promoted_src : string option;
}

let pairer () =
  { opens = Slots.create 64; rebooted = []; crashes = []; promoted_src = None }

let label ~opener ~closer =
  match (opener, closer) with
  | Event.Epoch_begin { epoch }, _ -> Printf.sprintf "epoch %d" epoch
  | Event.Hv_detected _, Some (Event.Recovery_escalated _) ->
    "recovery (escalated)"
  | Event.Hv_detected { by }, _ -> Printf.sprintf "recovery (%s)" by
  | Event.Ack_wait_begin { at_io; _ }, _ ->
    if at_io then "ack-wait (io)" else "ack-wait (boundary)"
  | Event.Intr_buffered { id; kind; _ }, _ ->
    Printf.sprintf "%s intr #%d" kind id
  | Event.Msg_send { dseq; kind; _ }, _ -> Printf.sprintf "%s dseq %d" kind dseq
  | Event.Rtx_round { round; _ }, Some _ -> Printf.sprintf "rtx x%d" round
  | Event.Rtx_round _, None -> "rtx"
  | _ -> "crash to first I/O" (* Promoted *)

let open_slot p (e : Recorder.entry) cat key t0 =
  Slots.replace p.opens (cat, e.source, key) (t0, e.ev)

let close_slot p (e : Recorder.entry) cat key on_close ctx =
  let k = (cat, e.source, key) in
  match Slots.find_opt p.opens k with
  | None -> ()
  | Some (t0, opener) ->
    Slots.remove p.opens k;
    on_close ctx ~cat:names.(cat) ~source:e.source ~t0 ~t1:e.time ~opener
      ~closer:e.ev

let feed p ({ Recorder.time; source; ev } as e) on_close ctx =
  match ev with
  | Event.Epoch_begin { epoch = n } -> open_slot p e epoch n time
  | Event.Epoch_end { epoch = n; _ } ->
    close_slot p e epoch n on_close ctx;
    if List.mem source p.rebooted then begin
      p.rebooted <- List.filter (( <> ) source) p.rebooted;
      close_slot p e recovery 0 on_close ctx
    end
  | Event.Hv_detected _ -> open_slot p e recovery 0 time
  | Event.Microreboot_done _ ->
    if not (List.mem source p.rebooted) then
      p.rebooted <- source :: p.rebooted
  | Event.Recovery_escalated _ ->
    p.rebooted <- List.filter (( <> ) source) p.rebooted;
    close_slot p e recovery 0 on_close ctx
  | Event.Ack_wait_begin _ -> open_slot p e ack_wait 0 time
  | Event.Ack_wait_end _ -> close_slot p e ack_wait 0 on_close ctx
  | Event.Intr_buffered { id; _ } -> open_slot p e intr_delay id time
  | Event.Intr_delivered { id; _ } ->
    close_slot p e intr_delay id on_close ctx
  | Event.Msg_send { dseq; _ } -> open_slot p e msg_rtt dseq time
  | Event.Msg_acked { dseq } ->
    close_slot p e msg_rtt dseq on_close ctx;
    close_slot p e rtx_chain 0 on_close ctx
  | Event.Rtx_round _ -> (
    (* a chain opens at its first round; later rounds keep the start
       time and become the opener, so the label counts them *)
    match Slots.find_opt p.opens (rtx_chain, source, 0) with
    | Some (t0, _) -> open_slot p e rtx_chain 0 t0
    | None -> open_slot p e rtx_chain 0 time)
  | Event.Rtx_give_up _ -> close_slot p e rtx_chain 0 on_close ctx
  | Event.Crash ->
    p.crashes <-
      (source, time) :: List.filter (fun (s, _) -> s <> source) p.crashes
  | Event.Promoted _ ->
    p.promoted_src <- Some source;
    (* measured from the most recent crash of another node; a
       promotion with no observed crash (pure detector false positive)
       starts at the promotion itself *)
    open_slot p e failover 0
      (match List.find_opt (fun (s, _) -> s <> source) p.crashes with
      | Some (_, tc) -> tc
      | None -> time)
  | Event.Io_submit _ ->
    if p.promoted_src = Some source then begin
      close_slot p e failover 0 on_close ctx;
      p.promoted_src <- None
    end
  | _ -> ()

let collect spans ~cat ~source ~t0 ~t1 ~opener ~closer =
  let label = label ~opener ~closer:(Some closer) in
  spans := { cat; source; label; t0; t1 = Some t1 } :: !spans

let of_entries entries =
  let p = pairer () in
  let spans = ref [] in
  List.iter (fun e -> feed p e collect spans) entries;
  (* whatever is still open stays open: a crash mid-epoch, an
     interrupt never delivered, a failover with no subsequent I/O.
     Ordered by key, so spans that tie on start, category and source
     come out in a fixed order. *)
  let open_spans =
    Slots.fold (fun (cat, source, key) s acc -> (key, cat, source, s) :: acc)
      p.opens []
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b)
    |> List.map (fun (_, cat, source, (t0, opener)) ->
           let label = label ~opener ~closer:None in
           { cat = names.(cat); source; label; t0; t1 = None })
  in
  let all = List.rev_append !spans open_spans in
  List.stable_sort
    (fun a b ->
      let c = Time.compare a.t0 b.t0 in
      if c <> 0 then c else compare (a.cat, a.source) (b.cat, b.source))
    all

type failover = {
  crashed : string;
  crash_time : Time.t;
  detector_time : Time.t option;
  promoted : string option;
  promoted_time : Time.t option;
  first_io_time : Time.t option;
  synthesized : int;
}

(* Post-mortem timelines, one per crash: the crash, the surviving
   node's failure detection, its promotion, and its first submitted
   I/O operation (the moment the environment is served again). *)
let failovers entries =
  let done_ = ref [] in
  let current = ref None in
  let finish () =
    match !current with
    | Some f ->
      done_ := f :: !done_;
      current := None
    | None -> ()
  in
  List.iter
    (fun { Recorder.time; source; ev } ->
      match ev with
      | Event.Crash ->
        finish ();
        current :=
          Some
            {
              crashed = source;
              crash_time = time;
              detector_time = None;
              promoted = None;
              promoted_time = None;
              first_io_time = None;
              synthesized = 0;
            }
      | Event.Detector_fired _ -> (
        match !current with
        | Some f when f.detector_time = None && source <> f.crashed ->
          current := Some { f with detector_time = Some time }
        | _ -> ())
      | Event.Promoted { synthesized; _ } -> (
        match !current with
        | Some f when f.promoted = None ->
          current :=
            Some
              {
                f with
                promoted = Some source;
                promoted_time = Some time;
                synthesized;
              }
        | _ -> ())
      | Event.Io_submit _ -> (
        match !current with
        | Some f when f.promoted = Some source && f.first_io_time = None ->
          current := Some { f with first_io_time = Some time }
        | _ -> ())
      | _ -> ())
    entries;
  finish ();
  List.rev !done_

type recovery = {
  node : string;
  fault_kind : string;
  fault_time : Time.t;
  detected_by : string option;
  detect_time : Time.t option;
  reboot_time : Time.t option;
  first_epoch_time : Time.t option;
  r_reconciled_ios : int;
  r_reconciled_msgs : int;
  escalated : bool;
}

(* Post-mortem recovery timelines, one per seeded hypervisor fault:
   injection, detection (panic / watchdog / integrity audit), the
   microreboot's completion with its reconciliation counts, and the
   first epoch the recovered node completes afterwards.  Tracked per
   node: both hypervisors can be recovering at once. *)
let recoveries entries =
  let done_ = ref [] in
  let current : (string, recovery) Hashtbl.t = Hashtbl.create 4 in
  let finish source =
    match Hashtbl.find_opt current source with
    | Some r ->
      Hashtbl.remove current source;
      done_ := r :: !done_
    | None -> ()
  in
  List.iter
    (fun { Recorder.time; source; ev } ->
      match ev with
      | Event.Hv_fault { kind } -> (
        match Hashtbl.find_opt current source with
        | Some _ ->
          (* a second fault on a recovering node escalates; the
             Recovery_escalated event below closes the record *)
          ()
        | None ->
          Hashtbl.replace current source
            {
              node = source;
              fault_kind = kind;
              fault_time = time;
              detected_by = None;
              detect_time = None;
              reboot_time = None;
              first_epoch_time = None;
              r_reconciled_ios = 0;
              r_reconciled_msgs = 0;
              escalated = false;
            })
      | Event.Hv_detected { by } -> (
        match Hashtbl.find_opt current source with
        | Some r when r.detect_time = None ->
          Hashtbl.replace current source
            { r with detected_by = Some by; detect_time = Some time }
        | _ -> ())
      | Event.Microreboot_done { reconciled_ios; reconciled_msgs; _ } -> (
        match Hashtbl.find_opt current source with
        | Some r ->
          Hashtbl.replace current source
            {
              r with
              reboot_time = Some time;
              r_reconciled_ios = reconciled_ios;
              r_reconciled_msgs = reconciled_msgs;
            }
        | None -> ())
      | Event.Epoch_end _ -> (
        match Hashtbl.find_opt current source with
        | Some r when r.reboot_time <> None ->
          Hashtbl.replace current source
            { r with first_epoch_time = Some time };
          finish source
        | _ -> ())
      | Event.Recovery_escalated _ -> (
        match Hashtbl.find_opt current source with
        | Some r ->
          Hashtbl.replace current source { r with escalated = true };
          finish source
        | None -> ())
      | _ -> ())
    entries;
  (* faults still mid-recovery when the record ends stay reported *)
  Hashtbl.iter (fun _ r -> done_ := r :: !done_) current;
  List.sort (fun a b -> Time.compare a.fault_time b.fault_time) !done_
