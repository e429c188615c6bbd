(* Tests for the discrete-event engine, heap, RNG, time and trace. *)

open Hft_sim

let time_tests =
  let open Alcotest in
  [
    test_case "unit conversions" `Quick (fun () ->
        check int "us" 1_000 (Time.to_ns (Time.of_us 1));
        check int "ms" 1_000_000 (Time.to_ns (Time.of_ms 1));
        check int "s" 1_000_000_000 (Time.to_ns (Time.of_sec 1));
        check (float 1e-9) "to_us" 1.5 (Time.to_us (Time.of_ns 1_500)));
    test_case "of_us_float rounds" `Quick (fun () ->
        check int "15.12us" 15_120 (Time.to_ns (Time.of_us_float 15.12)));
    test_case "arithmetic" `Quick (fun () ->
        let a = Time.of_us 3 and b = Time.of_us 2 in
        check int "add" 5_000 (Time.to_ns (Time.add a b));
        check int "diff" 1_000 (Time.to_ns (Time.diff a b));
        check int "scale" 9_000 (Time.to_ns (Time.scale a 3)));
    test_case "negative construction rejected" `Quick (fun () ->
        check_raises "of_ns" (Invalid_argument "Time.of_ns: negative")
          (fun () -> ignore (Time.of_ns (-1))));
    test_case "diff underflow rejected" `Quick (fun () ->
        check_raises "diff" (Invalid_argument "Time.diff: negative result")
          (fun () -> ignore (Time.diff (Time.of_ns 1) (Time.of_ns 2))));
    test_case "ordering" `Quick (fun () ->
        check bool "lt" true Time.(Time.of_ns 1 < Time.of_ns 2);
        check bool "ge" true Time.(Time.of_ns 2 >= Time.of_ns 2));
  ]

let heap_tests =
  let open Alcotest in
  [
    test_case "push/pop sorts" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
        let rec drain acc =
          match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
        in
        check (list int) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain []));
    test_case "peek does not remove" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        Heap.push h 2;
        Heap.push h 1;
        check (option int) "peek" (Some 1) (Heap.peek h);
        check int "length" 2 (Heap.length h));
    test_case "pop_exn on empty raises" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        check_raises "empty" (Invalid_argument "Heap.pop_exn: empty heap")
          (fun () -> ignore (Heap.pop_exn h)));
    test_case "clear empties" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        Heap.push h 1;
        Heap.clear h;
        check bool "empty" true (Heap.is_empty h));
  ]

let heap_property =
  let prop l =
    let h = Heap.create ~cmp:Int.compare in
    List.iter (Heap.push h) l;
    let rec drain acc =
      match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
    in
    drain [] = List.sort Int.compare l
  in
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    prop

(* Removal from the middle, the engine's eager cancellation: push
   everything, remove a chosen subset by the slots the index callback
   reported, and the rest still drains in order with every removed
   element told it left. *)
type slotted = { v : int; mutable slot : int }

let heap_remove_property =
  let prop (l, picks) =
    let h =
      Heap.create_indexed
        ~cmp:(fun a b -> Int.compare a.v b.v)
        ~index:(fun x i -> x.slot <- i)
    in
    let xs = List.map (fun v -> { v; slot = -1 }) l in
    List.iter (Heap.push h) xs;
    let arr = Array.of_list xs in
    let removed =
      List.filter_map
        (fun k ->
          if arr = [||] then None
          else
            let x = arr.(k mod Array.length arr) in
            if x.slot < 0 then None
            else begin
              Heap.remove h x.slot;
              Some x
            end)
        picks
    in
    let rec drain acc =
      match Heap.pop h with None -> List.rev acc | Some x -> drain (x.v :: acc)
    in
    let kept = List.filter (fun x -> not (List.memq x removed)) xs in
    List.for_all (fun x -> x.slot = -1) removed
    && drain [] = List.sort Int.compare (List.map (fun x -> x.v) kept)
  in
  QCheck.Test.make ~name:"remove by slot keeps heap order" ~count:300
    QCheck.(pair (list small_int) (list small_nat))
    prop

let rng_tests =
  let open Alcotest in
  [
    test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          check int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
        done);
    test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 8 in
        check bool "diverge" true (Rng.bits64 a <> Rng.bits64 b));
    test_case "copy is independent" `Quick (fun () ->
        let a = Rng.create 3 in
        let b = Rng.copy a in
        let x = Rng.bits64 a in
        check int64 "copy replays" x (Rng.bits64 b));
    test_case "int respects bound" `Quick (fun () ->
        let r = Rng.create 11 in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          check bool "in range" true (v >= 0 && v < 17)
        done);
    test_case "int rejects bad bound" `Quick (fun () ->
        let r = Rng.create 1 in
        check_raises "zero" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Rng.int r 0)));
    test_case "chance extremes" `Quick (fun () ->
        let r = Rng.create 5 in
        check bool "p=0" false (Rng.chance r 0.0);
        check bool "p=1" true (Rng.chance r 1.0));
    test_case "float in range" `Quick (fun () ->
        let r = Rng.create 9 in
        for _ = 1 to 1000 do
          let v = Rng.float r 2.5 in
          check bool "in range" true (v >= 0.0 && v < 2.5)
        done);
  ]

let engine_tests =
  let open Alcotest in
  [
    test_case "events fire in time order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore (Engine.at e (Time.of_us 3) (fun () -> log := 3 :: !log));
        ignore (Engine.at e (Time.of_us 1) (fun () -> log := 1 :: !log));
        ignore (Engine.at e (Time.of_us 2) (fun () -> log := 2 :: !log));
        Engine.run e;
        check (list int) "order" [ 1; 2; 3 ] (List.rev !log));
    test_case "same-time events fire in schedule order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 5 do
          ignore (Engine.at e (Time.of_us 1) (fun () -> log := i :: !log))
        done;
        Engine.run e;
        check (list int) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log));
    test_case "clock advances to event time" `Quick (fun () ->
        let e = Engine.create () in
        let seen = ref Time.zero in
        ignore (Engine.after e (Time.of_ms 5) (fun () -> seen := Engine.now e));
        Engine.run e;
        check int "now" 5_000_000 (Time.to_ns !seen));
    test_case "cancel prevents firing" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        let h = Engine.after e (Time.of_us 1) (fun () -> fired := true) in
        Engine.cancel e h;
        Engine.run e;
        check bool "not fired" false !fired;
        check bool "not pending" false (Engine.is_pending e h));
    test_case "scheduling in the past rejected" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.after e (Time.of_us 5) (fun () -> ()));
        Engine.run e;
        let raised =
          try
            ignore (Engine.at e (Time.of_us 1) (fun () -> ()));
            false
          with Invalid_argument _ -> true
        in
        check bool "raised" true raised);
    test_case "next_time skips cancelled" `Quick (fun () ->
        let e = Engine.create () in
        let h = Engine.at e (Time.of_us 1) (fun () -> ()) in
        ignore (Engine.at e (Time.of_us 2) (fun () -> ()));
        Engine.cancel e h;
        check (option int) "next" (Some 2_000)
          (Option.map Time.to_ns (Engine.next_time e)));
    test_case "events may schedule events" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        let rec chain n =
          if n > 0 then
            ignore
              (Engine.after e (Time.of_us 1) (fun () ->
                   incr count;
                   chain (n - 1)))
        in
        chain 10;
        Engine.run e;
        check int "chained" 10 !count;
        check int "now" 10_000 (Time.to_ns (Engine.now e)));
    test_case "run_until stops at deadline" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore (Engine.at e (Time.of_us 1) (fun () -> log := 1 :: !log));
        ignore (Engine.at e (Time.of_us 10) (fun () -> log := 10 :: !log));
        Engine.run_until e (Time.of_us 5);
        check (list int) "only first" [ 1 ] !log;
        check int "clock at deadline" 5_000 (Time.to_ns (Engine.now e));
        Engine.run e;
        check (list int) "rest" [ 10; 1 ] !log);
    test_case "stop interrupts run" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        for _ = 1 to 10 do
          ignore
            (Engine.after e (Time.of_us 1) (fun () ->
                 incr count;
                 if !count = 3 then Engine.stop e))
        done;
        Engine.run e;
        check int "stopped at 3" 3 !count);
    test_case "run limit guards runaway" `Quick (fun () ->
        let e = Engine.create () in
        let rec forever () =
          ignore (Engine.after e (Time.of_us 1) (fun () -> forever ()))
        in
        forever ();
        let raised =
          try
            Engine.run ~limit:100 e;
            false
          with Failure _ -> true
        in
        check bool "limited" true raised);
  ]

(* Same-instant ordering under the model checker's scheduler hook:
   whatever index the hook picks, every event fires exactly once at
   its scheduled time, the clock never regresses, and each co-enabled
   batch is presented at one instant in scheduling (seq) order. *)
let scheduler_permutation_property =
  let prop (seed, delays) =
    let e = Engine.create () in
    let fired = ref [] in
    List.iteri
      (fun i d_us ->
        ignore
          (Engine.after e
             (Time.of_us (d_us mod 4))
             (fun () -> fired := (i, Engine.now e) :: !fired)))
      delays;
    let expected =
      List.mapi (fun i d_us -> (i, Time.of_us (d_us mod 4))) delays
    in
    let rng = Rng.create seed in
    let batches_ok = ref true in
    Engine.set_scheduler e (fun batch ->
        let t0 = batch.(0).Engine.c_time in
        let seqs = Array.map (fun c -> c.Engine.c_seq) batch in
        if
          not
            (Array.for_all (fun c -> Time.equal c.Engine.c_time t0) batch)
        then batches_ok := false;
        for i = 1 to Array.length seqs - 1 do
          if seqs.(i - 1) >= seqs.(i) then batches_ok := false
        done;
        Rng.int rng (Array.length batch));
    Engine.run e;
    let fired = List.rev !fired in
    let sort l =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) l
    in
    let monotone =
      let rec go = function
        | (_, a) :: ((_, b) :: _ as rest) -> Time.(a <= b) && go rest
        | _ -> true
      in
      go fired
    in
    !batches_ok && monotone && sort fired = sort expected
  in
  QCheck.Test.make ~name:"seeded scheduler permutes same-instant ties safely"
    ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(int_range 0 12) small_nat))
    prop

let scheduler_tests =
  let open Alcotest in
  [
    test_case "scheduler returning 0 reproduces default order" `Quick
      (fun () ->
        let order_with hook =
          let e = Engine.create () in
          let log = ref [] in
          List.iteri
            (fun i d ->
              ignore
                (Engine.after e (Time.of_us d) (fun () -> log := i :: !log)))
            [ 2; 1; 1; 2; 1; 3; 2 ];
          (match hook with
          | Some f -> Engine.set_scheduler e f
          | None -> ());
          Engine.run e;
          List.rev !log
        in
        check (list int) "identical orders" (order_with None)
          (order_with (Some (fun _ -> 0))));
    test_case "out-of-range scheduler choice falls back to 0" `Quick
      (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 3 do
          ignore (Engine.after e (Time.of_us 1) (fun () -> log := i :: !log))
        done;
        Engine.set_scheduler e (fun _ -> 99);
        Engine.run e;
        check (list int) "default order" [ 1; 2; 3 ] (List.rev !log));
    test_case "clear_scheduler restores default dispatch" `Quick (fun () ->
        let e = Engine.create () in
        let calls = ref 0 in
        ignore (Engine.after e (Time.of_us 1) (fun () -> ()));
        ignore (Engine.after e (Time.of_us 2) (fun () -> ()));
        Engine.set_scheduler e (fun _ ->
            incr calls;
            0);
        ignore (Engine.step e);
        Engine.clear_scheduler e;
        ignore (Engine.step e);
        check int "hook saw only the first step" 1 !calls);
  ]

(* Model-based check of the queue with eager cancellation: random
   [at]/[cancel]/[step]/[run_until] sequences, with and without a
   scheduler hook, against a sorted-list model.  After every operation
   the dispatch log, [pending], [next_time] and [horizon] agree with
   the model, and [pending_fingerprint] equals that of an engine that
   never saw the cancelled events. *)
type op = At of int * int | Cancel of int | Step | Run_until of int

let actors = [| ""; "p"; "b" |]

let pp_op = function
  | At (d, a) -> Printf.sprintf "at+%d/%S" d actors.(a)
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run_until+%d" d

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun d a -> At (d, a)) (int_bound 20) (int_bound 2));
        (2, map (fun k -> Cancel k) (int_bound 30));
        (2, return Step);
        (1, map (fun d -> Run_until d) (int_bound 15));
      ])

(* a pending event as the model sees it *)
type mev = { m_time : int; m_seq : int; m_actor : string }

let model_horizon model ~actor ~lookahead =
  List.fold_left
    (fun acc m ->
      let b =
        if m.m_actor = "" || m.m_actor = actor then m.m_time
        else m.m_time + lookahead
      in
      match acc with Some x when x <= b -> acc | _ -> Some b)
    None model

let fingerprint_of ~now model =
  let e = Engine.create () in
  Engine.run_until e (Time.of_ns now);
  List.iter
    (fun m ->
      ignore
        (Engine.at e ~label:(string_of_int (m.m_time mod 3)) ~actor:m.m_actor
           (Time.of_ns m.m_time) (fun () -> ())))
    model;
  Engine.pending_fingerprint e

let engine_model_property =
  let prop (hooked, ops) =
    let e = Engine.create () in
    let model = ref [] (* pending, any order *) in
    let handles = ref [] (* (handle, seq), newest first *) in
    let next_seq = ref 0 in
    let fired = ref [] and expected = ref [] in
    let picks = ref 0 and batches_ok = ref true in
    (* the model runs ahead of the engine in each operation and queues
       the batches the hook should then be offered *)
    let batches = Queue.create () in
    let sorted () =
      List.sort
        (fun a b -> compare (a.m_time, a.m_seq) (b.m_time, b.m_seq))
        !model
    in
    (* the model's dispatch: the hook picks [picks mod len] of the
       earliest instant's batch, otherwise the batch head *)
    let model_step () =
      match sorted () with
      | [] -> ()
      | first :: _ as all ->
        let batch = List.filter (fun m -> m.m_time = first.m_time) all in
        Queue.add (List.map (fun m -> m.m_seq) batch) batches;
        let m =
          if hooked then List.nth batch (!picks mod List.length batch)
          else first
        in
        model := List.filter (fun x -> x.m_seq <> m.m_seq) !model;
        expected := m.m_seq :: !expected
    in
    if hooked then
      Engine.set_scheduler e (fun batch ->
          if
            Queue.take_opt batches
            <> Some (Array.to_list (Array.map (fun c -> c.Engine.c_seq) batch))
          then batches_ok := false;
          !picks mod Array.length batch);
    let ok = ref true in
    let check_state () =
      let now = Time.to_ns (Engine.now e) in
      let next =
        match sorted () with [] -> None | m :: _ -> Some m.m_time
      in
      let horizons_ok =
        List.for_all
          (fun actor ->
            List.for_all
              (fun la ->
                Option.map Time.to_ns
                  (Engine.horizon e ~actor ~lookahead:(Time.of_ns la))
                = model_horizon !model ~actor ~lookahead:la)
              [ 0; 3; 50 ])
          [ ""; "p"; "b" ]
      in
      if not hooked then Queue.clear batches;
      ok :=
        !ok && !batches_ok && Queue.is_empty batches
        && Engine.pending e = List.length !model
        && Option.map Time.to_ns (Engine.next_time e) = next
        && horizons_ok
        && Engine.pending_fingerprint e = fingerprint_of ~now !model
        && !fired = !expected
    in
    List.iter
      (fun op ->
        (match op with
        | At (d, a) ->
          let time = Time.to_ns (Engine.now e) + d in
          let seq = !next_seq in
          incr next_seq;
          let h =
            Engine.at e ~label:(string_of_int (time mod 3)) ~actor:actors.(a)
              (Time.of_ns time) (fun () -> fired := seq :: !fired)
          in
          handles := (h, seq) :: !handles;
          model := { m_time = time; m_seq = seq; m_actor = actors.(a) } :: !model
        | Cancel k -> (
          match !handles with
          | [] -> ()
          | hs ->
            let h, seq = List.nth hs (k mod List.length hs) in
            Engine.cancel e h;
            model := List.filter (fun m -> m.m_seq <> seq) !model;
            if Engine.is_pending e h then ok := false)
        | Step ->
          let had = !model <> [] in
          model_step ();
          if Engine.step e <> had then ok := false;
          incr picks
        | Run_until d ->
          let deadline = Time.to_ns (Engine.now e) + d in
          let rec drain () =
            match sorted () with
            | m :: _ when m.m_time <= deadline ->
              model_step ();
              drain ()
            | _ -> ()
          in
          drain ();
          Engine.run_until e (Time.of_ns deadline));
        check_state ())
      ops;
    !ok
  in
  QCheck.Test.make ~name:"engine matches a sorted-list model" ~count:300
    QCheck.(
      pair bool
        (make
           ~print:(fun l -> String.concat "; " (List.map pp_op l))
           Gen.(list_size (int_range 0 40) op_gen)))
    prop

let horizon_tests =
  let open Alcotest in
  let la = Time.of_ns 25 in
  let noop () = () in
  let horizon e actor lookahead =
    Option.map Time.to_ns (Engine.horizon e ~actor ~lookahead)
  in
  [
    test_case "own events bound the slice" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.at e ~actor:"p" (Time.of_ns 10) noop);
        ignore (Engine.at e ~actor:"b" (Time.of_ns 50) noop);
        check (option int) "own" (Some 10) (horizon e "p" la));
    test_case "actorless events bound the slice" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.at e (Time.of_ns 20) noop);
        ignore (Engine.at e ~actor:"p" (Time.of_ns 40) noop);
        check (option int) "untagged" (Some 20) (horizon e "p" la));
    test_case "another actor's events bound it at time + lookahead" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore (Engine.at e ~actor:"b" (Time.of_ns 10) noop);
        ignore (Engine.at e ~actor:"p" (Time.of_ns 100) noop);
        check (option int) "other + lookahead" (Some 35) (horizon e "p" la);
        ignore (Engine.at e ~actor:"p" (Time.of_ns 30) noop);
        check (option int) "own earlier still wins" (Some 30)
          (horizon e "p" la));
    test_case "cancelled events are ignored" `Quick (fun () ->
        let e = Engine.create () in
        let h = Engine.at e ~actor:"p" (Time.of_ns 10) noop in
        let g = Engine.at e (Time.of_ns 12) noop in
        ignore (Engine.at e ~actor:"p" (Time.of_ns 40) noop);
        Engine.cancel e h;
        Engine.cancel e g;
        check (option int) "skips both" (Some 40) (horizon e "p" la);
        check int "pending" 1 (Engine.pending e));
    test_case "an empty queue gives None" `Quick (fun () ->
        let e = Engine.create () in
        check (option int) "fresh" None (horizon e "p" la);
        ignore (Engine.at e ~actor:"b" (Time.of_ns 5) noop);
        Engine.run e;
        check (option int) "drained" None (horizon e "p" la));
    test_case "lookahead 0 equals next_time" `Quick (fun () ->
        let e = Engine.create () in
        List.iter
          (fun (t, actor) -> ignore (Engine.at e ~actor (Time.of_ns t) noop))
          [ (30, "b"); (70, "p"); (55, ""); (12, "b"); (90, "x") ];
        let next = Option.map Time.to_ns (Engine.next_time e) in
        List.iter
          (fun actor ->
            check (option int) actor next (horizon e actor Time.zero))
          [ ""; "p"; "b"; "x"; "nobody" ]);
    test_case "an event inside a reserved slice fails the run" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore (Engine.at e ~label:"late" ~actor:"b" (Time.of_ns 10) (fun () ->
            ignore (Engine.at e ~label:"early" ~actor:"p" (Time.of_ns 11) noop)));
        (* p's slice runs to 30: b's event bounds it only at 10 + 25 *)
        Engine.reserve e ~actor:"p" ~lookahead:la (Time.of_ns 30);
        match Engine.run e with
        | () -> fail "dispatched an event inside a reserved slice"
        | exception Failure msg ->
          check bool msg true
            (String.starts_with ~prefix:"Engine: lookahead violation" msg));
    test_case "a reservation stops at the horizon" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref 0 in
        ignore (Engine.at e ~actor:"p" (Time.of_ns 5) (fun () -> incr fired));
        ignore (Engine.at e ~actor:"b" (Time.of_ns 6) (fun () -> incr fired));
        (* a one-instruction minimum ran p to 20, past its own event *)
        Engine.reserve e ~actor:"p" ~lookahead:la (Time.of_ns 20);
        Engine.run e;
        check int "both fired" 2 !fired);
  ]

let () =
  Alcotest.run "hft_sim"
    [
      ("time", time_tests);
      ( "heap",
        heap_tests
        @ [
            QCheck_alcotest.to_alcotest heap_property;
            QCheck_alcotest.to_alcotest heap_remove_property;
          ] );
      ("rng", rng_tests);
      ("engine", engine_tests);
      ( "horizon",
        horizon_tests @ [ QCheck_alcotest.to_alcotest engine_model_property ] );
      ( "scheduler",
        scheduler_tests
        @ [ QCheck_alcotest.to_alcotest scheduler_permutation_property ] );
    ]
