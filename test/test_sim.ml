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

let heap_to_list_tests =
  let open Alcotest in
  [
    test_case "to_list is sorted and non-destructive" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        let l = [ 5; 1; 4; 1; 3; 9; 2 ] in
        List.iter (Heap.push h) l;
        check (list int) "sorted snapshot" (List.sort Int.compare l)
          (Heap.to_list h);
        check int "heap untouched" (List.length l) (Heap.length h);
        check (option int) "min still poppable" (Some 1) (Heap.pop h));
    test_case "to_list of empty heap" `Quick (fun () ->
        let h = Heap.create ~cmp:Int.compare in
        check (list int) "empty" [] (Heap.to_list h));
  ]

let heap_to_list_property =
  (* The canonical-order contract the engine fingerprint relies on:
     a snapshot is always ascending, whatever the push order. *)
  let prop l =
    let h = Heap.create ~cmp:Int.compare in
    List.iter (Heap.push h) l;
    Heap.to_list h = List.sort Int.compare l
    && Heap.length h = List.length l
  in
  QCheck.Test.make ~name:"to_list sorted ascending" ~count:200
    QCheck.(list int)
    prop

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

let () =
  Alcotest.run "hft_sim"
    [
      ("time", time_tests);
      ( "heap",
        heap_tests @ heap_to_list_tests
        @ [
            QCheck_alcotest.to_alcotest heap_property;
            QCheck_alcotest.to_alcotest heap_to_list_property;
          ] );
      ("rng", rng_tests);
      ("engine", engine_tests);
      ( "scheduler",
        scheduler_tests
        @ [ QCheck_alcotest.to_alcotest scheduler_permutation_property ] );
    ]
