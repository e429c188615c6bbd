(* A fixed reference computation that tracks the host's speed.

   On a host shared with other tenants, the speed of unchanged code
   drifts by tens of percent over minutes, far more than a gate can
   allow.  The benchmark therefore times this kernel between batches and
   reports its time metrics scaled by [nominal_s / median kernel time]:
   the time the run would have taken on a host where the kernel takes
   [nominal_s].  The kernel uses only the OCaml standard library, so no
   change to the simulator moves it; its mix (small-record allocation,
   closures, hashing, array stores and a sort) resembles the
   simulator's.  Its arrays are allocated once and it compacts the heap
   after itself, so it leaves the run's peak heap alone. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let nominal_s = 0.04

type event = { key : int; fn : int -> int }

(* Allocated once, so a sample allocates only short-lived small blocks. *)
let table = Hashtbl.create 1024
let mem = Array.make 8192 0
let sorted = Array.make 8192 0

let kernel () =
  Hashtbl.clear table;
  Array.fill mem 0 (Array.length mem) 0;
  let queue = ref [] and acc = ref 0 in
  for i = 1 to 200_000 do
    let e = { key = i; fn = (fun x -> x + i) } in
    Hashtbl.replace table (i land 1023) e;
    if i land 7 = 0 then queue := e :: !queue;
    if i land 255 = 0 then queue := List.filter (fun e -> e.key > i - 2048) !queue;
    let slot = (i * 40503) land 8191 in
    mem.(slot) <- e.fn mem.((i * 2654435761) land 8191);
    match Hashtbl.find_opt table ((i * 31) land 1023) with
    | Some e -> acc := !acc + e.key
    | None -> ()
  done;
  for k = 1 to 8 do
    Array.iteri
      (fun i _ -> sorted.(i) <- (i * k * 2654435761) land 0xFFFFFF)
      sorted;
    Array.sort compare sorted;
    acc := !acc + sorted.(k)
  done;
  !acc + mem.(0)

type t = { mutable samples : float list }

let create () = { samples = [] }

(* Time the kernel on a compacted heap, so it never pays for a leg's
   garbage, and compact again after it, so the next leg starts as if it
   had not run.  Callers sample at fixed points of the batch, never on
   a timer, so the heap's history does not depend on the host's
   speed. *)
let sample t =
  Gc.compact ();
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  t.samples <- float (now_ns () - t0) /. 1e9 :: t.samples;
  Gc.compact ()

let median_s t = Stat.median t.samples
let scale t = nominal_s /. median_s t

(* A measured (value, unit) at the nominal host speed: host time scales,
   rates scale inversely, counts and ratios stay. *)
let normalize t (v, unit) =
  match unit with
  | "s" | "ms" | "us" | "ns" | "s/s" -> (v *. scale t, unit)
  | "1/s" -> (v /. scale t, unit)
  | _ -> (v, unit)
