(* Structured random guest programs shared by the property tests:
   richer control flow than straight-line code, still guaranteed to
   terminate.  Programs are sequences of blocks; loops use a dedicated
   counter register pair (r10/r11) and unique labels. *)

open Hft_machine
module Layout = Hft_guest.Layout
module Workload = Hft_guest.Workload

let structured_main_gen =
  let open QCheck.Gen in
  let fresh =
    let n = ref 0 in
    fun () ->
      incr n;
      Printf.sprintf "q%d" !n
  in
  let reg = int_range 1 9 in
  let data = int_range 0x1200 0x15FF in
  let alu_op = oneofl Isa.[ Add; Sub; Mul; Xor; And; Or; Sll; Srl; Slt ] in
  let simple =
    frequency
      [
        ( 5,
          map
            (fun ((op, a), (b, c)) -> [ Asm.insn (Isa.Alu (op, a, b, c)) ])
            (pair (pair alu_op reg) (pair reg reg)) );
        (2, map2 (fun r v -> [ Asm.ldi r v ]) reg (int_range 0 65535));
        (2, map2 (fun r off -> [ Asm.st r 0 off ]) reg data);
        (2, map2 (fun r off -> [ Asm.ld r 0 off ]) reg data);
        (1, map (fun r -> [ Asm.rdtod r ]) reg);
        (1, map (fun r -> [ Asm.out r ]) reg);
        (1, return [ Asm.trapc 1 ]);
      ]
  in
  let loop body_gen =
    map2
      (fun n bodies ->
        let l = fresh () in
        [ Asm.ldi 10 0; Asm.ldi 11 n; Asm.label l ]
        @ List.concat bodies
        @ [ Asm.addi 10 10 1; Asm.blt 10 11 (Asm.lbl l) ])
      (int_range 1 12)
      (list_size (int_range 1 8) body_gen)
  in
  let block = frequency [ (3, simple); (1, loop simple) ] in
  map
    (fun blocks ->
      List.concat blocks @ [ Asm.st 1 0 Layout.res_checksum; Asm.halt ])
    (list_size (int_range 3 25) block)

let workload_of_main ?(name = "structured") main =
  {
    Workload.name;
    description = "random program with loops";
    program = Hft_guest.Kernel.program ~main;
    config = [];
    instructions_per_iteration = 1;
  }
