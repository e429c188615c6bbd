(* Emits an image that never halts: a bare counting loop.  The
   [profile --limit] and [lint --manifest] rules feed it to the CLI to
   pin that both drives stop after a bounded number of retired
   instructions. *)

let () =
  let open Hft_machine in
  print_string
    (Image.to_string
       Asm.(assemble [ ldi r1 0; label "spin"; addi r1 r1 1; jmp (lbl "spin") ]))
