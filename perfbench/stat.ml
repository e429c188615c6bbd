(* Order statistics and the JSON the benchmark prints. *)

let sorted l = List.sort compare l

(* Nearest-rank quantile: the smallest sample with at least a [q]
   share of the samples at or below it. *)
let quantile q l =
  match sorted l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (q *. float n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median l =
  match sorted l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean l =
  match l with [] -> nan | _ -> List.fold_left ( +. ) 0. l /. float (List.length l)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

(* One result object: [metrics] maps a name to (value, unit). *)
let result_json ~attempted ~failed ~errors ~extra metrics =
  let kv =
    List.map
      (fun (name, (v, u)) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_float v) (json_string u))
      metrics
  in
  Printf.sprintf
    "{\"attempted\": %d, \"failed\": %d, \"errors\": [%s], %s\"metrics\": {%s}}"
    attempted failed
    (String.concat ", " (List.map json_string errors))
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf "%s: %s, " (json_string k) v) extra))
    (String.concat ", " kv)
