(* Lints a copy of an image whose file name contains a tab, once with
   [--json -] and once with [--sarif -], and fails unless both documents
   escape every string (no raw byte below 0x20 between quotes, which
   strict JSON parsers reject) and the image title round-trips through
   [Hft_obs.Json.parse].

   Usage: json_strings.exe HFTSIM IMAGE *)

let raw_control_in_string doc =
  let in_string = ref false and escaped = ref false and bad = ref false in
  String.iter
    (fun c ->
      if not !in_string then in_string := c = '"'
      else if !escaped then escaped := false
      else if c = '\\' then escaped := true
      else if c = '"' then in_string := false
      else if Char.code c < 0x20 then bad := true)
    doc;
  !bad

let () =
  let hftsim = Sys.argv.(1) and image = Sys.argv.(2) in
  let path = Filename.temp_file "tab\tname" ".img" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (In_channel.with_open_bin image In_channel.input_all));
  let check flag title =
    let out = Filename.temp_file "lint" ".json" in
    let rc =
      Sys.command
        (Filename.quote_command hftsim
           [ "lint"; "--image"; path; flag; "-" ]
           ~stdout:out)
    in
    let doc = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove out;
    if rc <> 0 then failwith (Printf.sprintf "lint %s exited %d" flag rc);
    if raw_control_in_string doc then
      failwith (flag ^ ": raw control character inside a JSON string");
    match Hft_obs.Json.parse doc with
    | Error e -> failwith (flag ^ ": " ^ e)
    | Ok j ->
      if title j <> Some path then
        failwith (flag ^ ": the image title does not round-trip")
  in
  let open Hft_obs.Json in
  let ( >>= ) = Option.bind in
  let nth0 j = to_list_opt j >>= fun l -> List.nth_opt l 0 in
  check "--json" (fun j ->
      member "images" j >>= nth0 >>= member "title" >>= to_string_opt);
  check "--sarif" (fun j ->
      member "runs" j >>= nth0 >>= member "results" >>= nth0
      >>= member "locations" >>= nth0
      >>= member "physicalLocation"
      >>= member "artifactLocation" >>= member "uri" >>= to_string_opt);
  Sys.remove path
