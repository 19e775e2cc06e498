(* Validates the committed BENCH_*.json files named on the command line:
   each must parse, carry the shared envelope (experiment matching its file
   name, quick = false for the committed full-mode runs, cores > 0, a gate
   list) and record every gate as passed. A hand edit that breaks the
   format, or a file left stale from an older writer, fails `dune runtest`.

   Usage: bench_files.exe BENCH_interp.json BENCH_serve.json ... *)

module J = Hidet_obs.Json

let check path =
  let json =
    match J.parse (Hidet_obs.Io.read_file path) with
    | Ok j -> j
    | Error e -> failwith ("not valid JSON: " ^ e)
  in
  let field k =
    match J.member k json with
    | Some v -> v
    | None -> failwith (Printf.sprintf "missing envelope key %S" k)
  in
  let expected = Filename.chop_suffix (Filename.basename path) ".json" in
  (match field "experiment" with
  | J.Str e when "BENCH_" ^ e = expected -> ()
  | _ -> failwith ("experiment does not match the file name " ^ expected));
  if field "quick" <> J.Bool false then
    failwith "quick is not false (committed files are full-mode runs)";
  (match field "cores" with
  | J.Num n when n > 0. -> ()
  | _ -> failwith "cores is not a positive number");
  match field "gates" with
  | J.Arr gates ->
    List.iter
      (fun g ->
        List.iter
          (fun k ->
            if J.member k g = None then
              failwith (Printf.sprintf "a gate lacks %S" k))
          [ "name"; "value"; "bound" ];
        if J.member "ok" g <> Some (J.Bool true) then
          failwith
            (Printf.sprintf "gate %s did not pass"
               (J.to_string (Option.value (J.member "name" g) ~default:J.Null))))
      gates;
    List.length gates
  | _ -> failwith "gates is not an array"

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then (
    prerr_endline "bench_files: no BENCH files given";
    exit 1);
  List.iter
    (fun path ->
      match check path with
      | n -> Printf.printf "%s: ok (%d gates)\n" (Filename.basename path) n
      | exception (Failure msg | Sys_error msg) ->
        Printf.eprintf "%s: %s\n" path msg;
        exit 1)
    paths
