(* Microsecond timestamps keep three decimals (nanoseconds): finer digits
   are clock noise and would only make trace files bigger. *)
let us x = Json.Num (Float.round (x *. 1000.) /. 1000.)

let event_json ev =
  let open Json in
  let event name track ts_us attrs fields =
    Obj
      ((("name", Str name) :: fields)
      @ [ ("pid", int 1); ("tid", int track); ("ts", us ts_us);
          ("args", Obj (List.map (fun (k, v) -> (k, Str v)) attrs)) ])
  in
  match (ev : Trace.event) with
  | Trace.Span { name; track; ts_us; dur_us; attrs } ->
    event name track ts_us attrs [ ("ph", Str "X"); ("dur", us dur_us) ]
  | Trace.Instant { name; track; ts_us; attrs } ->
    event name track ts_us attrs [ ("ph", Str "i"); ("s", Str "t") ]
  | Trace.Flow { name; track; ts_us; id; dir; attrs } ->
    let ph =
      match dir with
      | Trace.Flow_start -> "s"
      | Trace.Flow_step -> "t"
      | Trace.Flow_end -> "f"
    in
    (* bp:e binds the step/end point to its enclosing slice, which is how
       Perfetto attaches the arrow to the span the point was emitted in. *)
    let bp = match dir with Trace.Flow_start -> [] | _ -> [ ("bp", Str "e") ] in
    event name track ts_us attrs
      (("cat", Str "flow") :: ("ph", Str ph) :: ("id", int id) :: bp)

let to_string events =
  let open Json in
  (* Name the process and each track; track 0 is the calling domain. *)
  let meta name tid label =
    Obj
      [ ("name", Str name); ("ph", Str "M"); ("pid", int 1); ("tid", int tid);
        ("args", Obj [ ("name", Str label) ]) ]
  in
  let tracks = List.sort_uniq compare (List.map Trace.event_track events) in
  Json.to_string
  @@ Obj
       [ ("displayTimeUnit", Str "ms");
         ( "traceEvents",
           Arr
             ((meta "process_name" 0 "hidet"
              :: List.map
                   (fun t ->
                     meta "thread_name" t
                       (if t = 0 then "domain 0 (main)"
                        else Printf.sprintf "domain %d (worker)" t))
                   tracks)
             @ List.map event_json events) ) ]

let save path events =
  Io.write_atomic path (fun oc -> output_string oc (to_string events))

(* --- validation --------------------------------------------------------------- *)

let check text =
  match Json.parse text with
  | Error msg -> Error (Printf.sprintf "not valid JSON (%s)" msg)
  | Ok json -> (
    match Option.bind (Json.member "traceEvents" json) Json.to_arr with
    | None -> Error "no traceEvents array"
    | Some events ->
      let count = ref 0 in
      let rec go = function
        | [] -> Ok !count
        | ev :: rest -> (
          let num field = Option.bind (Json.member field ev) Json.to_num in
          match Option.bind (Json.member "ph" ev) Json.to_str with
          | None -> Error "event without \"ph\""
          | Some "M" -> go rest
          | Some ph -> (
            match Option.bind (Json.member "name" ev) Json.to_str with
            | None -> Error "event without a string name"
            | Some name -> (
              let bad msg = Error (Printf.sprintf "event %S: %s" name msg) in
              match (ph, num "ts", num "dur") with
              | "X", Some ts, Some dur when ts >= 0. && dur >= 0. ->
                Stdlib.incr count;
                go rest
              | "X", Some _, Some _ -> bad "negative ts or dur"
              | "X", _, _ -> bad "missing numeric ts/dur"
              | "i", Some ts, _ when ts >= 0. ->
                Stdlib.incr count;
                go rest
              | "i", _, _ -> bad "missing or negative ts"
              | ("s" | "t" | "f"), Some ts, _ when ts >= 0. -> (
                match num "id" with
                | Some _ ->
                  Stdlib.incr count;
                  go rest
                | None -> bad "flow event without numeric id")
              | ("s" | "t" | "f"), _, _ -> bad "missing or negative ts"
              | ph, _, _ -> bad (Printf.sprintf "unknown phase %S" ph))))
      in
      go events)

let check_file path =
  match Io.read_file path with
  | exception Sys_error msg -> Error msg
  | text -> check text
