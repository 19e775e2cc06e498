(* Process-global schedule cache.

   Tuning results are memoized across compilations, engines and models: the
   key is (device name, workload signature), the value records which
   candidate of the (deterministic) enumeration won, plus the tuner stats
   that produced it. Storing the winner's *index* keeps the cache generic
   over candidate types — the caller re-instantiates from its own candidate
   list, and a [space_size] check invalidates entries whose space changed.

   The table is mutex-protected: tuner workers run on separate domains, and
   nothing stops two engines from compiling concurrently. *)

module Trace = Hidet_obs.Trace
module Metrics = Hidet_obs.Metrics

type entry = {
  best_index : int;
  space_size : int;
  trials : int;
  rejected : int;
  simulated_seconds : float;
  best_latency : float;
}

type outcome = Fresh of Tuner.stats | Hit of entry

let magic = "HIDET-SCHEDULE-CACHE"
let version = 1

let table : (string * string, entry) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let hit_count = ref 0
let miss_count = ref 0
let stale_count = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* [find] is a pure lookup: whether a stored entry is actually servable
   (space still matches, winner still instantiates) is only known to
   [tune], so [tune] owns the hit/miss/stale accounting — the raw counters
   below and the [schedule_cache.*] metrics therefore always agree. *)
let find ~device ~key = locked (fun () -> Hashtbl.find_opt table (device, key))

let add ~device ~key entry =
  locked (fun () -> Hashtbl.replace table (device, key) entry)

let clear () =
  locked (fun () ->
      Hashtbl.reset table;
      hit_count := 0;
      miss_count := 0;
      stale_count := 0)

let size () = locked (fun () -> Hashtbl.length table)

let keys_for_device dev =
  locked (fun () ->
      Hashtbl.fold
        (fun (d, key) _ acc -> if d = dev then key :: acc else acc)
        table [])
  |> List.sort compare
let hits () = locked (fun () -> !hit_count)
let misses () = locked (fun () -> !miss_count)
let stale () = locked (fun () -> !stale_count)

(* --- persistence ------------------------------------------------------------

   Line-oriented text: a versioned header, then one tab-separated entry per
   line. Loading tolerates a corrupt file: a bad header rejects the whole
   file (it is some other format, or a future version), while individually
   malformed lines are skipped so one truncated write cannot poison every
   other entry. *)

let header = Printf.sprintf "%s v%d" magic version

let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let save path =
  let entries =
    locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
  in
  let entries = List.sort compare entries in
  Hidet_obs.Io.write_atomic path (fun oc ->
      output_string oc (header ^ "\n");
      List.iter
        (fun ((device, key), e) ->
          Printf.fprintf oc "%s\t%s\t%d\t%d\t%d\t%d\t%.17g\t%.17g\n"
            (sanitize device) (sanitize key) e.best_index e.space_size e.trials
            e.rejected e.simulated_seconds e.best_latency)
        entries)

let parse_line line =
  match String.split_on_char '\t' line with
  | [ device; key; best_index; space_size; trials; rejected; simulated; lat ]
    -> (
    match
      ( int_of_string_opt best_index,
        int_of_string_opt space_size,
        int_of_string_opt trials,
        int_of_string_opt rejected,
        float_of_string_opt simulated,
        float_of_string_opt lat )
    with
    | Some bi, Some ss, Some tr, Some rj, Some sim, Some l
      when bi >= 0 && bi < ss && tr >= 0 && rj >= 0
           (* nan/inf/negative floats parse fine ("nan" is a valid float
              literal) but would poison every aggregate downstream. *)
           && Float.is_finite sim && sim >= 0. && Float.is_finite l
           && l >= 0. ->
      Some
        ( device,
          key,
          {
            best_index = bi;
            space_size = ss;
            trials = tr;
            rejected = rj;
            simulated_seconds = sim;
            best_latency = l;
          } )
    | _ -> None)
  | _ -> None

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Error "empty cache file"
        | first when first <> header ->
          Error
            (Printf.sprintf "bad cache header %S (want %S)" first header)
        | _ ->
          let loaded = ref 0 in
          (try
             while true do
               let line = input_line ic in
               match parse_line line with
               | Some (device, key, e) ->
                 add ~device ~key e;
                 incr loaded
               | None -> () (* corrupt line: skip, keep the rest *)
             done
           with End_of_file -> ());
          Ok !loaded)

(* --- the tuning service ----------------------------------------------------- *)

(* Cache effectiveness, as seen by the tuning service: [hits] were served
   from the cache, [misses] went to the tuner, [stale] looked like hits but
   failed re-instantiation and were retuned (a stale entry also counts as a
   miss — it did cost a full tuning run). *)
let m_hits = Metrics.counter "schedule_cache.hits"
let m_misses = Metrics.counter "schedule_cache.misses"
let m_stale = Metrics.counter "schedule_cache.stale"

let tune ?seconds_per_trial ?parallel ?workers ?engine ?show
    ?(search = Search.Exhaustive) ?fidelity ~device ~key ~candidates ~compile
    () =
  let device_name = device.Hidet_gpu.Device.name in
  (* The search mode is part of the cache key: a guided run's winner is
     only the best of the candidates it measured, so it must never answer
     for (or be overwritten by) the exhaustive oracle. Exhaustive keeps an
     empty suffix, so caches persisted before search modes existed stay
     valid. The fidelity mode is folded in the same way (analytic = empty
     suffix): a cycle-model winner must never answer an analytic lookup. *)
  let fidelity =
    match fidelity with
    | Some f -> f
    | None -> Hidet_gpu.Perf_model.default_fidelity ()
  in
  let key =
    key ^ Search.cache_suffix search
    ^ Hidet_gpu.Perf_model.fidelity_cache_suffix fidelity
  in
  let space_size = List.length candidates in
  (* Returned operators carry the workload key so the native execution
     backend can scope its per-kernel compile memo to this workload. *)
  let tag (compiled : Compiled.t) = { compiled with Compiled.key = Some key } in
  let fresh () =
    locked (fun () -> incr miss_count);
    Metrics.incr m_misses;
    if Trace.enabled () then
      Trace.instant ~attrs:[ ("workload", key) ] "schedule_cache.miss";
    match
      Tuner.tune ?seconds_per_trial ?parallel ?workers ?engine ~key ?show
        ~search ~fidelity ~device ~candidates ~compile ()
    with
    | None -> None
    | Some (cand, compiled, st) ->
      add ~device:device_name ~key
        {
          best_index = st.Tuner.best_index;
          space_size;
          trials = st.Tuner.trials;
          rejected = st.Tuner.rejected;
          simulated_seconds = st.Tuner.simulated_seconds;
          best_latency = st.Tuner.best_latency;
        };
      Some (cand, tag compiled, Fresh st)
  in
  match find ~device:device_name ~key with
  | Some e when e.space_size = space_size && e.best_index < space_size -> (
    let cand = List.nth candidates e.best_index in
    match compile cand with
    | compiled ->
      locked (fun () -> incr hit_count);
      Metrics.incr m_hits;
      if Trace.enabled () then
        Trace.instant ~attrs:[ ("workload", key) ] "schedule_cache.hit";
      Some (cand, tag compiled, Hit e)
    | exception Invalid_argument _ ->
      (* Stale entry (template or space changed underneath the key):
         retune and overwrite. *)
      locked (fun () -> incr stale_count);
      Metrics.incr m_stale;
      if Trace.enabled () then
        Trace.instant ~attrs:[ ("workload", key) ] "schedule_cache.stale";
      fresh ())
  | Some _ ->
    (* space changed: the stored index is meaningless *)
    locked (fun () -> incr stale_count);
    Metrics.incr m_stale;
    if Trace.enabled () then
      Trace.instant ~attrs:[ ("workload", key) ] "schedule_cache.stale";
    fresh ()
  | None -> fresh ()
