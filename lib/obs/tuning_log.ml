type outcome = Measured | Infeasible | Rejected

type proposer = Exhaustive | Seed | Mutation | Crossover

type trial = {
  engine : string;
  workload : string;
  index : int;
  config : string;
  outcome : outcome;
  latency : float;
  proposer : proposer;
}

let outcome_to_string = function
  | Measured -> "measured"
  | Infeasible -> "infeasible"
  | Rejected -> "rejected"

let outcome_of_string = function
  | "measured" -> Some Measured
  | "infeasible" -> Some Infeasible
  | "rejected" -> Some Rejected
  | _ -> None

let proposer_to_string = function
  | Exhaustive -> "exhaustive"
  | Seed -> "seed"
  | Mutation -> "mutation"
  | Crossover -> "crossover"

let proposer_of_string = function
  | "exhaustive" -> Some Exhaustive
  | "seed" -> Some Seed
  | "mutation" -> Some Mutation
  | "crossover" -> Some Crossover
  | _ -> None

type sink = { lock : Mutex.t; mutable entries : trial list }

let current : sink option Atomic.t = Atomic.make None
let enabled () = Atomic.get current <> None

let start () =
  Atomic.set current (Some { lock = Mutex.create (); entries = [] })

let record t =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    s.entries <- t :: s.entries;
    Mutex.unlock s.lock

let snapshot s =
  Mutex.lock s.lock;
  let entries = s.entries in
  Mutex.unlock s.lock;
  List.rev entries

let stop () =
  match Atomic.get current with
  | None -> []
  | Some s ->
    Atomic.set current None;
    snapshot s

let trials () =
  match Atomic.get current with None -> [] | Some s -> snapshot s

let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let save_tsv path entries =
  Io.write_atomic path (fun oc ->
      (* The proposer column is appended last so readers of the original
         six-column format keep working unchanged. *)
      output_string oc
        "engine\tworkload\tindex\tconfig\toutcome\tlatency_us\tproposer\n";
      List.iter
        (fun t ->
          Printf.fprintf oc "%s\t%s\t%d\t%s\t%s\t%.3f\t%s\n" (sanitize t.engine)
            (sanitize t.workload) t.index (sanitize t.config)
            (outcome_to_string t.outcome)
            (if t.latency < infinity then t.latency *. 1e6 else -1.)
            (proposer_to_string t.proposer))
        entries)

(* Accepts both the original six-column rows (proposer defaults to
   [Exhaustive] — every pre-proposer trial came from the exhaustive
   enumeration) and the current seven-column rows. *)
let parse_line line =
  let fields = String.split_on_char '\t' line in
  let base engine workload index config outcome latency proposer =
    match
      (int_of_string_opt index, outcome_of_string outcome,
       float_of_string_opt latency)
    with
    | Some index, Some outcome, Some lat_us when index >= 0 ->
      let latency =
        if lat_us < 0. || not (Float.is_finite lat_us) then infinity
        else lat_us /. 1e6
      in
      Some { engine; workload; index; config; outcome; latency; proposer }
    | _ -> None
  in
  match fields with
  | [ engine; workload; index; config; outcome; latency ] ->
    base engine workload index config outcome latency Exhaustive
  | [ engine; workload; index; config; outcome; latency; proposer ] -> (
    match proposer_of_string proposer with
    | Some p -> base engine workload index config outcome latency p
    | None -> None)
  | _ -> None

let load_tsv path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] in
        (try
           while true do
             match parse_line (input_line ic) with
             | Some t -> entries := t :: !entries
             | None -> () (* header, or a corrupt line: skip *)
           done
         with End_of_file -> ());
        Ok (List.rev !entries))
