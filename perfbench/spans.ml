(* In-memory spans recorded by the benchmark around its calls into the
   compiler's public functions, and their fold into self time per layer.

   The benchmark is single-domain, so spans nest strictly: a span's parent
   is whichever span was open when it started, and its self time is its
   duration minus the durations of its direct children. Spans are kept in
   memory and only read back when the run ends. *)

type t = {
  idx : int;
  parent : int option;
  layer : string;  (** the library the call enters: graph, sched, serve, ... *)
  name : string;  (** the public function called, e.g. [Pool.execute] *)
  id : string;  (** spans of one compile or one batch share this *)
  start : float;
  stop : float;
}

let on = ref false
let recorded : t list ref = ref []
let open_stack : int list ref = ref []
let next = ref 0

let dur s = s.stop -. s.start

(* [record ~layer ~id name f] runs [f] inside a span when recording is on;
   otherwise it just runs [f]. *)
let record ~layer ~id name f =
  if not !on then f ()
  else begin
    let idx = !next in
    incr next;
    let parent = match !open_stack with p :: _ -> Some p | [] -> None in
    open_stack := idx :: !open_stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        open_stack := List.tl !open_stack;
        recorded := { idx; parent; layer; name; id; start; stop } :: !recorded)
      f
  end

let all () = List.rev !recorded

(* Self time of every span (its duration minus what its direct children
   cover), folded by [layer, name]: [(layer, name, self seconds, spans,
   distinct ids)], in first-seen order. *)
let rollup () =
  let spans = all () in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        Hashtbl.replace child_time p
          (dur s +. Option.value (Hashtbl.find_opt child_time p) ~default:0.)
      | None -> ())
    spans;
  let rows = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let own = dur s -. Option.value (Hashtbl.find_opt child_time s.idx) ~default:0. in
      let key = (s.layer, s.name) in
      let self, n, ids =
        match Hashtbl.find_opt rows key with
        | Some r -> r
        | None ->
          order := key :: !order;
          (0., 0, Hashtbl.create 16)
      in
      Hashtbl.replace ids s.id ();
      Hashtbl.replace rows key (self +. own, n + 1, ids))
    spans;
  List.rev_map
    (fun ((layer, name) as key) ->
      let self, n, ids = Hashtbl.find rows key in
      (layer, name, self, n, Hashtbl.length ids))
    !order

(* Seconds of top-level span time: the part of the traced wall that some
   span covers. *)
let covered () =
  List.fold_left
    (fun acc s -> if s.parent = None then acc +. dur s else acc)
    0. (all ())
