type attr = string * string
type flow_dir = Flow_start | Flow_step | Flow_end

type event =
  | Span of {
      name : string;
      track : int;
      ts_us : float;
      dur_us : float;
      attrs : attr list;
    }
  | Instant of { name : string; track : int; ts_us : float; attrs : attr list }
  | Flow of {
      name : string;
      track : int;
      ts_us : float;
      id : int;
      dir : flow_dir;
      attrs : attr list;
    }

let event_track = function
  | Span s -> s.track
  | Instant i -> i.track
  | Flow f -> f.track

let event_ts = function Span s -> s.ts_us | Instant i -> i.ts_us | Flow f -> f.ts_us
let event_dur = function Span s -> s.dur_us | Instant _ | Flow _ -> 0.

(* --- recorders --------------------------------------------------------------- *)

type buf = { lock : Mutex.t; mutable evs : event list }
type recorder = Noop | Collect of buf

let current : recorder Atomic.t = Atomic.make Noop
let enabled () = Atomic.get current != Noop

let record buf ev =
  Mutex.lock buf.lock;
  buf.evs <- ev :: buf.evs;
  Mutex.unlock buf.lock

let events = function
  | Noop -> []
  | Collect b ->
    Mutex.lock b.lock;
    let evs = b.evs in
    Mutex.unlock b.lock;
    (* Start-time order; a parent shares its child's start only if it opened
       first, so break ties toward the longer span to keep parents ahead. *)
    List.stable_sort
      (fun a b ->
        match Float.compare (event_ts a) (event_ts b) with
        | 0 -> Float.compare (event_dur b) (event_dur a)
        | c -> c)
      (List.rev evs)

(* --- tracks -------------------------------------------------------------------

   One track per live domain, assigned from a free list on the domain's
   first event and released at domain exit. Short-lived tuner workers from
   successive [Parallel.map] calls therefore reuse tracks 1..w instead of
   each new domain opening a fresh track; the main domain holds track 0. *)

let track_lock = Mutex.create ()
let tracks_in_use : (int, unit) Hashtbl.t = Hashtbl.create 16

let acquire_track () =
  Mutex.lock track_lock;
  let rec free i = if Hashtbl.mem tracks_in_use i then free (i + 1) else i in
  let t = free 0 in
  Hashtbl.replace tracks_in_use t ();
  Mutex.unlock track_lock;
  t

let release_track t =
  Mutex.lock track_lock;
  Hashtbl.remove tracks_in_use t;
  Mutex.unlock track_lock

let track_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let track () =
  let t = Domain.DLS.get track_key in
  if t >= 0 then t
  else begin
    let t = acquire_track () in
    Domain.DLS.set track_key t;
    Domain.at_exit (fun () -> release_track t);
    t
  end

(* --- spans -------------------------------------------------------------------- *)

type span =
  | Null
  | Open of {
      name : string;
      track : int;
      ts : float;
      mutable attrs : attr list;  (** reversed *)
      buf : buf;
    }

let enter ?(attrs = []) name =
  match Atomic.get current with
  | Noop -> Null
  | Collect buf ->
    Open { name; track = track (); ts = Clock.now_us (); attrs = List.rev attrs; buf }

let add sp key value =
  match sp with Null -> () | Open o -> o.attrs <- (key, value) :: o.attrs

let exit sp =
  match sp with
  | Null -> ()
  | Open o ->
    let dur = Float.max 0. (Clock.now_us () -. o.ts) in
    record o.buf
      (Span
         {
           name = o.name;
           track = o.track;
           ts_us = o.ts;
           dur_us = dur;
           attrs = List.rev o.attrs;
         })

let span ?attrs name f =
  if not (enabled ()) then f Null
  else begin
    let attrs = match attrs with None -> [] | Some thunk -> thunk () in
    let sp = enter ~attrs name in
    match f sp with
    | v ->
      exit sp;
      v
    | exception e ->
      add sp "error" (Printexc.to_string e);
      exit sp;
      raise e
  end

let instant ?(attrs = []) name =
  match Atomic.get current with
  | Noop -> ()
  | Collect buf ->
    record buf (Instant { name; track = track (); ts_us = Clock.now_us (); attrs })

let flow ?(attrs = []) ~id ~dir name =
  match Atomic.get current with
  | Noop -> ()
  | Collect buf ->
    record buf (Flow { name; track = track (); ts_us = Clock.now_us (); id; dir; attrs })

let with_collector f =
  let r = Collect { lock = Mutex.create (); evs = [] } in
  let prev = Atomic.get current in
  Atomic.set current r;
  let v = Fun.protect ~finally:(fun () -> Atomic.set current prev) f in
  (v, events r)
