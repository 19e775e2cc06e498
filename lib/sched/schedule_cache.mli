(** Process-global, cross-compilation schedule cache.

    Tuning once per distinct [(device, workload)] pair and reusing the
    winner across models, engines and repeated benchmark runs is what makes
    the "tune within one minute" claim hold at the application level: a
    ResNet re-compile, or a second model sharing matmul shapes, performs
    zero fresh trials. Entries store the winning candidate's {e index} into
    the deterministic space enumeration (plus the tuner stats), so the cache
    is generic over candidate types; a [space_size] mismatch or a winner
    that no longer instantiates invalidates the entry and retunes.

    All operations are safe to call from any domain (mutex-protected). *)

type entry = {
  best_index : int;  (** winner's index in the candidate enumeration *)
  space_size : int;  (** length of the enumeration when tuned *)
  trials : int;
  rejected : int;
  simulated_seconds : float;
  best_latency : float;
}

type outcome =
  | Fresh of Tuner.stats  (** this call ran the tuner *)
  | Hit of entry  (** served from the cache; only the winner was compiled *)

(** {1 The tuning service} *)

val tune :
  ?seconds_per_trial:float ->
  ?parallel:bool ->
  ?workers:int ->
  ?engine:string ->
  ?show:('a -> string) ->
  ?search:'a Search.t ->
  ?fidelity:Hidet_gpu.Perf_model.fidelity ->
  device:Hidet_gpu.Device.t ->
  key:string ->
  candidates:'a list ->
  compile:('a -> Compiled.t) ->
  unit ->
  ('a * Compiled.t * outcome) option
(** Like {!Tuner.tune}, but consults the cache first. On a hit, only the
    stored winner is re-instantiated (zero fresh trials); on a miss (or a
    stale entry) the tuner runs and its result is stored. [key] must
    identify the workload {e and} any restriction applied to [candidates]
    (the device name is added automatically). [?search] (default
    {!Search.Exhaustive}) is forwarded to the tuner {e and} folded into
    the cache key via {!Search.cache_suffix}, so guided and exhaustive
    results never alias — and the exhaustive suffix is empty, so caches
    persisted before search modes existed remain valid. [?engine] and
    [?show] are forwarded to the tuner's trace spans and tuning-log
    records; each call also bumps the
    ["schedule_cache.hits"/"misses"/"stale"] metrics and, when tracing,
    drops a matching instant event. *)

(** {1 Direct cache access} *)

val find : device:string -> key:string -> entry option
(** Pure lookup — no hit/miss accounting. Only {!tune} can tell a genuine
    hit from a stale entry, so {!tune} owns the counters below. *)

val add : device:string -> key:string -> entry -> unit
val clear : unit -> unit
val size : unit -> int

val keys_for_device : string -> string list
(** Sorted workload keys cached for one device name. Cache entries are
    keyed by (device, workload), so devices with different capabilities
    never share entries; the shard test suite uses this to assert the
    per-device key sets stay disjoint across a heterogeneous cluster. *)

val hits : unit -> int
(** {!tune} calls served entirely from the table since the last {!clear}
    (always equal to the ["schedule_cache.hits"] metric delta). *)

val misses : unit -> int
(** {!tune} calls that ran the tuner. A stale lookup counts here too — it
    cost a full tuning run — and additionally in {!stale}. *)

val stale : unit -> int
(** {!tune} calls whose stored entry looked like a hit but was judged
    stale (space changed, or the winner no longer instantiates). *)

(** {1 Persistence}

    A versioned, line-oriented text format for warm-starting across
    processes ([bench/main.exe --cache], [hidetc --cache]). *)

val save : string -> unit
(** Write the whole cache to [path] through {!Hidet_obs.Io.write_atomic}
    (a temp file unique per process and call, then a rename). *)

val load : string -> (int, string) result
(** Merge entries from [path] into the cache; returns how many loaded.
    [Error] on an unreadable file or a wrong header (foreign file, or a
    different format version); individually corrupt lines are skipped. *)
