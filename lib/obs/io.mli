(** Whole-file reads and atomic whole-file writes, shared by every module
    that persists an artefact (schedule cache, traces, event logs, flight
    dumps, expositions, tuning logs, BENCH files). *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path write] runs [write] on a fresh temp file beside
    [path] (named [path.tmp.<pid>.<n>], unique per process and per call,
    so concurrent savers never share one) and renames it over [path]. The
    channel is closed whether [write] returns or raises; on any failure the
    temp file is removed, the exception re-raised, and a previous [path]
    is left as it was. *)

val read_file : string -> string
(** The whole file as a string. Raises [Sys_error] when it cannot be
    read. *)
