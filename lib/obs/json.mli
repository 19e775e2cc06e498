(** JSON values: the one printer and the one parser behind every JSON
    artefact the repository writes or reads (Chrome traces, lifecycle
    event logs, flight dumps, [hidetc serve --out], the BENCH files).

    No JSON library is among the repository's allowed dependencies, so both
    directions are self-contained: {!to_string} prints a {!t} in a compact
    (one line, for JSONL and traces) or an indented (for files people read)
    layout, and {!parse} is a strict recursive-descent parser (objects,
    arrays, strings with escapes, numbers, booleans, null). Printing then
    parsing gives the value back, with [nan] read back as [Null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Print [v]. Compact by default: one line, no whitespace at all. With
    [~indent:true] a value stays on one line (with a space after each [,]
    and [:]) while that line fits in 80 columns; a wider array or object
    puts each element on its own line, indented two spaces deeper. No
    trailing newline. Strings escape quote, backslash and every byte below
    0x20; other bytes pass through as they are. Numbers print as
    {!format_float}. *)

val format_float : float -> string
(** The one place floats are decided: integers below 1e15 print without a
    fraction, other finite values as the shortest of [%.12g] and [%.17g]
    that re-parses to the same double; [nan] prints as [null] and [±inf] as
    [±1e999] (which parses back to [±inf]). *)

val int : int -> t
(** [Num (float_of_int n)]. *)

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. The error
    string includes the offending byte offset. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing fields or non-objects. *)

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
