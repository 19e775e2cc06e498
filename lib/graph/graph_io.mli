(** Textual serialization of computation graphs (the "HGF" format): the
    reproduction's analog of the paper's ONNX model import (step 1 of its
    Fig. 10). A graph round-trips through a small s-expression format:

    {v
    (graph "resnet50"
      (node 0 (input) (shape 1 3 224 224))
      (node 1 (constant random) (shape 64 3 7 7))
      (node 2 (conv2d 2 3 3) (inputs 0 1) (shape 1 64 112 112))
      ...
      (outputs 2))
    v}

    Constant tensors with at most {!inline_data_threshold} elements are
    serialized with their values (so small graphs round-trip exactly);
    larger weights are stored as [random] placeholders and rematerialize as
    deterministic pseudo-random tensors of the recorded shape on load —
    fine for latency work, where only shapes matter (DESIGN.md §3). *)

val inline_data_threshold : int

val to_string : Graph.t -> string
val of_string : string -> Graph.t
(** Raises [Failure] with a position-annotated message on malformed input. *)

val save : Graph.t -> string -> unit
(** [save g path] writes {!to_string} through {!Hidet_obs.Io.write_atomic}. *)

val load : string -> Graph.t
