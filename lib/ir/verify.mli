(** Well-formedness checking for kernels.

    A kernel that passes verification can be interpreted and timed safely.
    Checked properties:
    - every variable used is bound by an enclosing [For], [Let] or is a
      launch index;
    - every buffer accessed is declared (a parameter or a scope buffer of the
      kernel) and accessed with the right rank;
    - [Sync_threads] does not occur under thread-divergent control flow
      (a condition or loop extent mentioning [threadIdx]);
    - MMA operands are declared, of rank >= 2, located by one offset per
      dimension, and their tiles fit inside the trailing dims;
    - block size does not exceed the architectural maximum (1024). *)

type error = { where : string; message : string }

val kernel : Kernel.t -> (unit, error list) result
val kernel_exn : Kernel.t -> unit
(** Raises [Failure] with a readable message listing all errors. *)

val pp_error : Format.formatter -> error -> unit

val block_disjoint_writes : Kernel.t -> bool
(** Conservative static check that distinct blocks of the grid touch
    disjoint global memory, so the simulator may execute blocks on
    concurrent domains and still produce the sequential result:

    - every [Store] to a global buffer (and every MMA accumulator in global
      scope) has at least one index expression tainted by [blockIdx] —
      directly, or through a [Let]-bound variable whose definition is
      tainted ([For]-bound variables are never considered tainted: their
      ranges start at 0 in every block);
    - no global buffer is both written and read by the kernel (a block
      could otherwise observe another block's writes).

    [false] means "could not prove disjointness" — callers must fall back
    to sequential block execution, not that a race necessarily exists. *)
