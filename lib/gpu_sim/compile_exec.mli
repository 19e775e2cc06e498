(** Closure-compiling execution backend for IR kernels.

    {!Interp} walks the statement tree for every thread of every block,
    re-resolving variables through a map and buffers through hash tables at
    each step. This backend takes {!Lower}'s typed, slot-resolved form of
    the kernel and turns it {e once} into closures over a per-thread record:

    - variables live in unboxed frames ([int array] / [float array] /
      [bool array], plus a boxed [Expr.value array] for the [Dyn] type) at
      the slots {!Lower} assigned;
    - buffers are read through the slots {!Lower} assigned in a per-thread
      [float array array] (no [Hashtbl] in the hot loop);
    - [Buffer.flat_index] is strength-reduced to strides, with dedicated
      closures for ranks 1-4 and the reference's per-dimension bounds
      checks;
    - each expression becomes a closure at its static type, so int, float
      and bool arithmetic run unboxed.

    Launch, barriers and the parallel grid are {!Lower.run}'s, shared with
    {!Exec_ocaml}: [Barrier_divergence] and [Invalid_access] semantics stay
    identical to the legacy interpreter, which remains the reference. *)

type compiled = Lower.compiled
(** A kernel compiled to thread programs; reusable across launches. *)

val compile : Hidet_ir.Kernel.t -> compiled
(** Verify ([Verify.kernel_exn], like [Interp.run]) and compile the
    kernel. Records compile wall time in the [sim.compile_us] metric and a
    [sim.compile] trace span. *)

val run_compiled :
  ?parallel:bool ->
  compiled ->
  (Hidet_ir.Buffer.t * float array) list ->
  unit
(** Execute a compiled kernel. [bindings] follow the [Interp.run] contract
    (one array per parameter, mutated in place) and failures raise the same
    exceptions with the same messages. [parallel] (default [true]) permits
    domain-parallel block execution when [layout.parallel_ok] holds. Updates
    the [sim.threads], [sim.statements], [sim.exec_us] metrics and a
    [sim.exec] trace span. *)

val run :
  ?parallel:bool ->
  Hidet_ir.Kernel.t ->
  (Hidet_ir.Buffer.t * float array) list ->
  unit
(** [compile] + [run_compiled]: drop-in replacement for [Interp.run]. *)
