(** Native codegen backend: kernel IR → OCaml source → [ocamlopt -shared]
    → [Dynlink].

    The second emitter of {!Lower}'s form, next to the closure compiler
    ({!Compile_exec}). Each lowered kernel is printed as a self-contained
    OCaml unit — frame slots become let-bound names, buffer slots become
    locals bound once per thread, dimensions become literals, every access
    runs the reference's per-dimension bounds checks before an unsafe read
    or write, and int/float/bool arithmetic is type-specialized with no
    per-statement dispatch — then compiled with [ocamlfind ocamlopt
    -shared], loaded with [Dynlink.loadfile_private], and claimed through
    {!Exec_registry}. It launches through {!Lower.run}, like the closures.

    Results, statement counts and raised errors are bit-identical to
    {!Compile_exec} (property-tested in [test_exec_ocaml] and cross-checked
    by the fuzzer's [native] path); only the execution model differs.

    Compiled units are memoized per process on the generated source digest,
    optionally prefixed by the schedule-cache workload key ([?key]), so a
    kernel pays ocamlopt + dynlink once and every later launch reuses the
    loaded entry point. Generated files live in a per-process directory
    under the temp dir, removed at exit.

    The backend degrades, never fails, when the toolchain is missing:
    {!available} probes once per process (native [Dynlink], [ocamlfind] on
    [PATH], the dune build tree's [.cmi] directories, and an end-to-end
    smoke compile+load) and callers such as [Compiled.run] fall back to the
    closure backend with the reason logged. *)

type compiled

val available : unit -> (unit, string) result
(** Probe the toolchain once per process; [Error reason] when native
    compilation cannot work here (bytecode host, no [ocamlfind], not
    running from a dune build tree, or the smoke compile failed). *)

val source : Hidet_ir.Kernel.t -> string
(** The generated unit body (without the registration trailer) — for
    debugging and golden tests. Does not require the toolchain. *)

val compile : ?key:string -> Hidet_ir.Kernel.t -> compiled
(** Verify, codegen, and compile+load (memoized on [?key] plus the source
    digest). Raises [Failure] when {!available} is an [Error] or the
    toolchain misbehaves — callers wanting graceful degradation check
    {!available} first. *)

val run_compiled :
  ?parallel:bool -> compiled -> (Hidet_ir.Buffer.t * float array) list -> unit
(** {!Lower.run}: the same launch, metrics and span as
    [Compile_exec.run_compiled]. *)

val run :
  ?parallel:bool ->
  ?key:string ->
  Hidet_ir.Kernel.t ->
  (Hidet_ir.Buffer.t * float array) list ->
  unit
(** [compile] + [run_compiled]. *)
