(** Runtime support shared by the two {!Lower} emitters.

    {!Exec_ocaml} prints each kernel to an OCaml unit whose toplevel effect
    is one {!register} call, compiles it with [ocamlopt -shared] and
    [Dynlink]s it; the loaded unit hands its entry point back through the
    table here. The rest is the runtime both emitters call into — the
    closures of {!Compile_exec} directly, the generated source through one
    module reference: the barrier effect, the bounds-check raiser, the MMA
    tile loop, and [Expr.eval]'s dynamic dispatch for the boxed [Dyn] type.
    [value] and [binop] re-export [Expr]'s constructors so generated source
    can name them. *)

type entry = int -> int -> float array array -> int
(** [entry tid bid bufs] runs one thread and returns the number of
    statements it executed. [bufs] is indexed by {!Lower}'s buffer slots. *)

val register : string -> entry -> unit
(** Called by the generated unit's toplevel [let () = ...] under the unit's
    own (unique) module name. *)

val take : string -> entry option
(** Claim and remove a registered entry; [None] if the unit never ran its
    registration (a codegen or link bug). *)

(** {1 Runtime support} *)

val sync : unit -> unit
(** Perform {!Interp.Sync} — the block barrier. *)

val warp_size : int

val oob : int -> int -> string -> 'a
(** [oob index dim buffer_name]: [Interp.Invalid_access] with
    [Buffer.flat_index]'s exact message. *)

val neg_bool : string
val abs_bool : string
val bool_binop : string
(** [Expr.eval]'s [Invalid_argument] messages for bool operands. *)

val erf : float -> float

val mma :
  int -> int -> int ->
  float array -> int array -> string -> int array ->
  float array -> int array -> string -> int array ->
  float array -> int array -> string -> int array ->
  unit
(** [mma m n k a a_dims a_name a_off b ... c ...]: [c += a * b] on the
    [m x n] tile of [c] (the [m x k] tile of [a], the [k x n] tile of [b])
    located by one offset per dimension. Leading-dim checks run c, b, a;
    then per element the trailing-dim checks of c, b, a. The caller gates
    on lane 0 and evaluates the offsets (a, b, c). *)

(** {1 Dynamic dispatch for the boxed type} *)

type value = Hidet_ir.Expr.value =
  | V_int of int
  | V_float of float
  | V_bool of bool

type binop = Hidet_ir.Expr.binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Min
  | Max
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

val int_of_value : value -> int
val float_of_value : value -> float
val bool_of_value : value -> bool
val dyn_neg : value -> value
val dyn_abs : value -> value

val dyn_binop : binop -> value -> value -> value
(** An arithmetic or comparison binop ([And]/[Or] short-circuit before
    reaching here): int×int via [Expr.eval_int_binop], a numeric mix via
    [Expr.eval_float_binop], bool operands rejected. *)
