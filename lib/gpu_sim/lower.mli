(** The one lowering both compiled execution backends consume.

    [kernel] walks a verified [Kernel.t] once and decides everything the
    emitters must agree on: which slot of the per-thread [float array array]
    each buffer occupies, which frame slot each variable occupies, the
    static type of every expression and the coercions between types, and
    the order operands are evaluated in. {!Compile_exec} turns the result
    into closures, {!Exec_ocaml} prints it as OCaml source; both launch
    through {!run}. {!Interp} stays the reference semantics.

    Evaluation order, which decides the error a failing kernel raises:
    - [Load]: every index left to right, then each dimension's bounds
      check left to right, then the read;
    - [Store]: every index left to right, then the value, then the bounds
      checks, then the write;
    - [Arith]/[Cmp]: b, then a (OCaml's order for primitive operands, which
      both emitters apply; int [Min]/[Max] bind b then a explicitly);
    - [Dyn_binop], [Reject]: a, then b;
    - [And]/[Or]/[Select]: short-circuit;
    - [Mma]: lane 0 of each warp only; offsets of a, b, c left to right,
      then {!Exec_registry.mma}. *)

(** {1 The lowered form} *)

(** Static types; [Dyn] is the boxed fallback for expressions whose type
    depends on runtime control flow (a [Select] mixing a bool and a
    number), dispatched exactly like [Expr.eval]. *)
type _ ty =
  | Int : int ty
  | Float : float ty
  | Bool : bool ty
  | Dyn : Hidet_ir.Expr.value ty

type _ num = I : int num | F : float num

type buf = { slot : int; name : string; dims : int array }
(** A buffer resolved to its slot. *)

type _ expr =
  | Int_c : int -> int expr
  | Float_c : float -> float expr
  | Bool_c : bool -> bool expr
  | Tid : int expr
  | Bid : int expr
  | Var : 'a ty * int -> 'a expr  (** frame slot of that type *)
  | Load : buf * int expr array -> float expr
  | Cast : 'a ty * 'b ty * 'a expr -> 'b expr
      (** [Expr.int_of_value] / [float_of_value] / [bool_of_value]
          semantics; never an identity *)
  | Select : bool expr * 'a expr * 'a expr -> 'a expr
  | Not : bool expr -> bool expr
  | And : bool expr * bool expr -> bool expr
  | Or : bool expr * bool expr -> bool expr
  | Neg : 'a num * 'a expr -> 'a expr
  | Abs : 'a num * 'a expr -> 'a expr
  | Math : Hidet_ir.Expr.unop * float expr -> float expr
      (** [Exp], [Log], [Sqrt], [Tanh] or [Erf] *)
  | Arith : 'a num * Hidet_ir.Expr.binop * 'a expr * 'a expr -> 'a expr
      (** [Add] .. [Max] *)
  | Cmp : 'a num * Hidet_ir.Expr.binop * 'a expr * 'a expr -> bool expr
      (** [Lt] .. [Ne] *)
  | Dyn_unop : Hidet_ir.Expr.unop * Hidet_ir.Expr.value expr
      -> Hidet_ir.Expr.value expr  (** [Neg] or [Abs], boxed *)
  | Dyn_binop :
      Hidet_ir.Expr.binop
      * Hidet_ir.Expr.value expr
      * Hidet_ir.Expr.value expr
      -> Hidet_ir.Expr.value expr
  | Reject : packed list * string -> int expr
      (** Evaluate the operands, then raise [Invalid_argument msg]: a bool
          operand where [Expr.eval] wants a number. *)

and packed = E : 'a ty * 'a expr -> packed

(** Every statement but [Seq] adds one to the thread's statement count
    when it starts. *)
type stmt =
  | Seq of stmt list
  | For of int * int expr * stmt  (** int frame slot, extent, body *)
  | If of bool expr * stmt * stmt option
  | Let : 'a ty * int * 'a expr * stmt -> stmt
  | Store of buf * int expr array * float expr
  | Mma of mma
  | Sync
  | Nop  (** a [Comment] *)

and mma = { m : int; n : int; k : int; a : operand; b : operand; c : operand }
and operand = { buf : buf; off : int expr array }  (** one offset per dim *)

(** What a launch needs. It is kept apart from the body so that a
    compiled kernel does not retain the lowered tree. Retained, the tree is
    promoted out of the minor heap interleaved with the closures and
    spreads their hot environments, which measurably slows closure
    execution of kernels compiled per launch. *)
type layout = {
  kernel : Hidet_ir.Kernel.t;
  nbufs : int;
  globals : (int * Hidet_ir.Buffer.t) array;  (** slot of each parameter *)
  shared : (int * Hidet_ir.Buffer.t) array;
  warps : (int * Hidet_ir.Buffer.t) array;
  regs : (int * Hidet_ir.Buffer.t) array;
  frame : int array;  (** frame size per type; see {!frame_size} *)
  has_sync : bool;  (** the body contains a [Sync_threads] *)
  parallel_ok : bool;  (** [Verify.block_disjoint_writes] *)
}

type t = { layout : layout; body : stmt }

val kernel : Hidet_ir.Kernel.t -> t
(** Lower a kernel that passed [Verify.kernel_exn]. Buffers take slots in
    the order params, shared, warp buffers, registers; variables take
    frame slots with stack discipline, so sibling scopes share them.
    Raises [Invalid_argument] on an unbound variable or undeclared buffer
    (which verification rejects). *)

val frame_size : layout -> 'a ty -> int

(** {1 Launch} *)

type compiled = {
  layout : layout;
  entry : Exec_registry.entry;
  backend : string;
}
(** A lowered kernel with the per-thread entry an emitter built for it;
    [backend] names the emitter in the [sim.exec] span. *)

val run :
  ?parallel:bool -> compiled -> (Hidet_ir.Buffer.t * float array) list -> unit
(** Launch: bindings follow the [Interp.run] contract. Per block, shared
    arrays are fresh, warp storage is shared by a warp's threads and
    register arrays are fresh per thread. A kernel with a barrier runs its
    threads as fibers on [Interp]'s barrier machinery (so
    [Barrier_divergence] matches the reference); one without runs them as
    a plain loop. Blocks run on concurrent domains when [parallel]
    (default [true]) and [parallel_ok] hold. Records the [sim.threads],
    [sim.statements], [sim.exec_us] and parallel/sequential block
    metrics and a [sim.exec] span. *)
