open Hidet_ir
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace
module Int_map = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* The lowered form                                                   *)
(* ------------------------------------------------------------------ *)

type _ ty =
  | Int : int ty
  | Float : float ty
  | Bool : bool ty
  | Dyn : Expr.value ty

type _ num = I : int num | F : float num
type buf = { slot : int; name : string; dims : int array }

type _ expr =
  | Int_c : int -> int expr
  | Float_c : float -> float expr
  | Bool_c : bool -> bool expr
  | Tid : int expr
  | Bid : int expr
  | Var : 'a ty * int -> 'a expr
  | Load : buf * int expr array -> float expr
  | Cast : 'a ty * 'b ty * 'a expr -> 'b expr
  | Select : bool expr * 'a expr * 'a expr -> 'a expr
  | Not : bool expr -> bool expr
  | And : bool expr * bool expr -> bool expr
  | Or : bool expr * bool expr -> bool expr
  | Neg : 'a num * 'a expr -> 'a expr
  | Abs : 'a num * 'a expr -> 'a expr
  | Math : Expr.unop * float expr -> float expr
  | Arith : 'a num * Expr.binop * 'a expr * 'a expr -> 'a expr
  | Cmp : 'a num * Expr.binop * 'a expr * 'a expr -> bool expr
  | Dyn_unop : Expr.unop * Expr.value expr -> Expr.value expr
  | Dyn_binop :
      Expr.binop * Expr.value expr * Expr.value expr
      -> Expr.value expr
  | Reject : packed list * string -> int expr

and packed = E : 'a ty * 'a expr -> packed

type stmt =
  | Seq of stmt list
  | For of int * int expr * stmt
  | If of bool expr * stmt * stmt option
  | Let : 'a ty * int * 'a expr * stmt -> stmt
  | Store of buf * int expr array * float expr
  | Mma of mma
  | Sync
  | Nop

and mma = { m : int; n : int; k : int; a : operand; b : operand; c : operand }
and operand = { buf : buf; off : int expr array }

type layout = {
  kernel : Kernel.t;
  nbufs : int;
  globals : (int * Buffer.t) array;
  shared : (int * Buffer.t) array;
  warps : (int * Buffer.t) array;
  regs : (int * Buffer.t) array;
  frame : int array;
  has_sync : bool;
  parallel_ok : bool;
}

type t = { layout : layout; body : stmt }

let ty_index : type a. a ty -> int = function
  | Int -> 0
  | Float -> 1
  | Bool -> 2
  | Dyn -> 3

let frame_size l ty = l.frame.(ty_index ty)

(* ------------------------------------------------------------------ *)
(* Lowering                                                           *)
(* ------------------------------------------------------------------ *)

(* Frame slots are allocated with stack discipline while walking the
   statement tree: sibling scopes reuse the same slots, and the high-water
   mark per type gives the frame size. *)
type state = {
  bufs : (int, buf) Hashtbl.t;  (** Buffer.id -> resolved buffer *)
  next : int array;
  high : int array;
}

let push st ty =
  let i = ty_index ty in
  let s = st.next.(i) in
  st.next.(i) <- s + 1;
  st.high.(i) <- max st.high.(i) (s + 1);
  s

let pop st ty =
  let i = ty_index ty in
  st.next.(i) <- st.next.(i) - 1

let unverified what = invalid_arg ("Lower.kernel: unverified kernel: " ^ what)

let buf st (b : Buffer.t) =
  match Hashtbl.find_opt st.bufs b.Buffer.id with
  | Some r -> r
  | None -> unverified ("undeclared buffer " ^ b.Buffer.name)

let cast : type a b. a ty -> b ty -> a expr -> b expr =
 fun src dst e ->
  match (src, dst) with
  | Int, Int -> e
  | Float, Float -> e
  | Bool, Bool -> e
  | Dyn, Dyn -> e
  | _ -> Cast (src, dst, e)

let coerce : type a. a ty -> packed -> a expr =
 fun dst (E (src, e)) -> cast src dst e

let is_cmp = function
  | Expr.Lt | Le | Gt | Ge | Eq | Ne -> true
  | _ -> false

(* Static typing: literals, launch indices and loop variables are ints,
   loads are floats, comparisons and logic are bools. A [Select] keeps an
   int or bool type when both branches have it and promotes an int/float
   mix to float; otherwise (a bool meeting a number, or a [Dyn] branch) its
   type depends on runtime control flow, so it is the boxed [Dyn]. Arithmetic
   follows the same promotion, stays [Dyn] on a [Dyn] operand, and rejects
   a bool operand at runtime, like [Expr.eval]. *)
let rec expr st env (e : Expr.t) : packed =
  match e with
  | Expr.Int n -> E (Int, Int_c n)
  | Float f -> E (Float, Float_c f)
  | Bool b -> E (Bool, Bool_c b)
  | Thread_idx -> E (Int, Tid)
  | Block_idx -> E (Int, Bid)
  | Var v -> (
    match Int_map.find_opt v.Var.id env with
    | Some p -> p
    | None -> unverified ("unbound variable " ^ Var.name v))
  | Load (b, idx) -> E (Float, Load (buf st b, index st env idx))
  | Select (c, a, b) -> (
    let c = coerce Bool (expr st env c) in
    let xa = expr st env a and xb = expr st env b in
    let sel ty = E (ty, Select (c, coerce ty xa, coerce ty xb)) in
    match (xa, xb) with
    | E (Int, _), E (Int, _) -> sel Int
    | E (Bool, _), E (Bool, _) -> sel Bool
    | E ((Int | Float), _), E ((Int | Float), _) -> sel Float
    | _ -> sel Dyn)
  | Unop (Not, a) -> E (Bool, Not (coerce Bool (expr st env a)))
  | Unop (((Neg | Abs) as op), a) -> (
    let mk k x = if op = Neg then Neg (k, x) else Abs (k, x) in
    match expr st env a with
    | E (Int, x) -> E (Int, mk I x)
    | E (Float, x) -> E (Float, mk F x)
    | E (Dyn, x) -> E (Dyn, Dyn_unop (op, x))
    | E (Bool, _) as x ->
      E (Int, Reject ([ x ], if op = Neg then Exec_registry.neg_bool
                             else Exec_registry.abs_bool)))
  | Unop (op, a) -> E (Float, Math (op, coerce Float (expr st env a)))
  | Binop (((And | Or) as op), a, b) ->
    let a = coerce Bool (expr st env a) and b = coerce Bool (expr st env b) in
    E (Bool, if op = And then And (a, b) else Or (a, b))
  | Binop (op, a, b) -> (
    let xa = expr st env a and xb = expr st env b in
    let num ty k =
      let a = coerce ty xa and b = coerce ty xb in
      if is_cmp op then E (Bool, Cmp (k, op, a, b))
      else E (ty, Arith (k, op, a, b))
    in
    match (xa, xb) with
    | E (Dyn, _), _ | _, E (Dyn, _) ->
      E (Dyn, Dyn_binop (op, coerce Dyn xa, coerce Dyn xb))
    | E (Bool, _), _ | _, E (Bool, _) ->
      E (Int, Reject ([ xa; xb ], Exec_registry.bool_binop))
    | E (Int, _), E (Int, _) -> num Int I
    | _ -> num Float F)

and index st env idx =
  Array.of_list (List.map (fun i -> coerce Int (expr st env i)) idx)

let rec stmt st env (s : Stmt.t) : stmt =
  match s with
  | Stmt.Seq ss -> Seq (List.map (stmt st env) ss)
  | For { var; extent; body; _ } ->
    let extent = coerce Int (expr st env extent) in
    let slot, body = bind st env Int var body in
    For (slot, extent, body)
  | If { cond; then_; else_ } ->
    let cond = coerce Bool (expr st env cond) in
    If (cond, stmt st env then_, Option.map (stmt st env) else_)
  | Let { var; value; body } ->
    let (E (ty, value)) = expr st env value in
    let slot, body = bind st env ty var body in
    Let (ty, slot, value, body)
  | Store { buf = b; indices; value } ->
    Store (buf st b, index st env indices, coerce Float (expr st env value))
  | Mma { m; n; k; a; a_off; b; b_off; c; c_off } ->
    let operand b off = { buf = buf st b; off = index st env off } in
    Mma
      { m; n; k; a = operand a a_off; b = operand b b_off; c = operand c c_off }
  | Sync_threads -> Sync
  | Comment _ -> Nop

(* A scoped variable takes the next free frame slot of its type. *)
and bind : type a.
    state -> packed Int_map.t -> a ty -> Var.t -> Stmt.t -> int * stmt =
 fun st env ty var body ->
  let slot = push st ty in
  let env = Int_map.add var.Var.id (E (ty, Var (ty, slot))) env in
  let body = stmt st env body in
  pop st ty;
  (slot, body)

let kernel (k : Kernel.t) : t =
  let st =
    { bufs = Hashtbl.create 16; next = Array.make 4 0; high = Array.make 4 0 }
  in
  let nbufs = ref 0 in
  let assign bufs =
    Array.of_list
      (List.map
         (fun (b : Buffer.t) ->
           let slot = !nbufs in
           incr nbufs;
           Hashtbl.replace st.bufs b.Buffer.id
             { slot; name = b.Buffer.name; dims = Array.of_list b.Buffer.dims };
           (slot, b))
         bufs)
  in
  let globals = assign k.params in
  let shared = assign k.shared in
  let warps = assign k.warp_bufs in
  let regs = assign k.regs in
  let body = stmt st Int_map.empty k.body in
  let layout =
    {
      kernel = k;
      nbufs = !nbufs;
      globals;
      shared;
      warps;
      regs;
      frame = st.high;
      has_sync =
        Stmt.count (function Stmt.Sync_threads -> true | _ -> false) k.body > 0;
      parallel_ok = Verify.block_disjoint_writes k;
    }
  in
  { layout; body }

(* ------------------------------------------------------------------ *)
(* Launch                                                             *)
(* ------------------------------------------------------------------ *)

type compiled = {
  layout : layout;
  entry : Exec_registry.entry;
  backend : string;
}

let m_threads = Metrics.counter "sim.threads"
let m_stmts = Metrics.counter "sim.statements"
let m_exec_us = Metrics.counter "sim.exec_us"
let m_par_blocks = Metrics.counter "sim.parallel_blocks"
let m_seq_blocks = Metrics.counter "sim.sequential_blocks"

let alloc (_, b) = Array.make (Buffer.num_elems b) 0.

(* One block: shared arrays fresh per block, warp storage shared by a
   warp's threads, register arrays fresh per thread. Thread fibers start in
   ascending tid order and advance phase by phase through [Interp]'s
   barrier machinery; a kernel without [Sync_threads] can never block, so
   it runs its threads as a plain loop. Returns the statements executed. *)
let exec_block c proto bid =
  let lk = c.layout and block_dim = c.layout.kernel.Kernel.block_dim in
  let bufs_block = Array.copy proto in
  Array.iter (fun ((s, _) as sb) -> bufs_block.(s) <- alloc sb) lk.shared;
  let warp_storage =
    Array.init
      ((block_dim + Interp.warp_size - 1) / Interp.warp_size)
      (fun _ -> Array.map alloc lk.warps)
  in
  let thread_bufs tid =
    let bufs = Array.copy bufs_block in
    let ws = warp_storage.(tid / Interp.warp_size) in
    Array.iteri (fun i (s, _) -> bufs.(s) <- ws.(i)) lk.warps;
    Array.iter (fun ((s, _) as sb) -> bufs.(s) <- alloc sb) lk.regs;
    bufs
  in
  if not lk.has_sync then begin
    let total = ref 0 in
    for tid = 0 to block_dim - 1 do
      total := !total + c.entry tid bid (thread_bufs tid)
    done;
    !total
  end
  else begin
    let counts = Array.make block_dim 0 in
    let bufs = Array.init block_dim thread_bufs in
    let statuses =
      Array.init block_dim (fun tid ->
          Interp.start_thread (fun () ->
              counts.(tid) <- c.entry tid bid bufs.(tid)))
    in
    Interp.barrier_loop ~kernel_name:lk.kernel.Kernel.name ~bid statuses;
    Array.fold_left ( + ) 0 counts
  end

let run ?(parallel = true) c bindings =
  let k = c.layout.kernel in
  Interp.check_bindings k bindings;
  let proto = Array.make (max 1 c.layout.nbufs) [||] in
  Array.iter
    (fun (s, (b : Buffer.t)) ->
      match List.find_opt (fun (p, _) -> Buffer.equal p b) bindings with
      | Some (_, arr) -> proto.(s) <- arr
      | None -> assert false (* every parameter is bound: check_bindings *))
    c.layout.globals;
  let use_domains =
    parallel && c.layout.parallel_ok && k.Kernel.grid_dim > 1
  in
  let t0 = Unix.gettimeofday () in
  let counts =
    Trace.span
      ~attrs:(fun () ->
        [
          ("kernel", k.Kernel.name);
          ("backend", c.backend);
          ("parallel", string_of_bool use_domains);
          ("grid_dim", string_of_int k.Kernel.grid_dim);
        ])
      "sim.exec"
      (fun _ ->
        if use_domains then
          Hidet_parallel.Parallel.map
            (fun bid -> exec_block c proto bid)
            (Array.init k.Kernel.grid_dim Fun.id)
        else Array.init k.Kernel.grid_dim (exec_block c proto))
  in
  Metrics.add m_exec_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  Metrics.add m_threads (Kernel.num_threads k);
  Metrics.add m_stmts (Array.fold_left ( + ) 0 counts);
  Metrics.add
    (if use_domains then m_par_blocks else m_seq_blocks)
    k.Kernel.grid_dim
