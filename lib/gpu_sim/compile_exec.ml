open Hidet_ir
open Lower
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace
module R = Exec_registry

(* Everything mutable lives here, one record per simulated thread, so the
   compiled closures themselves are immutable and safe to share across the
   domains running different blocks. *)
type rt = {
  tid : int;
  bid : int;
  bufs : float array array;  (** buffer slot -> backing storage *)
  ints : int array;  (** frames, one per {!Lower.ty} *)
  floats : float array;
  bools : bool array;
  vals : Expr.value array;
  mutable stmts : int;  (** statements executed by this thread *)
}

(* The same check as [Exec_registry]'s MMA loop, kept local so the
   rank-1..4 closures inline it: dune's dev profile compiles with
   [-opaque], which rules out cross-module inlining, and a shared
   out-of-line check costs the closure backend 10-15% of its run time. *)
let[@inline] check i d name = if i < 0 || i >= d then R.oob i d name
let[@inline] tick rt = rt.stmts <- rt.stmts + 1

let cast : type a b. a ty -> b ty -> (rt -> a) -> rt -> b =
 fun src dst f ->
  match (src, dst) with
  | Int, Int -> f
  | Float, Float -> f
  | Bool, Bool -> f
  | Dyn, Dyn -> f
  | Int, Float -> fun rt -> float_of_int (f rt)
  | Int, Bool -> fun rt -> f rt <> 0
  | Int, Dyn -> fun rt -> V_int (f rt)
  | Float, Int -> fun rt -> int_of_float (f rt)
  | Float, Bool -> fun rt -> f rt <> 0.
  | Float, Dyn -> fun rt -> V_float (f rt)
  | Bool, Int -> fun rt -> if f rt then 1 else 0
  | Bool, Float -> fun rt -> if f rt then 1. else 0.
  | Bool, Dyn -> fun rt -> V_bool (f rt)
  | Dyn, Int -> fun rt -> R.int_of_value (f rt)
  | Dyn, Float -> fun rt -> R.float_of_value (f rt)
  | Dyn, Bool -> fun rt -> R.bool_of_value (f rt)

(* Rank > 4: check each dimension left to right, then flatten. *)
let flat dims name idx =
  let acc = ref 0 in
  Array.iteri
    (fun p i ->
      check i dims.(p) name;
      acc := (!acc * dims.(p)) + i)
    idx;
  !acc

(* Reads evaluate every index left to right, then bounds-check each
   dimension left to right, then read. Ranks 1-4 get dedicated closures
   with no per-call allocation. *)
let load { slot; name; dims } (ix : (rt -> int) array) : rt -> float =
  match (dims, ix) with
  | [| d0 |], [| c0 |] ->
    fun rt ->
      let i0 = c0 rt in
      check i0 d0 name;
      rt.bufs.(slot).(i0)
  | [| d0; d1 |], [| c0; c1 |] ->
    fun rt ->
      let i0 = c0 rt in
      let i1 = c1 rt in
      check i0 d0 name;
      check i1 d1 name;
      rt.bufs.(slot).((i0 * d1) + i1)
  | [| d0; d1; d2 |], [| c0; c1; c2 |] ->
    fun rt ->
      let i0 = c0 rt in
      let i1 = c1 rt in
      let i2 = c2 rt in
      check i0 d0 name;
      check i1 d1 name;
      check i2 d2 name;
      rt.bufs.(slot).((((i0 * d1) + i1) * d2) + i2)
  | [| d0; d1; d2; d3 |], [| c0; c1; c2; c3 |] ->
    fun rt ->
      let i0 = c0 rt in
      let i1 = c1 rt in
      let i2 = c2 rt in
      let i3 = c3 rt in
      check i0 d0 name;
      check i1 d1 name;
      check i2 d2 name;
      check i3 d3 name;
      rt.bufs.(slot).((((((i0 * d1) + i1) * d2) + i2) * d3) + i3)
  | _ ->
    fun rt ->
      let idx = Array.map (fun c -> c rt) ix in
      rt.bufs.(slot).(flat dims name idx)

(* Stores count the statement, evaluate the indices left to right, then the
   value, then bounds-check, then write. *)
let store { slot; name; dims } (ix : (rt -> int) array) (cv : rt -> float) :
    rt -> unit =
  match (dims, ix) with
  | [| d0 |], [| c0 |] ->
    fun rt ->
      tick rt;
      let i0 = c0 rt in
      let v = cv rt in
      check i0 d0 name;
      rt.bufs.(slot).(i0) <- v
  | [| d0; d1 |], [| c0; c1 |] ->
    fun rt ->
      tick rt;
      let i0 = c0 rt in
      let i1 = c1 rt in
      let v = cv rt in
      check i0 d0 name;
      check i1 d1 name;
      rt.bufs.(slot).((i0 * d1) + i1) <- v
  | [| d0; d1; d2 |], [| c0; c1; c2 |] ->
    fun rt ->
      tick rt;
      let i0 = c0 rt in
      let i1 = c1 rt in
      let i2 = c2 rt in
      let v = cv rt in
      check i0 d0 name;
      check i1 d1 name;
      check i2 d2 name;
      rt.bufs.(slot).((((i0 * d1) + i1) * d2) + i2) <- v
  | [| d0; d1; d2; d3 |], [| c0; c1; c2; c3 |] ->
    fun rt ->
      tick rt;
      let i0 = c0 rt in
      let i1 = c1 rt in
      let i2 = c2 rt in
      let i3 = c3 rt in
      let v = cv rt in
      check i0 d0 name;
      check i1 d1 name;
      check i2 d2 name;
      check i3 d3 name;
      rt.bufs.(slot).((((((i0 * d1) + i1) * d2) + i2) * d3) + i3) <- v
  | _ ->
    fun rt ->
      tick rt;
      let idx = Array.map (fun c -> c rt) ix in
      let v = cv rt in
      rt.bufs.(slot).(flat dims name idx) <- v

(* Two-operand nodes apply an OCaml primitive to both closures, whose
   operands ocamlopt evaluates right to left — the order the native
   printer's generated operators get too. Int [Min]/[Max] are not
   primitives, so they bind b, then a, explicitly. *)
let rec comp : type a. a expr -> rt -> a = function
  | Int_c n -> fun _ -> n
  | Float_c f -> fun _ -> f
  | Bool_c b -> fun _ -> b
  | Tid -> fun rt -> rt.tid
  | Bid -> fun rt -> rt.bid
  | Var (Int, s) -> fun rt -> rt.ints.(s)
  | Var (Float, s) -> fun rt -> rt.floats.(s)
  | Var (Bool, s) -> fun rt -> rt.bools.(s)
  | Var (Dyn, s) -> fun rt -> rt.vals.(s)
  | Load (b, idx) -> load b (Array.map comp idx)
  | Cast (src, dst, e) -> cast src dst (comp e)
  | Select (c, a, b) ->
    let c = comp c and fa = comp a and fb = comp b in
    fun rt -> if c rt then fa rt else fb rt
  | Not a ->
    let f = comp a in
    fun rt -> not (f rt)
  | And (a, b) ->
    let fa = comp a and fb = comp b in
    fun rt -> fa rt && fb rt
  | Or (a, b) ->
    let fa = comp a and fb = comp b in
    fun rt -> fa rt || fb rt
  | Neg (I, a) ->
    let f = comp a in
    fun rt -> -f rt
  | Neg (F, a) ->
    let f = comp a in
    fun rt -> -.f rt
  | Abs (I, a) ->
    let f = comp a in
    fun rt -> Stdlib.abs (f rt)
  | Abs (F, a) ->
    let f = comp a in
    fun rt -> Float.abs (f rt)
  | Dyn_unop (op, a) ->
    let f = comp a and g = if op = Neg then R.dyn_neg else R.dyn_abs in
    fun rt -> g (f rt)
  | Math (op, a) -> (
    let f = comp a in
    match op with
    | Exp -> fun rt -> Stdlib.exp (f rt)
    | Log -> fun rt -> Stdlib.log (f rt)
    | Sqrt -> fun rt -> Stdlib.sqrt (f rt)
    | Tanh -> fun rt -> Stdlib.tanh (f rt)
    | _ -> fun rt -> R.erf (f rt))
  | Arith (I, op, a, b) -> (
    let fa : rt -> int = comp a and fb : rt -> int = comp b in
    match op with
    | Add -> fun rt -> fa rt + fb rt
    | Sub -> fun rt -> fa rt - fb rt
    | Mul -> fun rt -> fa rt * fb rt
    | Div -> fun rt -> fa rt / fb rt
    | Mod -> fun rt -> fa rt mod fb rt
    | Min ->
      fun rt ->
        let y = fb rt in
        let x = fa rt in
        if x <= y then x else y
    | _ ->
      fun rt ->
        let y = fb rt in
        let x = fa rt in
        if x >= y then x else y)
  | Arith (F, op, a, b) -> (
    let fa : rt -> float = comp a and fb : rt -> float = comp b in
    match op with
    | Add -> fun rt -> fa rt +. fb rt
    | Sub -> fun rt -> fa rt -. fb rt
    | Mul -> fun rt -> fa rt *. fb rt
    | Div -> fun rt -> fa rt /. fb rt
    | Mod -> fun rt -> Float.rem (fa rt) (fb rt)
    | Min -> fun rt -> Float.min (fa rt) (fb rt)
    | _ -> fun rt -> Float.max (fa rt) (fb rt))
  | Dyn_binop (op, a, b) ->
    let fa = comp a and fb = comp b in
    fun rt ->
      let va = fa rt in
      let vb = fb rt in
      R.dyn_binop op va vb
  | Cmp (I, op, a, b) -> (
    let fa : rt -> int = comp a and fb : rt -> int = comp b in
    match op with
    | Lt -> fun rt -> fa rt < fb rt
    | Le -> fun rt -> fa rt <= fb rt
    | Gt -> fun rt -> fa rt > fb rt
    | Ge -> fun rt -> fa rt >= fb rt
    | Eq -> fun rt -> fa rt = fb rt
    | _ -> fun rt -> fa rt <> fb rt)
  | Cmp (F, op, a, b) -> (
    let fa : rt -> float = comp a and fb : rt -> float = comp b in
    match op with
    | Lt -> fun rt -> fa rt < fb rt
    | Le -> fun rt -> fa rt <= fb rt
    | Gt -> fun rt -> fa rt > fb rt
    | Ge -> fun rt -> fa rt >= fb rt
    | Eq -> fun rt -> fa rt = fb rt
    | _ -> fun rt -> fa rt <> fb rt)
  | Reject (operands, msg) ->
    let eval (E (_, e)) =
      let f = comp e in
      fun rt -> ignore (f rt)
    in
    let fs = List.map eval operands in
    fun rt ->
      List.iter (fun f -> f rt) fs;
      invalid_arg msg

let offsets (ix : (rt -> int) array) rt = Array.map (fun c -> c rt) ix

let rec comp_stmt (s : stmt) : rt -> unit =
  match s with
  | Seq ss -> (
    match List.map comp_stmt ss with
    | [] -> ignore
    | [ a ] -> a
    | [ a; b ] ->
      fun rt ->
        a rt;
        b rt
    | [ a; b; c ] ->
      fun rt ->
        a rt;
        b rt;
        c rt
    | cs ->
      let arr = Array.of_list cs in
      fun rt ->
        for i = 0 to Array.length arr - 1 do
          arr.(i) rt
        done)
  | For (s0, extent, body) ->
    let ext = comp extent and body = comp_stmt body in
    fun rt ->
      tick rt;
      let n = ext rt in
      let ints = rt.ints in
      for i = 0 to n - 1 do
        ints.(s0) <- i;
        body rt
      done
  | If (c, t, e) ->
    let c = comp c and t = comp_stmt t in
    let e = match e with Some e -> comp_stmt e | None -> ignore in
    fun rt ->
      tick rt;
      if c rt then t rt else e rt
  | Let (ty, s0, value, body) -> (
    let f = comp value and body = comp_stmt body in
    match ty with
    | Int ->
      fun rt ->
        tick rt;
        rt.ints.(s0) <- f rt;
        body rt
    | Float ->
      fun rt ->
        tick rt;
        rt.floats.(s0) <- f rt;
        body rt
    | Bool ->
      fun rt ->
        tick rt;
        rt.bools.(s0) <- f rt;
        body rt
    | Dyn ->
      fun rt ->
        tick rt;
        rt.vals.(s0) <- f rt;
        body rt)
  | Store (b, idx, v) -> store b (Array.map comp idx) (comp v)
  | Mma { m; n; k; a; b; c } ->
    let ca = Array.map comp a.off
    and cb = Array.map comp b.off
    and cc = Array.map comp c.off in
    fun rt ->
      tick rt;
      if rt.tid mod R.warp_size = 0 then begin
        let ao = offsets ca rt in
        let bo = offsets cb rt in
        let co = offsets cc rt in
        R.mma m n k
          rt.bufs.(a.buf.slot) a.buf.dims a.buf.name ao
          rt.bufs.(b.buf.slot) b.buf.dims b.buf.name bo
          rt.bufs.(c.buf.slot) c.buf.dims c.buf.name co
      end
  | Sync ->
    fun rt ->
      tick rt;
      R.sync ()
  | Nop -> tick

type compiled = Lower.compiled

let m_compile_us = Metrics.counter "sim.compile_us"

let compile (k : Kernel.t) : compiled =
  Verify.kernel_exn k;
  let t0 = Unix.gettimeofday () in
  let c =
    Trace.span
      ~attrs:(fun () -> [ ("kernel", k.Kernel.name) ])
      "sim.compile"
      (fun _ ->
        let lk = Lower.kernel k in
        let body = comp_stmt lk.body in
        let frame ty = max 1 (frame_size lk.layout ty) in
        let ni = frame Int and nf = frame Float in
        let nb = frame Bool and nd = frame Dyn in
        let entry tid bid bufs =
          let rt =
            {
              tid;
              bid;
              bufs;
              ints = Array.make ni 0;
              floats = Array.make nf 0.;
              bools = Array.make nb false;
              vals = Array.make nd (R.V_int 0);
              stmts = 0;
            }
          in
          body rt;
          rt.stmts
        in
        { layout = lk.layout; entry; backend = "closure" })
  in
  Metrics.add m_compile_us (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  c

let run_compiled = Lower.run
let run ?parallel (k : Kernel.t) bindings =
  run_compiled ?parallel (compile k) bindings
