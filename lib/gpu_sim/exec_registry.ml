module Expr = Hidet_ir.Expr

type entry = int -> int -> float array array -> int

let table : (string, entry) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()

let register name fn =
  Mutex.lock lock;
  Hashtbl.replace table name fn;
  Mutex.unlock lock

let take name =
  Mutex.lock lock;
  let r = Hashtbl.find_opt table name in
  Hashtbl.remove table name;
  Mutex.unlock lock;
  r

let sync () = Effect.perform Interp.Sync
let warp_size = Interp.warp_size

let oob i d name =
  raise
    (Interp.Invalid_access
       (Printf.sprintf "Buffer.flat_index: index %d out of bound %d on %s" i d
          name))

let[@inline] check i d name = if i < 0 || i >= d then oob i d name

let neg_bool = "Expr.eval: neg of bool"
let abs_bool = "Expr.eval: abs of bool"
let bool_binop = "Expr.eval: bool operand to arithmetic binop"
let erf = Expr.erf

type value = Expr.value = V_int of int | V_float of float | V_bool of bool

type binop = Expr.binop =
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

let int_of_value = Expr.int_of_value
let float_of_value = Expr.float_of_value
let bool_of_value = Expr.bool_of_value

let dyn_neg = function
  | V_int n -> V_int (-n)
  | V_float x -> V_float (-.x)
  | V_bool _ -> invalid_arg neg_bool

let dyn_abs = function
  | V_int n -> V_int (Stdlib.abs n)
  | V_float x -> V_float (Float.abs x)
  | V_bool _ -> invalid_arg abs_bool

let dyn_binop op va vb =
  match (va, vb) with
  | V_int x, V_int y -> Expr.eval_int_binop op x y
  | (V_float _ | V_int _), (V_float _ | V_int _) ->
    Expr.eval_float_binop op (Expr.float_of_value va) (Expr.float_of_value vb)
  | _ -> invalid_arg bool_binop

(* Leading-dim checks, then the tile origin's flat offset with the two
   trailing dims zeroed. *)
let origin dims name (off : int array) =
  let r = Array.length dims in
  let acc = ref 0 in
  for p = 0 to r - 1 do
    let d = dims.(p) in
    if p < r - 2 then begin
      check off.(p) d name;
      acc := (!acc * d) + off.(p)
    end
    else acc := !acc * d
  done;
  !acc

(* Origins are flattened c, b, a; then each element checks its trailing
   indices (c, then b, then a) before reading. The checks plus the origin
   keep every flat index in bounds, so the accesses are unsafe. *)
let mma m n k a a_dims a_name ao b b_dims b_name bo c c_dims c_name co =
  let c0 = origin c_dims c_name co in
  let b0 = origin b_dims b_name bo in
  let a0 = origin a_dims a_name ao in
  let ar = Array.length a_dims
  and br = Array.length b_dims
  and cr = Array.length c_dims in
  let a_rdim = a_dims.(ar - 2) and a_cdim = a_dims.(ar - 1) in
  let b_rdim = b_dims.(br - 2) and b_cdim = b_dims.(br - 1) in
  let c_rdim = c_dims.(cr - 2) and c_cdim = c_dims.(cr - 1) in
  let ar0 = ao.(ar - 2) and ac0 = ao.(ar - 1) in
  let br0 = bo.(br - 2) and bc0 = bo.(br - 1) in
  let cr0 = co.(cr - 2) and cc0 = co.(cr - 1) in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let ri = cr0 + i and cj = cc0 + j in
      check ri c_rdim c_name;
      check cj c_cdim c_name;
      let cix = c0 + (ri * c_cdim) + cj in
      let acc = ref (Array.unsafe_get c cix) in
      for kk = 0 to k - 1 do
        let brk = br0 + kk and bcj = bc0 + j in
        check brk b_rdim b_name;
        check bcj b_cdim b_name;
        let ari = ar0 + i and ack = ac0 + kk in
        check ari a_rdim a_name;
        check ack a_cdim a_name;
        acc :=
          !acc
          +. Array.unsafe_get a (a0 + (ari * a_cdim) + ack)
             *. Array.unsafe_get b (b0 + (brk * b_cdim) + bcj)
      done;
      Array.unsafe_set c cix !acc
    done
  done
