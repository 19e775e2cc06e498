(* Parity suite for the native (codegen → ocamlopt → Dynlink) execution
   backend: on randomly generated kernels the dynlinked code must equal the
   closure-compiling backend bit for bit (results, statement counts and
   errors), and compilation must be memoized. When the toolchain is
   unavailable the suite skips visibly instead of failing. *)

open Hidet_ir
module CE = Hidet_gpu.Compile_exec
module EO = Hidet_gpu.Exec_ocaml
module G = QCheck.Gen

(* --- random kernel generator (same shape as test_compile_exec) ------------ *)

type spec = {
  grid : int;
  block : int;
  staged : bool;
  reduce : int;
  pred_tail : bool;
  block_invariant : bool;
  value_seed : int;
  input_seed : int;
}

let spec_gen =
  let open G in
  let* grid = 1 -- 4 in
  let* block = oneofl [ 16; 32; 64 ] in
  let* staged = bool in
  let* reduce = oneofl [ 0; 0; 2; 3; 4 ] in
  let* pred_tail = bool in
  let* block_invariant = frequency [ (3, return false); (1, return true) ] in
  let* value_seed = 0 -- 1_000_000 in
  let+ input_seed = 0 -- 1_000_000 in
  {
    grid;
    block;
    staged;
    reduce;
    pred_tail;
    block_invariant;
    value_seed;
    input_seed;
  }

let spec_print s =
  Printf.sprintf
    "{grid=%d; block=%d; staged=%b; reduce=%d; pred_tail=%b; \
     block_invariant=%b; value_seed=%d; input_seed=%d}"
    s.grid s.block s.staged s.reduce s.pred_tail s.block_invariant s.value_seed
    s.input_seed

let gen_value rng ~(a : Buffer.t) ~(b : Buffer.t) ~(smem : Buffer.t option)
    ~(n : int) ~(gid : Expr.t) =
  let idx () =
    match Random.State.int rng 4 with
    | 0 -> gid
    | 1 -> Expr.sub (Expr.int (n - 1)) gid
    | 2 -> Expr.modulo (Expr.mul gid (Expr.int 3)) (Expr.int n)
    | _ -> Expr.modulo (Expr.add gid (Expr.int 7)) (Expr.int n)
  in
  let leaf () =
    match Random.State.int rng 6 with
    | 0 -> Expr.load a [ idx () ]
    | 1 -> Expr.load b [ idx () ]
    | 2 -> (
      match smem with
      | Some s ->
        Expr.load s
          [ Expr.sub (Expr.int (List.hd s.Buffer.dims - 1)) Expr.Thread_idx ]
      | None -> Expr.load a [ idx () ])
    | 3 -> Expr.float (float_of_int (Random.State.int rng 9) /. 4.)
    | 4 -> Expr.int (Random.State.int rng 5)
    | _ -> Expr.Thread_idx
  in
  let rec go depth =
    if depth = 0 then leaf ()
    else
      match Random.State.int rng 8 with
      | 0 -> Expr.add (go (depth - 1)) (go (depth - 1))
      | 1 -> Expr.sub (go (depth - 1)) (go (depth - 1))
      | 2 -> Expr.mul (go (depth - 1)) (go (depth - 1))
      | 3 -> Expr.min_ (go (depth - 1)) (go (depth - 1))
      | 4 -> Expr.max_ (go (depth - 1)) (go (depth - 1))
      | 5 ->
        let u =
          match Random.State.int rng 4 with
          | 0 -> Expr.Abs
          | 1 -> Expr.Tanh
          | 2 -> Expr.Neg
          | _ -> Expr.Sqrt
        in
        Expr.unop u (go (depth - 1))
      | 6 ->
        Expr.select
          (Expr.lt Expr.Thread_idx (Expr.int (1 + Random.State.int rng 31)))
          (go (depth - 1))
          (go (depth - 1))
      | _ -> leaf ()
  in
  go (1 + Random.State.int rng 2)

let build_kernel (s : spec) =
  let n = s.grid * s.block in
  let a = Buffer.create "A" [ n ] and b = Buffer.create "B" [ n ] in
  let c = Buffer.create "C" [ n ] in
  let smem =
    if s.staged then Some (Buffer.create ~scope:Buffer.Shared "smem" [ s.block ])
    else None
  in
  let reg =
    if s.reduce > 0 then Some (Buffer.create ~scope:Buffer.Register "acc" [ 1 ])
    else None
  in
  let gid =
    Expr.add (Expr.mul Expr.Block_idx (Expr.int s.block)) Expr.Thread_idx
  in
  let rng = Random.State.make [| s.value_seed |] in
  let value = gen_value rng ~a ~b ~smem ~n ~gid in
  let out_idx = if s.block_invariant then Expr.Thread_idx else gid in
  let stage =
    match smem with
    | Some sm ->
      [ Stmt.store sm [ Expr.Thread_idx ] (Expr.load a [ gid ]); Stmt.sync ]
    | None -> []
  in
  let x = Var.fresh "x" in
  let store_out v =
    let st = Stmt.let_ x out_idx (Stmt.store c [ Expr.var x ] v) in
    if s.pred_tail then Stmt.if_ (Expr.lt gid (Expr.int (max 1 (n - 3)))) st
    else st
  in
  let compute =
    match reg with
    | Some r ->
      let rv = Var.fresh "r" in
      [
        Stmt.store r [ Expr.int 0 ] (Expr.float 0.);
        Stmt.for_ rv (Expr.int s.reduce)
          (Stmt.store r [ Expr.int 0 ]
             (Expr.add
                (Expr.load r [ Expr.int 0 ])
                (Expr.add value (Expr.mul (Expr.var rv) (Expr.float 0.5)))));
        store_out (Expr.load r [ Expr.int 0 ]);
      ]
    | None -> [ store_out value ]
  in
  let k =
    Kernel.create
      ?shared:(Option.map (fun sm -> [ sm ]) smem)
      ?regs:(Option.map (fun r -> [ r ]) reg)
      ~name:"gen" ~params:[ a; b; c ] ~grid_dim:s.grid ~block_dim:s.block
      (Stmt.seq (stage @ compute))
  in
  (k, a, b, c, n)

let make_inputs seed n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ -> Random.State.float rng 4. -. 2.)

let bits = Int64.bits_of_float

let arrays_equal_bits x y =
  Array.length x = Array.length y
  && Array.for_all Fun.id
       (Array.init (Array.length x) (fun i -> bits x.(i) = bits y.(i)))

let capture runner (k : Kernel.t) ~a ~b ~c ~n ~seed =
  let av = make_inputs seed n
  and bv = make_inputs (seed + 1) n
  and cv = Array.make n 0. in
  try
    runner k [ (a, av); (b, bv); (c, cv) ];
    Ok cv
  with e -> Error e

let same_result r1 r2 =
  match (r1, r2) with
  | Ok x, Ok y -> arrays_equal_bits x y
  | Error e1, Error e2 -> e1 = e2
  | _ -> false

let stmts_counter = Hidet_obs.Metrics.counter "sim.statements"

(* --- qcheck properties ----------------------------------------------------- *)

let arb_spec = QCheck.make ~print:spec_print spec_gen

(* Also asserts the executed-statement counts agree: the generated code
   must bump its counter at exactly the closure backend's points. *)
let prop_native_eq_compiled =
  QCheck.Test.make ~count:60 ~name:"native backend == closure backend"
    arb_spec (fun s ->
      let k, a, b, c, n = build_kernel s in
      let v = Hidet_obs.Metrics.value in
      let s0 = v stmts_counter in
      let r_closure =
        capture (CE.run ~parallel:false) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      let closure_stmts = v stmts_counter - s0 in
      let s1 = v stmts_counter in
      let r_native =
        capture (EO.run ~parallel:false) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      let native_stmts = v stmts_counter - s1 in
      same_result r_closure r_native && closure_stmts = native_stmts)

let prop_native_parallel_eq_sequential =
  QCheck.Test.make ~count:30 ~name:"native parallel grid == sequential grid"
    arb_spec (fun s ->
      let k, a, b, c, n = build_kernel s in
      let r_par =
        capture (EO.run ~parallel:true) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      let r_seq =
        capture (EO.run ~parallel:false) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      same_result r_par r_seq)

(* --- deterministic error-parity cases -------------------------------------- *)

let both_raise_same name mk =
  Alcotest.test_case name `Quick (fun () ->
      let k, bindings_of = mk () in
      let go runner =
        try
          runner k (bindings_of ());
          Ok ()
        with e -> Error e
      in
      let r1 = go (CE.run ~parallel:false)
      and r2 = go (EO.run ~parallel:false) in
      (match r1 with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "closure backend did not raise");
      Alcotest.(check bool)
        "same exception (constructor and message)" true (r1 = r2))

let runtime_divergence_kernel () =
  let c = Buffer.create "C" [ 32 ] in
  let x = Var.fresh "x" in
  let body =
    Stmt.seq
      [
        Stmt.let_ x Expr.Thread_idx
          (Stmt.if_ (Expr.lt (Expr.var x) (Expr.int 16)) Stmt.sync);
        Stmt.store c [ Expr.Thread_idx ] (Expr.float 0.);
      ]
  in
  let k =
    Kernel.create ~name:"rt_diverge" ~params:[ c ] ~grid_dim:1 ~block_dim:32
      body
  in
  (k, fun () -> [ (c, Array.make 32 0.) ])

let oob_store_kernel () =
  let c = Buffer.create "C" [ 8 ] in
  let body = Stmt.store c [ Expr.Thread_idx ] (Expr.float 1.) in
  let k =
    Kernel.create ~name:"oob" ~params:[ c ] ~grid_dim:1 ~block_dim:32 body
  in
  (k, fun () -> [ (c, Array.make 8 0.) ])

let negative_index_kernel () =
  let a = Buffer.create "A" [ 32 ] and c = Buffer.create "C" [ 32 ] in
  let body =
    Stmt.store c [ Expr.Thread_idx ]
      (Expr.load a [ Expr.sub Expr.Thread_idx (Expr.int 1) ])
  in
  let k =
    Kernel.create ~name:"neg" ~params:[ a; c ] ~grid_dim:1 ~block_dim:32 body
  in
  (k, fun () -> [ (a, Array.make 32 0.); (c, Array.make 32 0.) ])

let missing_binding_kernel () =
  let c = Buffer.create "C" [ 8 ] in
  let k =
    Kernel.create ~name:"missing" ~params:[ c ] ~grid_dim:1 ~block_dim:1
      (Stmt.store c [ Expr.int 0 ] (Expr.float 1.))
  in
  (k, fun () -> [])

let div_by_zero_kernel () =
  let c = Buffer.create "C" [ 8 ] in
  let k =
    Kernel.create ~name:"divz" ~params:[ c ] ~grid_dim:1 ~block_dim:1
      (Stmt.store c [ Expr.int 0 ]
         (Expr.div (Expr.int 1) (Expr.sub Expr.Thread_idx Expr.Thread_idx)))
  in
  (k, fun () -> [ (c, Array.make 8 0.) ])

(* --- deterministic result parity ------------------------------------------- *)

let check_same_outputs name k bindings_of outputs =
  Alcotest.test_case name `Quick (fun () ->
      let run runner =
        let bs = bindings_of () in
        runner k bs;
        List.map (fun b -> List.assq b bs) outputs
      in
      let o1 = run (CE.run ~parallel:false)
      and o2 = run (EO.run ~parallel:false) in
      List.iter2
        (fun x y ->
          Alcotest.(check bool) "outputs bit-identical" true
            (arrays_equal_bits x y))
        o1 o2)

let mma_kernel () =
  let a = Buffer.create "A" [ 8; 4 ] and b = Buffer.create "B" [ 4; 8 ] in
  let c = Buffer.create "C" [ 8; 8 ] in
  let sa = Buffer.create ~scope:Buffer.Shared "sa" [ 8; 4 ] in
  let sb = Buffer.create ~scope:Buffer.Shared "sb" [ 4; 8 ] in
  let sc = Buffer.create ~scope:Buffer.Warp "sc" [ 8; 8 ] in
  let copy_in =
    Stmt.seq
      [
        Stmt.store sa
          [
            Expr.div Expr.Thread_idx (Expr.int 4);
            Expr.modulo Expr.Thread_idx (Expr.int 4);
          ]
          (Expr.load a
             [
               Expr.div Expr.Thread_idx (Expr.int 4);
               Expr.modulo Expr.Thread_idx (Expr.int 4);
             ]);
        Stmt.store sb
          [
            Expr.div Expr.Thread_idx (Expr.int 8);
            Expr.modulo Expr.Thread_idx (Expr.int 8);
          ]
          (Expr.load b
             [
               Expr.div Expr.Thread_idx (Expr.int 8);
               Expr.modulo Expr.Thread_idx (Expr.int 8);
             ]);
      ]
  in
  let mma =
    Stmt.Mma
      {
        m = 8;
        n = 8;
        k = 4;
        a = sa;
        a_off = [ Expr.int 0; Expr.int 0 ];
        b = sb;
        b_off = [ Expr.int 0; Expr.int 0 ];
        c = sc;
        c_off = [ Expr.int 0; Expr.int 0 ];
      }
  in
  let writeback =
    Stmt.seq
      (List.init 2 (fun r ->
           Stmt.store c
             [
               Expr.add
                 (Expr.mul (Expr.int r) (Expr.int 4))
                 (Expr.div Expr.Thread_idx (Expr.int 8));
               Expr.modulo Expr.Thread_idx (Expr.int 8);
             ]
             (Expr.load sc
                [
                  Expr.add
                    (Expr.mul (Expr.int r) (Expr.int 4))
                    (Expr.div Expr.Thread_idx (Expr.int 8));
                  Expr.modulo Expr.Thread_idx (Expr.int 8);
                ])))
  in
  let body = Stmt.seq [ copy_in; Stmt.sync; mma; Stmt.sync; writeback ] in
  let k =
    Kernel.create ~shared:[ sa; sb ] ~warp_bufs:[ sc ] ~name:"mma"
      ~params:[ a; b; c ] ~grid_dim:1 ~block_dim:32 body
  in
  let bindings_of () =
    [
      (a, Array.init 32 (fun x -> float_of_int (x mod 5) -. 2.));
      (b, Array.init 32 (fun x -> float_of_int (x mod 7) -. 3.));
      (c, Array.make 64 0.);
    ]
  in
  (k, bindings_of, [ c ])

(* --- boxed dynamic-type fallback ------------------------------------------ *)

(* A [Select] mixing a thread-dependent bool with a float has no static
   type, so it runs boxed; so do [Neg] and arithmetic on such a value. *)
let dyn_select_kernel () =
  let c = Buffer.create "C" [ 32 ] and d = Buffer.create "D" [ 32 ] in
  let tid = Expr.Thread_idx in
  let mixed =
    Expr.Select (Expr.lt tid (Expr.int 16), Expr.lt tid (Expr.int 8), Expr.float 2.5)
  in
  let numeric =
    Expr.Select (Expr.lt tid (Expr.int 64), Expr.int 3, Expr.lt tid (Expr.int 8))
  in
  let body =
    Stmt.seq
      [
        Stmt.store c [ tid ] mixed;
        Stmt.store d [ tid ]
          (Expr.Binop (Expr.Mul, Expr.Unop (Expr.Neg, numeric), Expr.float 0.5));
      ]
  in
  let k =
    Kernel.create ~name:"dyn_select" ~params:[ c; d ] ~grid_dim:1 ~block_dim:32
      body
  in
  (k, (fun () -> [ (c, Array.make 32 0.); (d, Array.make 32 0.) ]), [ c; d ])

(* Nested int [Min]s whose operands read bools bound in frame slots 1 and
   2: the native source's temporaries must not shadow those slots. *)
let min_over_bool_slots_kernel () =
  let c = Buffer.create "C" [ 32 ] in
  let tid = Expr.Thread_idx in
  let p = Var.fresh "p" and q = Var.fresh "q" and r = Var.fresh "r" in
  let x = Var.fresh "x" in
  let pick v a b = Expr.Select (Expr.var v, Expr.int a, Expr.int b) in
  let inner =
    Expr.add (Expr.add (pick q 1 2) (pick r 3 4)) (pick p 10 0)
  in
  let body =
    Stmt.let_ p (Expr.lt tid (Expr.int 4))
      (Stmt.let_ q (Expr.lt tid (Expr.int 8))
         (Stmt.let_ r (Expr.lt tid (Expr.int 16))
            (Stmt.let_ x
               (Expr.Binop
                  (Expr.Min, Expr.Binop (Expr.Min, inner, Expr.int 6), Expr.int 9))
               (Stmt.store c [ tid ] (Expr.var x)))))
  in
  let k =
    Kernel.create ~name:"min_bool_slots" ~params:[ c ] ~grid_dim:1 ~block_dim:32
      body
  in
  (k, (fun () -> [ (c, Array.make 32 0.) ]), [ c ])

(* [Neg] / [Abs] of a bool: the operand is evaluated, then rejected. *)
let bool_unop_kernel op () =
  let c = Buffer.create "C" [ 32 ] in
  let k =
    Kernel.create ~name:"bool_unop" ~params:[ c ] ~grid_dim:1 ~block_dim:32
      (Stmt.store c [ Expr.Thread_idx ]
         (Expr.Unop (op, Expr.lt Expr.Thread_idx (Expr.int 4))))
  in
  (k, fun () -> [ (c, Array.make 32 0.) ])

(* A bool operand to an arithmetic binop, statically typed or boxed. *)
let bool_binop_kernel ~boxed () =
  let c = Buffer.create "C" [ 32 ] in
  let tid = Expr.Thread_idx in
  let b = Expr.lt tid (Expr.int 4) in
  let b = if boxed then Expr.Select (b, b, Expr.float 2.5) else b in
  let k =
    Kernel.create ~name:"bool_binop" ~params:[ c ] ~grid_dim:1 ~block_dim:32
      (Stmt.store c [ tid ] (Expr.Binop (Expr.Add, Expr.float 1., b)))
  in
  (k, fun () -> [ (c, Array.make 32 0.) ])

(* --- memoization & codegen ------------------------------------------------- *)

let vadd_kernel () =
  let n = 128 in
  let a = Buffer.create "A" [ n ] and c = Buffer.create "C" [ n ] in
  let gid = Expr.add (Expr.mul Expr.Block_idx (Expr.int 32)) Expr.Thread_idx in
  ( Kernel.create ~name:"vadd" ~params:[ a; c ] ~grid_dim:4 ~block_dim:32
      (Stmt.store c [ gid ] (Expr.add (Expr.load a [ gid ]) (Expr.float 1.))),
    a,
    c )

let test_compile_is_memoized () =
  let k, a, c = vadd_kernel () in
  let v = Hidet_obs.Metrics.value in
  let m_units = Hidet_obs.Metrics.counter "sim.native.units" in
  let m_hits = Hidet_obs.Metrics.counter "sim.native.memo_hits" in
  let c1 = EO.compile k in
  let units_after_first = v m_units in
  let hits0 = v m_hits in
  let c2 = EO.compile k in
  Alcotest.(check int) "second compile builds no new unit" units_after_first
    (v m_units);
  Alcotest.(check bool) "second compile hits the memo" true
    (v m_hits = hits0 + 1);
  let cv1 = Array.make 128 0. and cv2 = Array.make 128 0. in
  EO.run_compiled c1 [ (a, Array.make 128 1.); (c, cv1) ];
  EO.run_compiled c2 [ (a, Array.make 128 2.); (c, cv2) ];
  Alcotest.(check (float 0.)) "first launch" 2. cv1.(5);
  Alcotest.(check (float 0.)) "memoized unit still correct" 3. cv2.(5)

let test_key_scopes_memo () =
  (* Distinct workload keys compile distinct units even for identical
     source; the digest alone would have shared them. *)
  let k, _, _ = vadd_kernel () in
  let v = Hidet_obs.Metrics.value in
  let m_units = Hidet_obs.Metrics.counter "sim.native.units" in
  let u0 = v m_units in
  ignore (EO.compile ~key:"wk-a" k);
  ignore (EO.compile ~key:"wk-b" k);
  ignore (EO.compile ~key:"wk-a" k);
  Alcotest.(check int) "two keys, two units" (u0 + 2) (v m_units)

let test_source_mentions_no_dispatch () =
  (* The generated source is type-specialized: a pure float/int kernel
     never references the boxed fallback. *)
  let k, _, _ = vadd_kernel () in
  let src = EO.source k in
  let contains sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "no dyn_binop in specialized source" false
    (contains "dyn_binop" src);
  Alcotest.(check bool) "uses unsafe accesses" true
    (contains "Array.unsafe_get" src)

let test_native_metrics_counters () =
  let k, a, c = vadd_kernel () in
  let v = Hidet_obs.Metrics.value in
  let m_threads = Hidet_obs.Metrics.counter "sim.threads" in
  let t0 = v m_threads and s0 = v stmts_counter in
  EO.run k [ (a, Array.make 128 1.); (c, Array.make 128 0.) ];
  Alcotest.(check int) "threads counted" (Kernel.num_threads k)
    (v m_threads - t0);
  Alcotest.(check bool) "statements counted" true (v stmts_counter - s0 >= 128)

(* --------------------------------------------------------------------------- *)

let () =
  match EO.available () with
  | Error reason ->
    (* Visible skip: the toolchain probe failed, so parity cannot run
       here. The codegen itself still must work. *)
    Printf.printf
      "SKIP exec_ocaml parity: native toolchain unavailable (%s)\n%!" reason;
    let k, _, _ = vadd_kernel () in
    Alcotest.run "exec_ocaml"
      [
        ( "codegen only (toolchain unavailable)",
          [
            Alcotest.test_case "source generates" `Quick (fun () ->
                Alcotest.(check bool) "non-empty" true
                  (String.length (EO.source k) > 0));
          ] );
      ]
  | Ok () ->
    Alcotest.run "exec_ocaml"
      [
        ( "parity",
          [
            QCheck_alcotest.to_alcotest prop_native_eq_compiled;
            QCheck_alcotest.to_alcotest prop_native_parallel_eq_sequential;
          ] );
        ( "error parity",
          [
            both_raise_same "runtime barrier divergence"
              runtime_divergence_kernel;
            both_raise_same "out-of-bounds store" oob_store_kernel;
            both_raise_same "negative index load" negative_index_kernel;
            both_raise_same "missing binding" missing_binding_kernel;
            both_raise_same "neg of bool" (bool_unop_kernel Expr.Neg);
            both_raise_same "abs of bool" (bool_unop_kernel Expr.Abs);
            both_raise_same "bool operand to arithmetic"
              (bool_binop_kernel ~boxed:false);
            both_raise_same "boxed bool operand to arithmetic"
              (bool_binop_kernel ~boxed:true);
            both_raise_same "division by zero" div_by_zero_kernel;
          ] );
        ( "result parity",
          [
            (let k, b, o = mma_kernel () in
             check_same_outputs "mma tile" k b o);
            (let k, b, o = dyn_select_kernel () in
             check_same_outputs "boxed select, neg and arithmetic" k b o);
            (let k, b, o = min_over_bool_slots_kernel () in
             check_same_outputs "int min over bools in frame slots" k b o);
          ] );
        ( "compilation",
          [
            Alcotest.test_case "compile is memoized" `Quick
              test_compile_is_memoized;
            Alcotest.test_case "workload key scopes the memo" `Quick
              test_key_scopes_memo;
            Alcotest.test_case "source is type-specialized" `Quick
              test_source_mentions_no_dispatch;
          ] );
        ( "observability",
          [
            Alcotest.test_case "metrics counters" `Quick
              test_native_metrics_counters;
          ] );
      ]
