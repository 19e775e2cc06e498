open Hidet_ir
open Lower
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace
module B = Stdlib.Buffer

(* ------------------------------------------------------------------ *)
(* Printer                                                            *)
(* ------------------------------------------------------------------ *)

(* Prints {!Lower}'s form as OCaml source: frame slots become let-bound
   names and for-loop indices, buffer slots become locals bound once in the
   prelude, dimensions become literals, and each access runs the same
   per-dimension bounds checks as the closures before an unsafe read or
   write (the checks make it safe: [check_bindings] and the launch
   allocator guarantee exact array sizes). Two-operand nodes print as OCaml
   operators, whose operands ocamlopt evaluates right to left like the
   closures'; where the closures sequence explicitly, the source binds the
   same order with lets. *)

type out = { b : B.t; mutable tmp : int }

let s o str = B.add_string o.b str

(* Temporaries are unique and their prefixes (ta, tb, i, n, x) differ from
   every frame-slot name ([var_name]), so a temporary never shadows a
   variable printed in its scope. *)
let fresh o base =
  o.tmp <- o.tmp + 1;
  base ^ string_of_int o.tmp

let int_lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

(* Hex float literals round-trip every finite value (including -0. and
   subnormals) exactly; nan/infinity go through their bit patterns so even
   exotic payloads survive. *)
let float_lit f =
  match Float.classify_float f with
  | FP_nan | FP_infinite ->
    Printf.sprintf "(Int64.float_of_bits 0x%LxL)" (Int64.bits_of_float f)
  | _ -> Printf.sprintf "(%h)" f

let var_name : type a. a ty -> int -> string =
 fun ty slot ->
  (match ty with Int -> "vi" | Float -> "vf" | Bool -> "vb" | Dyn -> "vd")
  ^ string_of_int slot

let buf_name b = "b" ^ string_of_int b.slot

(* OCaml operator and [Exec_registry.binop] constructor of each binop. *)
let op_names = function
  | Expr.Add -> ("+", "Add")
  | Sub -> ("-", "Sub")
  | Mul -> ("*", "Mul")
  | Div -> ("/", "Div")
  | Mod -> ("mod", "Mod")
  | Min -> ("min", "Min")
  | Max -> ("max", "Max")
  | Lt -> ("<", "Lt")
  | Le -> ("<=", "Le")
  | Gt -> (">", "Gt")
  | Ge -> (">=", "Ge")
  | Eq -> ("=", "Eq")
  | Ne -> ("<>", "Ne")
  | And -> ("&&", "And")
  | Or -> ("||", "Or")

let rec pr : type a. out -> a expr -> unit =
 fun o e ->
  let wrap pre x post =
    s o pre;
    pr o x;
    s o post
  in
  let bin pre a mid b' post =
    s o pre;
    pr o a;
    s o mid;
    pr o b';
    s o post
  in
  match e with
  | Int_c n -> s o (int_lit n)
  | Float_c f -> s o (float_lit f)
  | Bool_c b -> s o (string_of_bool b)
  | Tid -> s o "tid"
  | Bid -> s o "bid"
  | Var (ty, slot) -> s o (var_name ty slot)
  | Load (b, idx) ->
    s o "(";
    let names = bind_all o idx in
    checks o b names;
    s o ("Array.unsafe_get " ^ buf_name b ^ " ");
    horner o b names;
    s o ")"
  | Cast (src, dst, x) ->
    let pre, post =
      match (src, dst) with
      | Int, Float -> ("(float_of_int ", ")")
      | Int, Bool -> ("(", " <> 0)")
      | Int, Dyn -> ("(R.V_int ", ")")
      | Float, Int -> ("(int_of_float ", ")")
      | Float, Bool -> ("(", " <> 0.)")
      | Float, Dyn -> ("(R.V_float ", ")")
      | Bool, Int -> ("(if ", " then 1 else 0)")
      | Bool, Float -> ("(if ", " then 1. else 0.)")
      | Bool, Dyn -> ("(R.V_bool ", ")")
      | Dyn, Int -> ("(R.int_of_value ", ")")
      | Dyn, Float -> ("(R.float_of_value ", ")")
      | Dyn, Bool -> ("(R.bool_of_value ", ")")
      | Int, Int | Float, Float | Bool, Bool | Dyn, Dyn -> ("", "")
    in
    wrap pre x post
  | Select (c, a, b) ->
    wrap "(if " c " then ";
    bin "" a " else " b ")"
  | Not a -> wrap "(not " a ")"
  | And (a, b) -> bin "(" a " && " b ")"
  | Or (a, b) -> bin "(" a " || " b ")"
  | Neg (I, a) -> wrap "(- " a ")"
  | Neg (F, a) -> wrap "(-. " a ")"
  | Abs (I, a) -> wrap "(Stdlib.abs " a ")"
  | Abs (F, a) -> wrap "(Float.abs " a ")"
  | Dyn_unop (op, a) ->
    wrap (if op = Neg then "(R.dyn_neg " else "(R.dyn_abs ") a ")"
  | Math (op, a) ->
    let f =
      match op with
      | Exp -> "(Stdlib.exp "
      | Log -> "(Stdlib.log "
      | Sqrt -> "(Stdlib.sqrt "
      | Tanh -> "(Stdlib.tanh "
      | _ -> "(R.erf "
    in
    wrap f a ")"
  | Arith (I, ((Min | Max) as op), a, b) ->
    (* The closures bind b, then a, then compare. *)
    let tb = fresh o "tb" and ta = fresh o "ta" in
    bin ("(let " ^ tb ^ " = ") b (" in let " ^ ta ^ " = ") a
      (Printf.sprintf " in if %s %s %s then %s else %s)" ta
         (if op = Min then "<=" else ">=") tb ta tb)
  | Arith (F, ((Mod | Min | Max) as op), a, b) ->
    let f = match op with Mod -> "rem" | Min -> "min" | _ -> "max" in
    bin ("(Float." ^ f ^ " ") a " " b ")"
  | Arith (I, op, a, b) -> bin "(" a (" " ^ fst (op_names op) ^ " ") b ")"
  | Arith (F, op, a, b) -> bin "(" a (" " ^ fst (op_names op) ^ ". ") b ")"
  | Cmp (_, op, a, b) -> bin "(" a (" " ^ fst (op_names op) ^ " ") b ")"
  | Dyn_binop (op, a, b) ->
    let ta = fresh o "ta" and tb = fresh o "tb" in
    bin ("(let " ^ ta ^ " = ") a (" in let " ^ tb ^ " = ") b
      (Printf.sprintf " in R.dyn_binop R.%s %s %s)" (snd (op_names op)) ta tb)
  | Reject (operands, msg) ->
    s o "(";
    List.iter (fun (E (_, x)) -> wrap "ignore " x "; ") operands;
    s o (Printf.sprintf "invalid_arg %S)" msg)

(* [let iN = <index> in] per index, left to right; returns the names. *)
and bind_all o idx =
  Array.map
    (fun x ->
      let nm = fresh o "i" in
      s o ("let " ^ nm ^ " = ");
      pr o x;
      s o " in ";
      nm)
    idx

and checks o b names =
  let name = Printf.sprintf "%S" b.name in
  Array.iteri
    (fun p nm ->
      let d = string_of_int b.dims.(p) in
      s o
        (Printf.sprintf "if %s < 0 || %s >= %s then R.oob %s %s %s; " nm nm d nm
           d name))
    names

(* Row-major flat index over the bound index names. *)
and horner o b names =
  let acc = ref "0" in
  Array.iteri
    (fun p nm ->
      acc :=
        if p = 0 then nm
        else Printf.sprintf "((%s * %d) + %s)" !acc b.dims.(p) nm)
    names;
  s o !acc

(* Every statement but [Seq] counts itself first. Blocks close with "()"
   so an empty body is still well-formed. *)
let rec pr_stmt o (st : stmt) =
  match st with
  | Seq ss -> List.iter (pr_stmt o) ss
  | For (slot, extent, body) ->
    let n = fresh o "n" in
    s o ("incr stmts;\n(let " ^ n ^ " = ");
    pr o extent;
    s o (Printf.sprintf " in\nfor %s = 0 to %s - 1 do\n" (var_name Int slot) n);
    pr_stmt o body;
    s o "()\ndone);\n"
  | If (c, t, e) ->
    s o "incr stmts;\n(if ";
    pr o c;
    s o " then begin\n";
    pr_stmt o t;
    s o "()\nend";
    Option.iter
      (fun e ->
        s o "\nelse begin\n";
        pr_stmt o e;
        s o "()\nend")
      e;
    s o ");\n"
  | Let (ty, slot, value, body) ->
    s o ("incr stmts;\n(let " ^ var_name ty slot ^ " = ");
    pr o value;
    s o " in\n";
    pr_stmt o body;
    s o "());\n"
  | Store (b, idx, value) ->
    s o "incr stmts;\n(";
    let names = bind_all o idx in
    let x = fresh o "x" in
    s o ("let " ^ x ^ " = ");
    pr o value;
    s o " in\n";
    checks o b names;
    s o ("Array.unsafe_set " ^ buf_name b ^ " ");
    horner o b names;
    s o (" " ^ x ^ ");\n")
  | Mma { m; n; k; a; b; c } ->
    s o (Printf.sprintf "incr stmts;\n(if tid mod %d = 0 then begin\n"
           Exec_registry.warp_size);
    let offs = List.map (fun op -> (op, bind_all o op.off)) [ a; b; c ] in
    s o (Printf.sprintf "\nR.mma %d %d %d" m n k);
    let arr l = "[|" ^ String.concat "; " (Array.to_list l) ^ "|]" in
    List.iter
      (fun (op, names) ->
        s o
          (Printf.sprintf " %s %s %S %s" (buf_name op.buf)
             (arr (Array.map string_of_int op.buf.dims))
             op.buf.name (arr names)))
      offs;
    s o "\nend);\n"
  | Sync -> s o "incr stmts;\nR.sync ();\n"
  | Nop -> s o "incr stmts;\n"

(* The generated unit: [body tid bid bufs] runs one thread and returns its
   statement count. The registration trailer (which embeds the unique unit
   name) is appended at build time so the source digest memoizing
   compilation is stable across processes. *)
let print (lk : Lower.t) =
  let o = { b = B.create 4096; tmp = 0 } in
  s o
    (Printf.sprintf "(* generated by Hidet_gpu.Exec_ocaml for kernel %s *)\n"
       lk.layout.kernel.Kernel.name);
  (* The mangled unit name, not the [Hidet_gpu] wrapper alias: dune's dev
     profile compiles with [-opaque], so going through the wrapper would
     record an implementation dependency on the wrapper unit — which hosts
     never link (alias references resolve statically). The registry unit
     itself is always linked into any host that can reach this code. *)
  s o "module R = Hidet_gpu__Exec_registry\n\n";
  s o "let body (tid : int) (bid : int) (bufs : float array array) : int =\n";
  s o "ignore tid; ignore bid; ignore bufs;\nlet stmts = ref 0 in\n";
  for slot = 0 to lk.layout.nbufs - 1 do
    s o (Printf.sprintf "let b%d = bufs.(%d) in\n" slot slot)
  done;
  pr_stmt o lk.body;
  s o "!stmts\n";
  B.contents o.b

let source k =
  Verify.kernel_exn k;
  print (Lower.kernel k)

(* ------------------------------------------------------------------ *)
(* Toolchain probe                                                    *)
(* ------------------------------------------------------------------ *)

type toolchain = {
  ocamlfind : string;
  inc_flags : string;  (** -I flags for every library's .cmi directory *)
  scratch : string;  (** per-process scratch dir for .ml/.cmxs files *)
}

let path_sep = if Sys.win32 then ';' else ':'

let find_in_path prog =
  match Sys.getenv_opt "PATH" with
  | None -> None
  | Some path ->
    String.split_on_char path_sep path
    |> List.find_map (fun dir ->
           if dir = "" then None
           else
             let p = Filename.concat dir prog in
             if Sys.file_exists p then Some p else None)

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

(* The scratch directory holds only flat files (.ml, .cmx, .cmxs, .err). *)
let remove_dir dir =
  if is_dir dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* Executables live in _build/default/{bin,test,bench}; every library's
   .cmi files sit at _build/default/lib/<x>/.<name>.objs/byte and its .cmx
   files at .../native. Both matter: without the .cmx in scope, ocamlopt
   cannot resolve the [Hidet_gpu] wrapper alias statically and records a
   hard implementation dependency on the wrapper unit, which Dynlink then
   refuses to satisfy. *)
let include_dirs () =
  let root = Filename.concat (Filename.dirname Sys.executable_name) ".." in
  let lib = Filename.concat root "lib" in
  if not (is_dir lib) then []
  else
    Sys.readdir lib |> Array.to_list
    |> List.concat_map (fun d ->
           let dd = Filename.concat lib d in
           if not (is_dir dd) then []
           else
             Sys.readdir dd |> Array.to_list
             |> List.concat_map (fun o ->
                    if Filename.check_suffix o ".objs" then
                      List.filter is_dir
                        [
                          Filename.concat (Filename.concat dd o) "byte";
                          Filename.concat (Filename.concat dd o) "native";
                        ]
                    else []))

let unit_counter = Atomic.make 0

let m_codegen_us = Metrics.counter "sim.native.codegen_us"
let m_ocamlopt_us = Metrics.counter "sim.native.ocamlopt_us"
let m_dynlink_us = Metrics.counter "sim.native.dynlink_us"
let m_units = Metrics.counter "sim.native.units"
let m_memo_hits = Metrics.counter "sim.native.memo_hits"

let timed counter f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Metrics.add counter (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
  r

let read_file path =
  try Hidet_obs.Io.read_file path with Sys_error _ | End_of_file -> ""

(* Compile one generated unit and claim its registered entry point. The
   unit (file and module) name is unique per process, so privately
   dynlinked modules never collide. *)
let build tc body_src : Exec_registry.entry =
  let name =
    Printf.sprintf "hidet_kernel_%d_%d" (Unix.getpid ())
      (Atomic.fetch_and_add unit_counter 1)
  in
  let ml = Filename.concat tc.scratch (name ^ ".ml") in
  let cmxs = Filename.concat tc.scratch (name ^ ".cmxs") in
  let errf = ml ^ ".err" in
  let oc = open_out ml in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc body_src;
      output_string oc (Printf.sprintf "\nlet () = R.register %S body\n" name));
  let cmd =
    Printf.sprintf "%s ocamlopt -shared -w -a %s %s -o %s 2>%s"
      (Filename.quote tc.ocamlfind) tc.inc_flags (Filename.quote ml)
      (Filename.quote cmxs) (Filename.quote errf)
  in
  timed m_ocamlopt_us (fun () ->
      Trace.span
        ~attrs:(fun () -> [ ("unit", name) ])
        "sim.native.ocamlopt"
        (fun _ ->
          if Sys.command cmd <> 0 then
            failwith
              (Printf.sprintf "Exec_ocaml: ocamlopt failed on %s: %s" ml
                 (String.trim (read_file errf)))));
  timed m_dynlink_us (fun () ->
      Trace.span
        ~attrs:(fun () -> [ ("unit", name) ])
        "sim.native.dynlink"
        (fun _ ->
          try Dynlink.loadfile_private cmxs
          with Dynlink.Error e ->
            failwith
              (Printf.sprintf "Exec_ocaml: dynlink failed on %s: %s" cmxs
                 (Dynlink.error_message e))));
  Metrics.incr m_units;
  match Exec_registry.take name with
  | Some entry -> entry
  | None ->
    failwith
      (Printf.sprintf "Exec_ocaml: unit %s loaded but never registered" name)

(* One-shot probe: native Dynlink, ocamlfind on PATH, the build tree's .cmi
   directories, and an end-to-end smoke compile+load of a trivial unit.
   Failure is an [Error reason], never an exception — callers degrade to
   the closure backend with the reason logged. *)
let probe () : (toolchain, string) result =
  if not Dynlink.is_native then
    Error "bytecode host: Dynlink.is_native is false"
  else
    match find_in_path "ocamlfind" with
    | None -> Error "ocamlfind not found on PATH"
    | Some ocamlfind -> (
      let dirs = include_dirs () in
      if
        not
          (List.exists
             (fun d -> Filename.basename (Filename.dirname d) = ".hidet_gpu.objs")
             dirs)
      then
        Error
          (Printf.sprintf
             "no .cmi directories found near %s (not running from a dune \
              build tree?)"
             Sys.executable_name)
      else
        let scratch =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "hidet_native_%d" (Unix.getpid ()))
        in
        (try Sys.mkdir scratch 0o700 with Sys_error _ -> ());
        at_exit (fun () -> remove_dir scratch);
        if not (is_dir scratch) then
          Error (Printf.sprintf "cannot create scratch dir %s" scratch)
        else
          let tc =
            {
              ocamlfind;
              inc_flags =
                String.concat " "
                  (List.map (fun d -> "-I " ^ Filename.quote d) dirs);
              scratch;
            }
          in
          let smoke =
            "module R = Hidet_gpu__Exec_registry\n\
             let body (_ : int) (_ : int) (_ : float array array) : int = 0\n"
          in
          match build tc smoke with
          | entry ->
            if entry 0 0 [||] = 0 then Ok tc
            else Error "smoke unit returned garbage"
          | exception Failure msg -> Error msg)

let toolchain_once = lazy (probe ())
let available () = Result.map (fun _ -> ()) (Lazy.force toolchain_once)


(* ------------------------------------------------------------------ *)
(* Compilation with memoization                                       *)
(* ------------------------------------------------------------------ *)

type compiled = Lower.compiled

let memo : (string, Exec_registry.entry) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let compile ?key (k : Kernel.t) : compiled =
  let tc =
    match Lazy.force toolchain_once with
    | Ok tc -> tc
    | Error reason ->
      failwith ("Exec_ocaml: native backend unavailable: " ^ reason)
  in
  Verify.kernel_exn k;
  let lk, src =
    timed m_codegen_us (fun () ->
        Trace.span
          ~attrs:(fun () -> [ ("kernel", k.Kernel.name) ])
          "sim.native.codegen"
          (fun _ ->
            let lk = Lower.kernel k in
            (lk, print lk)))
  in
  (* Codegen is cheap and runs every call; ocamlopt + dynlink are memoized
     on the workload key plus the source digest (the digest alone is
     sufficient for correctness — the key prefix scopes eviction and
     observability to the schedule-cache workload). *)
  let memo_key =
    (match key with Some s -> s ^ ":" | None -> "")
    ^ Digest.to_hex (Digest.string src)
  in
  let entry =
    Mutex.lock memo_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock memo_lock)
      (fun () ->
        match Hashtbl.find_opt memo memo_key with
        | Some e ->
          Metrics.incr m_memo_hits;
          e
        | None ->
          let e = build tc src in
          Hashtbl.replace memo memo_key e;
          e)
  in
  { layout = lk.layout; entry; backend = "native" }

let run_compiled = Lower.run

let run ?parallel ?key (k : Kernel.t) bindings =
  run_compiled ?parallel (compile ?key k) bindings
