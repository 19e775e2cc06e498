(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) on the GPU simulator, plus the design-choice
   ablations called out in DESIGN.md and Bechamel micro-benchmarks of the
   compiler itself.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --only fig16 # one experiment
     dune exec bench/main.exe -- --list       # experiment ids
     dune exec bench/main.exe -- --cache F    # warm-start schedule cache
     dune exec bench/main.exe -- --trace F    # Chrome trace of the run *)

module M = Hidet_models.Models
module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module HE = Hidet.Hidet_engine
module IC = Hidet_baselines.Input_centric
module LS = Hidet_baselines.Loop_sched
module Lib = Hidet_baselines.Library_engine
module E = Hidet_runtime.Engine
module MT = Hidet_sched.Matmul_template
module Tu = Hidet_sched.Tuner
module C = Hidet_sched.Compiled

let dev = Hidet_gpu.Device.rtx3090
let section title = Printf.printf "\n=== %s ===\n%!" title
let ms s = s *. 1e3
let us s = s *. 1e6

(* ------------------------------------------------------------------ *)
(* Shared end-to-end results (Figs 13, 14, 19 share one computation)  *)
(* ------------------------------------------------------------------ *)

let fig13_engines : (module E.S) list =
  [
    (module Lib.Pytorch);
    (module Lib.Ort);
    (module IC.Autotvm);
    (module IC.Ansor);
    (module HE);
  ]

let end_to_end = Hashtbl.create 16

let e2e (module Eng : E.S) model_name =
  let key = (Eng.name, model_name) in
  match Hashtbl.find_opt end_to_end key with
  | Some r -> r
  | None ->
    let r = Eng.compile dev (M.by_name model_name) in
    Hashtbl.replace end_to_end key r;
    r

let models = [ "resnet50"; "inception_v3"; "mobilenet_v2"; "bert"; "gpt2" ]

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: DNN libraries and compilers, qualitative comparison";
  Printf.printf "%-14s %-10s %-10s %-12s %-10s\n" "Engine" "GraphOpt" "KernelOpt"
    "TuningTime" "Eng.Effort";
  Printf.printf "%-14s %-10s %-10s %-12s %-10s\n" "" "(higher=+)" "(higher=+)"
    "(lower=+)" "(lower=+)";
  let invert = function E.Low -> "ooo" | E.Medium -> "oo" | E.High -> "o" in
  List.iter
    (fun (module Eng : E.S) ->
      Printf.printf "%-14s %-10s %-10s %-12s %-10s\n" Eng.name
        (E.capability_dots Eng.caps.E.graph_opt)
        (E.capability_dots Eng.caps.E.kernel_opt)
        (invert Eng.caps.E.tuning_time)
        (invert Eng.caps.E.engineering_effort))
    fig13_engines;
  Printf.printf
    "(paper Table 1: Hidet combines high graph- and kernel-level optimization\n\
    \ with low tuning time at moderate engineering effort)\n"

(* Distinct convolution workloads of ResNet-50, for Figs 7, 15, 18. *)
let resnet_convs () =
  let g = M.resnet50 () in
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun (n : G.node) ->
      match n.G.op with
      | Op.Conv2d { stride; pad_h; pad_w } ->
        let x_shape = G.node_shape g (List.nth n.G.inputs 0) in
        let w_shape = G.node_shape g (List.nth n.G.inputs 1) in
        let key = (x_shape, w_shape, stride) in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.replace seen key ();
          Some (x_shape, w_shape, stride, pad_h, pad_w)
        end
      | _ -> None)
    (G.nodes g)

let fig7 () =
  section "Figure 7: schedule-space sizes for ResNet-50 convolutions";
  Printf.printf "%-4s %-24s %-16s %14s %10s\n" "#" "input (NCHW)" "weight (OIHW)"
    "AutoTVM space" "Hidet";
  let hidet_size = Hidet_sched.Space.size () in
  List.iteri
    (fun i (x_shape, w_shape, stride, pad_h, pad_w) ->
      let size = IC.conv_space_size ~x_shape ~w_shape ~stride ~pad_h ~pad_w in
      Printf.printf "%-4d %-24s %-16s %14.3g %10d\n" (i + 1)
        (String.concat "x" (List.map string_of_int x_shape))
        (String.concat "x" (List.map string_of_int w_shape))
        size hidet_size)
    (resnet_convs ());
  Printf.printf
    "(paper: input-centric spaces reach 1e4..1e8 per layer; Hidet's\n\
    \ hardware-centric space stays under ~500 for every input size)\n"

let fig13 () =
  section "Figure 13: end-to-end inference latency, batch 1 (ms)";
  Printf.printf "%-14s" "Model";
  List.iter (fun (module Eng : E.S) -> Printf.printf "%12s" Eng.name) fig13_engines;
  Printf.printf "%12s\n" "speedup";
  List.iter
    (fun model ->
      Printf.printf "%-14s%!" model;
      let lats =
        List.map
          (fun (module Eng : E.S) ->
            let r = e2e (module Eng) model in
            Printf.printf "%12.2f%!" (ms r.E.latency);
            (Eng.name, r.E.latency))
          fig13_engines
      in
      let hidet = List.assoc "hidet" lats in
      let best_baseline =
        List.fold_left
          (fun acc (n, l) -> if n = "hidet" then acc else Float.min acc l)
          infinity lats
      in
      Printf.printf "%11.2fx\n%!" (best_baseline /. hidet))
    models;
  Printf.printf
    "(paper: Hidet outperforms every baseline on most models, up to 1.48x;\n\
    \ Ansor remains competitive on MobileNet-V2 depthwise convolutions)\n"

let fig14 () =
  section "Figure 14: tuning cost (hours of schedule measurement)";
  Printf.printf "%-14s %10s %10s %10s %16s %16s\n" "Model" "autotvm" "ansor"
    "hidet" "autotvm/hidet" "ansor/hidet";
  List.iter
    (fun model ->
      (* Fresh + cached: the from-scratch cost of the model, independent of
         how warm the schedule cache already is from earlier experiments. *)
      let cost name =
        let (module Eng : E.S) =
          List.find (fun (module Eng : E.S) -> Eng.name = name) fig13_engines
        in
        E.total_tuning_cost (e2e (module Eng) model)
      in
      let a = cost "autotvm" and n = cost "ansor" and h = cost "hidet" in
      Printf.printf "%-14s %10.2f %10.2f %10.2f %15.1fx %15.1fx\n" model
        (a /. 3600.) (n /. 3600.) (h /. 3600.) (a /. h) (n /. h))
    models;
  Printf.printf
    "(paper: Hidet cuts tuning cost ~20x vs AutoTVM and ~11x vs Ansor;\n\
    \ AutoTVM's Bert/GPT-2 spaces are tiny AND ineffective: cheap to tune,\n\
    \ slow to run, cf. Figure 13)\n"

let fig15 () =
  section
    "Figure 15: schedule latency distribution (ResNet-50 conv: 28x28, 256ch, \
     k3, s2)";
  let x_shape = [ 1; 256; 28; 28 ] and w_shape = [ 256; 256; 3; 3 ] in
  let stride = 2 and pad = 1 in
  let m = 256 and n = 14 * 14 and k = 256 * 9 in
  let hidet_lats =
    List.filter_map
      (fun cfg ->
        match MT.compile ~a_batched:false ~b_batched:true ~m ~n ~k cfg with
        | c ->
          let l = C.latency dev c in
          if l < infinity then Some (us l) else None
        | exception Invalid_argument _ -> None)
      (Hidet_sched.Space.matmul_with_split_k ~m ~n)
  in
  let sampled ~trials ~seed =
    let acc = ref [] in
    let rng = Random.State.make [| seed |] in
    for _ = 1 to trials do
      let s = IC.sample_gemm_sched rng ~m ~n ~k in
      match LS.conv2d ~x_shape ~w_shape ~stride ~pad_h:pad ~pad_w:pad s with
      | c ->
        let l = C.latency dev c in
        if l < infinity then acc := us l :: !acc
      | exception Invalid_argument _ -> ()
    done;
    !acc
  in
  let autotvm_lats = sampled ~trials:1000 ~seed:11 in
  let ansor_lats = sampled ~trials:800 ~seed:13 in
  let histogram name lats =
    let buckets = [ 25.; 50.; 73.; 100.; 200.; 400.; 800.; infinity ] in
    let count lo hi = List.length (List.filter (fun l -> l >= lo && l < hi) lats) in
    Printf.printf "%-8s (%4d valid) " name (List.length lats);
    let lo = ref 0. in
    List.iter
      (fun hi ->
        Printf.printf "[<%s:%4d] "
          (if hi = infinity then "inf" else Printf.sprintf "%.0fus" hi)
          (count !lo hi);
        lo := hi)
      buckets;
    (match lats with
    | [] -> ()
    | _ ->
      Printf.printf " min=%.1f med=%.1f"
        (List.fold_left Float.min infinity lats)
        (List.nth (List.sort compare lats) (List.length lats / 2)));
    print_newline ()
  in
  histogram "hidet" hidet_lats;
  histogram "autotvm" autotvm_lats;
  histogram "ansor" ansor_lats;
  Printf.printf
    "(paper: most of Hidet's ~180 schedules beat the 73us mark while the\n\
    \ sampled input-centric schedules form a long slow tail)\n"

let fig16 () =
  section "Figure 16: matmul latency on consecutive input sizes (us)";
  Printf.printf "%-6s %12s %12s %12s\n" "size" "autotvm" "ansor" "hidet";
  List.iter
    (fun size ->
      let m = size and n = size and k = size in
      let loop strategy trials seed =
        match
          IC.tune_gemm ~strategy ~trials ~device:dev ~seed ~m ~n ~k
            ~compile:(fun s -> LS.gemm ~m ~n ~k s)
            ()
        with
        | Some t -> Printf.sprintf "%12.1f" (us t.IC.latency)
        | None -> Printf.sprintf "%12s" "FAIL"
      in
      let hidet =
        match
          Tu.tune ~device:dev
            ~candidates:(Hidet_sched.Space.matmul_with_split_k ~m ~n)
            ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
            ()
        with
        | Some (_, _, st) -> Printf.sprintf "%12.1f" (us st.Tu.best_latency)
        | None -> Printf.sprintf "%12s" "FAIL"
      in
      Printf.printf "%-6d %s %s %s%s\n%!" size
        (loop IC.Random_search 1000 size)
        (loop IC.Evolutionary 800 (size + 7))
        hidet
        (if size = 2039 then "   <- prime" else ""))
    [ 2030; 2032; 2034; 2036; 2038; 2039; 2040; 2042; 2044; 2046; 2048 ];
  Printf.printf
    "(paper: the input-centric tuners fluctuate with the size's divisor\n\
    \ structure and find NO valid schedule at the prime 2039, while Hidet's\n\
    \ predicated hardware-centric schedules stay flat)\n"

let fig17 () =
  section "Figure 17: ResNet-50 latency across batch sizes (ms)";
  let engines : (module E.S) list =
    [ (module Lib.Ort); (module IC.Autotvm); (module IC.Ansor); (module HE) ]
  in
  Printf.printf "%-8s" "batch";
  List.iter (fun (module Eng : E.S) -> Printf.printf "%14s" Eng.name) engines;
  print_newline ();
  List.iter
    (fun batch ->
      Printf.printf "%-8d%!" batch;
      List.iter
        (fun (module Eng : E.S) ->
          let r = Eng.compile dev (M.resnet50 ~batch ()) in
          Printf.printf "%14.2f%!" (ms r.E.latency))
        engines;
      print_newline ())
    [ 1; 4; 8 ];
  Printf.printf
    "(paper: the tuners beat ONNX Runtime at small batch but lose their edge\n\
    \ at batch 8 where double buffering dominates; Hidet wins at all sizes)\n"

let fig18 () =
  section "Figure 18: Conv2d-BN-ReLU sub-graphs of ResNet-50 (us)";
  let subgraph (x_shape, w_shape, stride, pad_h, pad_w) =
    let g = G.create () in
    G.name g "conv_bn_relu";
    let x = G.input g x_shape in
    let w = G.constant_rand g ~seed:5 w_shape in
    let oc = List.hd w_shape in
    let scale = G.constant_rand g ~seed:6 [ oc ] in
    let shift = G.constant_rand g ~seed:7 [ oc ] in
    let c = G.add_op g (Op.Conv2d { stride; pad_h; pad_w }) [ x; w ] in
    let out = G.relu g (G.scale_shift g c ~scale ~shift) in
    G.set_outputs g [ out ];
    g
  in
  Printf.printf "%-4s %-22s %-16s %10s %10s %10s\n" "#" "input" "weight" "ort"
    "ansor" "hidet";
  List.iteri
    (fun i cfg ->
      let x_shape, w_shape, _, _, _ = cfg in
      let lat (module Eng : E.S) = (Eng.compile dev (subgraph cfg)).E.latency in
      Printf.printf "%-4d %-22s %-16s %10.1f %10.1f %10.1f\n%!" (i + 1)
        (String.concat "x" (List.map string_of_int x_shape))
        (String.concat "x" (List.map string_of_int w_shape))
        (us (lat (module Lib.Ort)))
        (us (lat (module IC.Ansor)))
        (us (lat (module HE))))
    (resnet_convs ());
  Printf.printf
    "(paper: implicit-GEMM convolution with fused im2col/BN/ReLU and\n\
    \ parallel-k reduction lets Hidet beat both on most shapes, especially\n\
    \ the small-spatial late stages)\n"

let fig19 () =
  section "Figure 19: TensorRT vs Hidet (ms)";
  Printf.printf "%-14s %12s %12s %10s\n" "Model" "tensorrt" "hidet" "trt/hidet";
  List.iter
    (fun model ->
      let trt = (e2e (module Lib.Tensorrt) model).E.latency in
      let hidet = (e2e (module HE) model).E.latency in
      Printf.printf "%-14s %12.2f %12.2f %9.2fx\n%!" model (ms trt) (ms hidet)
        (trt /. hidet))
    models;
  Printf.printf
    "(paper: Hidet wins or ties on the CNNs thanks to per-shape tuning;\n\
    \ TensorRT wins on Bert/GPT-2 with its dedicated fused-attention kernels)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_double_buffer () =
  section "Ablation: double buffering (the paper's Fig. 5 optimization)";
  Printf.printf "%-22s %12s %12s %8s\n" "matmul" "db=off (us)" "db=on (us)" "gain";
  List.iter
    (fun (m, n, k) ->
      let best ~allow_db =
        let candidates =
          List.filter
            (fun (c : MT.config) ->
              (allow_db || c.MT.stages = 1) && not c.MT.use_tensor_core)
            (Hidet_sched.Space.matmul_with_split_k ~m ~n)
        in
        match
          Tu.tune ~device:dev ~candidates
            ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
            ()
        with
        | Some (_, _, st) -> st.Tu.best_latency
        | None -> infinity
      in
      let off = best ~allow_db:false and on_ = best ~allow_db:true in
      Printf.printf "%-22s %12.1f %12.1f %7.2fx\n"
        (Printf.sprintf "%dx%dx%d" m n k)
        (us off) (us on_) (off /. on_))
    [ (1024, 1024, 1024); (2048, 2048, 2048); (512, 512, 4096) ]

let ablation_split_k () =
  section "Ablation: split-k parallel reduction (paper section 6.2.4)";
  Printf.printf "%-22s %12s %14s %8s\n" "matmul" "sk=1 (us)" "tuned sk (us)" "gain";
  List.iter
    (fun (m, n, k) ->
      let best ~allow_sk =
        let candidates =
          List.filter
            (fun (c : MT.config) -> allow_sk || c.MT.split_k = 1)
            (Hidet_sched.Space.matmul_with_split_k ~m ~n)
        in
        match
          Tu.tune ~device:dev ~candidates
            ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
            ()
        with
        | Some (cfg, _, st) -> (st.Tu.best_latency, cfg.MT.split_k)
        | None -> (infinity, 1)
      in
      let off, _ = best ~allow_sk:false in
      let on_, sk = best ~allow_sk:true in
      Printf.printf "%-22s %12.1f %14.1f %7.2fx (sk=%d)\n"
        (Printf.sprintf "%dx%dx%d" m n k)
        (us off) (us on_) (off /. on_) sk)
    [ (512, 49, 4608); (64, 64, 4096); (2048, 49, 1024) ]

let ablation_fusion () =
  section "Ablation: post-scheduling fusion on end-to-end models";
  List.iter
    (fun name ->
      let lat options =
        let _, r = HE.compile_plan ~options dev (M.by_name name) in
        (r.E.latency, r.E.kernel_count)
      in
      let on_, k_on = lat HE.default_options in
      let off, k_off = lat { HE.default_options with HE.fuse = false } in
      Printf.printf
        "%-14s fused: %8.2f ms (%3d kernels)   unfused: %8.2f ms (%3d \
         kernels)   gain %.2fx\n%!"
        name (ms on_) k_on (ms off) k_off (off /. on_))
    [ "resnet50"; "bert" ]

let ablation_tensor_core () =
  section "Ablation: tensor-core MMA path (TF32) vs CUDA-core fp32";
  List.iter
    (fun name ->
      let lat options =
        let _, r = HE.compile_plan ~options dev (M.by_name name) in
        r.E.latency
      in
      let fp32 = lat HE.default_options in
      let tf32 = lat { HE.default_options with HE.allow_tensor_core = true } in
      Printf.printf
        "%-14s fp32: %8.2f ms   tf32 tensor cores: %8.2f ms   gain %.2fx\n%!"
        name (ms fp32) (ms tf32) (fp32 /. tf32))
    [ "resnet50"; "bert" ]

let ablation_device_sweep () =
  section "Ablation: hardware-centric retargeting (RTX 3090 vs A100)";
  Printf.printf
    "The schedule space is defined by hardware limits, not input sizes, so\n\
     retargeting is just re-running the one-minute exhaustive tuner:\n";
  List.iter
    (fun (m, n, k) ->
      Printf.printf "matmul %dx%dx%d\n" m n k;
      List.iter
        (fun device ->
          match
            Tu.tune ~device
              ~candidates:(Hidet_sched.Space.matmul_with_split_k ~m ~n)
              ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
              ()
          with
          | Some (cfg, _, st) ->
            Printf.printf "  %-8s best %-28s %8.1f us\n"
              device.Hidet_gpu.Device.name (MT.config_to_string cfg)
              (us st.Tu.best_latency)
          | None -> Printf.printf "  %-8s no feasible schedule\n" device.Hidet_gpu.Device.name)
        [ Hidet_gpu.Device.rtx3090; Hidet_gpu.Device.a100 ])
    [ (1024, 1024, 1024); (512, 49, 4608) ];
  (* End-to-end: the same model retuned for each device. *)
  List.iter
    (fun device ->
      let r =
        HE.compile device (M.resnet50 ())
      in
      Printf.printf "resnet50 on %-8s %8.2f ms (%d kernels)\n"
        device.Hidet_gpu.Device.name (ms r.E.latency) r.E.kernel_count)
    [ Hidet_gpu.Device.rtx3090; Hidet_gpu.Device.a100 ]

let tuning_service () =
  section "Tuning service: parallel candidate measurement + schedule cache";
  let m = 512 and n = 49 and k = 4608 in
  let candidates = Hidet_sched.Space.matmul_with_split_k ~m ~n in
  let compile cfg = MT.compile ~a_batched:false ~b_batched:true ~m ~n ~k cfg in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Warm up once so allocator effects don't favor either path. *)
  ignore (Tu.tune ~parallel:false ~device:dev ~candidates ~compile ());
  let seq, seq_wall =
    time (fun () -> Tu.tune ~parallel:false ~device:dev ~candidates ~compile ())
  in
  let par, par_wall =
    time (fun () -> Tu.tune ~device:dev ~candidates ~compile ())
  in
  (match (seq, par) with
  | Some (cfg_s, _, st_s), Some (cfg_p, _, st_p) ->
    Printf.printf
      "matmul %dx%dx%d: %d candidates (%d measured, %d rejected)\n" m n k
      (List.length candidates) st_p.Tu.trials st_p.Tu.rejected;
    Printf.printf "  sequential: %8.1f ms wall (1 domain)\n" (ms seq_wall);
    Printf.printf "  parallel:   %8.1f ms wall (%d domains)  speedup %.2fx\n"
      (ms par_wall) st_p.Tu.workers (seq_wall /. par_wall);
    Printf.printf "  identical winner: %b (%s at %.1f us)\n"
      (cfg_s = cfg_p && st_s.Tu.best_latency = st_p.Tu.best_latency)
      (MT.config_to_string cfg_p)
      (us st_p.Tu.best_latency);
    if Domain.recommended_domain_count () < 4 then
      Printf.printf
      "  (only %d core(s) here: run on >= 4 cores for the >= 2x speedup)\n"
        (Domain.recommended_domain_count ())
  | _ -> print_endline "  tuner found no feasible schedule");
  (* Cache warm-start: a second compile of the same model performs zero
     fresh tuning trials. *)
  Hidet_sched.Schedule_cache.clear ();
  let cold = HE.compile dev (M.resnet50 ()) in
  let warm = HE.compile dev (M.resnet50 ()) in
  Printf.printf
    "resnet50 cold compile: %7.0f s fresh simulated tuning, %.2f s wall\n"
    cold.E.tuning_cost cold.E.compile_wall;
  Printf.printf
    "resnet50 warm compile: %7.0f s fresh (%.0f s served by cache), %.2f s wall\n"
    warm.E.tuning_cost warm.E.cached_tuning_cost warm.E.compile_wall;
  Printf.printf
    "(the warm compile must report 0 fresh seconds; cache holds %d workloads)\n"
    (Hidet_sched.Schedule_cache.size ())

(* ------------------------------------------------------------------ *)
(* BENCH files: one envelope, one gate list                            *)
(* ------------------------------------------------------------------ *)

(* Every experiment below that writes a BENCH file records its pass/fail
   gates with [gate] and ends with [write_bench], which emits the shared
   envelope {experiment, quick, cores, gates, ...experiment fields} and
   then fails the run if any gate failed (`make *-smoke` and CI rely on
   that exit code). *)

module J = Hidet_obs.Json

(* Set by --quick / --out in main; the default path is BENCH_<id>.json. *)
let quick = ref false
let out = ref None
let gates = ref []

(* A failing gate prints its FAIL line at once; the run still writes its
   BENCH file before exiting non-zero. *)
let gate ~name ~value ~bound ok msg =
  if not ok then Printf.eprintf "FAIL: %s\n" msg;
  gates :=
    J.Obj [ ("name", J.Str name); ("value", value); ("bound", bound); ("ok", J.Bool ok) ]
    :: !gates

let write_bench experiment fields =
  let path =
    Option.value !out ~default:(Printf.sprintf "BENCH_%s.json" experiment)
  in
  let recorded = List.rev !gates in
  gates := [];
  let json =
    J.Obj
      ([ ("experiment", J.Str experiment); ("quick", J.Bool !quick);
         ("cores", J.int (Domain.recommended_domain_count ()));
         ("gates", J.Arr recorded) ]
      @ fields)
  in
  Hidet_obs.Io.write_atomic path (fun oc ->
      output_string oc (J.to_string ~indent:true json ^ "\n"));
  Printf.printf "wrote %s\n" path;
  if List.exists (fun g -> J.member "ok" g = Some (J.Bool false)) recorded then
    exit 1

(* ------------------------------------------------------------------ *)
(* Simulator backends: legacy tree-walking vs closure-compiled         *)
(* ------------------------------------------------------------------ *)

let bench_interp () =
  section
    "bench: interp — legacy tree-walking vs closure-compiled vs native \
     execution";
  let module Metrics = Hidet_obs.Metrics in
  let module T = Hidet_tensor.Tensor in
  let stmt_counter = Metrics.counter "sim.statements" in
  let quick = !quick in
  let native_ok =
    match Hidet_gpu.Exec_ocaml.available () with
    | Ok () -> true
    | Error reason ->
        Printf.printf
          "note: native backend unavailable (%s); native column skipped\n"
          reason;
        false
  in
  let matmul =
    let m = 123 and n = 77 and k = 45 in
    ( Printf.sprintf "quickstart_matmul_%dx%dx%d" m n k,
      MT.compile ~m ~n ~k MT.default_config,
      [ T.rand ~seed:3 [ 1; m; k ]; T.rand ~seed:4 [ k; n ] ] )
  in
  let fused_conv =
    let x_shape = [ 1; 8; 14; 14 ] and w_shape = [ 16; 8; 3; 3 ] in
    let def =
      Op.to_def (Op.Conv2d { stride = 1; pad_h = 1; pad_w = 1 })
        [ x_shape; w_shape ]
    in
    let anchor = Hidet_sched.Rule_based.schedule def in
    let relu = Op.to_def (Op.Unary Op.Relu) [ [ 1; 16; 14; 14 ] ] in
    ( "fused_conv_relu_1x8x14x14_oc16_k3",
      Hidet_fusion.Fuse.fuse_epilogue anchor relu,
      [ T.rand ~seed:5 x_shape; T.rand ~seed:6 w_shape ] )
  in
  let time reps f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  Printf.printf "%-36s %12s %12s %12s %14s %14s %14s %8s %8s\n" "workload"
    "stmts/launch" "legacy (ms)" "compiled(ms)" "legacy st/s" "compiled st/s"
    "native st/s" "speedup" "nat/cmp";
  let rows =
    List.map
      (fun (name, c, inputs) ->
        (* A warm run (also JIT/allocator warm-up) yields the per-launch
           statement count; all backends execute the same statements, so one
           count serves every throughput figure. *)
        let before = Metrics.value stmt_counter in
        ignore (C.run c inputs);
        let stmts = Metrics.value stmt_counter - before in
        let wall_legacy =
          time (if quick then 1 else 3) (fun () -> C.run ~legacy:true c inputs)
        in
        let wall_compiled =
          time (if quick then 3 else 10) (fun () -> C.run c inputs)
        in
        let native_sps =
          if not native_ok then None
          else begin
            (* Warm run pays codegen + ocamlopt + dynlink once; the timed
               runs below hit the per-process memo, which is the steady
               state the backend exists for. *)
            ignore (C.run ~backend:`Native c inputs);
            let wall =
              time
                (if quick then 3 else 10)
                (fun () -> C.run ~backend:`Native c inputs)
            in
            Some (float_of_int stmts /. wall)
          end
        in
        let legacy_sps = float_of_int stmts /. wall_legacy in
        let compiled_sps = float_of_int stmts /. wall_compiled in
        let speedup = compiled_sps /. legacy_sps in
        let nat_col =
          match native_sps with
          | None -> Printf.sprintf "%14s" "-"
          | Some n -> Printf.sprintf "%14.3g" n
        in
        let ratio_col =
          match native_sps with
          | None -> Printf.sprintf "%8s" "-"
          | Some n -> Printf.sprintf "%7.1fx" (n /. compiled_sps)
        in
        Printf.printf "%-36s %12d %12.2f %12.2f %14.3g %14.3g %s %7.1fx %s\n%!"
          name stmts (ms wall_legacy) (ms wall_compiled) legacy_sps compiled_sps
          nat_col speedup ratio_col;
        (name, stmts, wall_legacy, wall_compiled, legacy_sps, compiled_sps,
         native_sps))
      [ matmul; fused_conv ]
  in
  (* The compiled backend exists to be faster than the tree walker, and the
     native backend to be faster than the closure compiler (on the matmul
     quickstart, where the ocamlopt cost is amortized by the memo); treat a
     slowdown as a failure so `make bench-interp-smoke` / `make native-smoke`
     gate on it. *)
  List.iter
    (fun (name, _, _, _, lsps, csps, nsps) ->
      gate ~name:("compiled_speedup/" ^ name) ~value:(J.Num (csps /. lsps))
        ~bound:(J.Num 1.) (csps >= lsps)
        (Printf.sprintf "compiled backend slower than legacy on %s" name);
      match nsps with
      | Some n when name = (fun (n, _, _) -> n) matmul ->
          gate ~name:("native_vs_compiled/" ^ name) ~value:(J.Num (n /. csps))
            ~bound:(J.Num 1.) (n > csps)
            (Printf.sprintf
               "native backend not faster than closure backend on %s \
                (native %.3g st/s vs compiled %.3g st/s)"
               name n csps)
      | _ -> ())
    rows;
  write_bench "interp"
    [ ("native_available", J.Bool native_ok);
      ( "workloads",
        J.Arr
          (List.map
             (fun (name, stmts, wl, wc, lsps, csps, nsps) ->
               let native_fields =
                 match nsps with
                 | None -> [ ("native_stmts_per_s", J.Null) ]
                 | Some n ->
                     [ ("native_stmts_per_s", J.Num n);
                       ("native_vs_compiled", J.Num (n /. csps)) ]
               in
               J.Obj
                 ([ ("name", J.Str name); ("statements_per_launch", J.int stmts);
                    ("legacy_wall_s", J.Num wl); ("compiled_wall_s", J.Num wc);
                    ("legacy_stmts_per_s", J.Num lsps);
                    ("compiled_stmts_per_s", J.Num csps) ]
                 @ native_fields
                 @ [ ("speedup", J.Num (csps /. lsps)) ]))
             rows) ) ]

(* ------------------------------------------------------------------ *)
(* Serving: throughput and tail latency vs offered load                *)
(* ------------------------------------------------------------------ *)

let bench_serve () =
  section "bench: serve — dynamic batching vs batch-1 under offered load";
  let module S = Hidet_serve in
  let quick = !quick in
  let model =
    S.Registry.load
      ~engine:(module HE)
      ~device:dev ~buckets:[ 1; 2; 4; 8 ] (S.Registry.Zoo "tiny_cnn")
  in
  let deadline = 0.3 and scale = 2000. and seed = 11 in
  let cfg batching =
    {
      S.Server.batcher =
        {
          S.Batcher.buckets = [ 1; 2; 4; 8 ];
          max_wait = 0.02;
          queue_cap = 48;
          batching;
        };
      workers = 2;
      max_inflight = 2;
      service_scale = scale;
    }
  in
  let duration = if quick then 1.5 else 4.0 in
  let rates = if quick then [ 30.; 120.; 360. ] else [ 20.; 60.; 120.; 240.; 480. ] in
  (* The sweep runs in virtual time only: the schedule (batch compositions,
     shed sets, latency percentiles) is exact and free; real execution is
     covered by the verified point below. *)
  let point batching rps =
    let lg =
      {
        S.Loadgen.profile = S.Loadgen.Open_loop { rps };
        duration;
        deadline;
        burst = None;
        seed;
      }
    in
    let sched =
      S.Server.simulate (cfg batching) ~latency:(S.Registry.latency model) lg
    in
    (rps, batching, S.Server.stats sched, S.Server.slo_verdict ~duration sched)
  in
  let rows =
    List.concat_map (fun rps -> [ point true rps; point false rps ]) rates
  in
  Printf.printf "%-8s %-8s %8s %8s %6s %6s %10s %10s %10s %8s\n" "rps"
    "batching" "offered" "done" "shed" "rej" "thru(r/s)" "p99(ms)" "meanB"
    "alerts";
  List.iter
    (fun (rps, batching, (s : S.Server.stats), slo) ->
      Printf.printf "%-8.0f %-8b %8d %8d %6d %6d %10.1f %10.1f %10.2f %8s\n"
        rps batching s.S.Server.offered s.S.Server.completed s.S.Server.shed
        s.S.Server.rejected s.S.Server.throughput
        (s.S.Server.e2e_p99 *. 1e3)
        s.S.Server.mean_batch
        (if S.Slo.fired slo then "FIRING" else "ok"))
    rows;
  (* One short run with real execution: every served response must be
     bit-identical to running its request alone through the batch-1 plan. *)
  let exec_lg =
    {
      S.Loadgen.profile = S.Loadgen.Open_loop { rps = 40. };
      duration = (if quick then 0.5 else 1.0);
      deadline;
      burst = None;
      seed;
    }
  in
  let exec_report = S.Server.run (cfg true) model exec_lg in
  let exec_mismatches = Option.value exec_report.S.Server.mismatches ~default:(-1) in
  Printf.printf
    "exec check: %d responses executed, %d mismatches vs batch-1 plan\n"
    (List.length exec_report.S.Server.responses)
    exec_mismatches;
  (* Gates (make serve-smoke relies on these): *)
  let find b r =
    let _, _, s, slo =
      List.find (fun (rps, bt, _, _) -> bt = b && rps = r) rows
    in
    (s, slo)
  in
  let lo = List.hd rates and hi = List.nth rates (List.length rates - 1) in
  let low_b, low_slo = find true lo in
  let low_misses =
    low_b.S.Server.shed + low_b.S.Server.rejected + low_b.S.Server.deadline_miss
  in
  gate ~name:"low_load_misses" ~value:(J.int low_misses) ~bound:(J.int 0)
    (low_misses = 0)
    "batched serving at low load must meet the deadline for every request";
  gate ~name:"low_load_alert" ~value:(J.Bool (S.Slo.fired low_slo))
    ~bound:(J.Bool false)
    (not (S.Slo.fired low_slo))
    "no burn-rate alert may fire at low load";
  let (hi_b, hi_slo), (hi_n, _) = (find true hi, find false hi) in
  gate ~name:"overload_alert" ~value:(J.Bool (S.Slo.fired hi_slo))
    ~bound:(J.Bool true) (S.Slo.fired hi_slo)
    "overload must fire a burn-rate alert (budget is burning)";
  gate ~name:"overload_batching_speedup"
    ~value:(J.Num (hi_b.S.Server.throughput /. hi_n.S.Server.throughput))
    ~bound:(J.Num 2.)
    (hi_b.S.Server.throughput > hi_n.S.Server.throughput *. 2.)
    "at saturation, dynamic batching must out-serve batch-1 dispatch";
  gate ~name:"overload_mean_batch" ~value:(J.Num hi_b.S.Server.mean_batch)
    ~bound:(J.Num 1.)
    (hi_b.S.Server.mean_batch > 1.)
    "overload must actually coalesce requests into batches";
  gate ~name:"overload_shed" ~value:(J.int hi_b.S.Server.shed) ~bound:(J.int 0)
    (hi_b.S.Server.shed > 0)
    "overload must shed requests that cannot meet their deadline";
  gate ~name:"overload_rejected" ~value:(J.int hi_b.S.Server.rejected)
    ~bound:(J.int 0)
    (hi_b.S.Server.rejected > 0)
    "overload must exert backpressure at the bounded queue";
  let tail_bound = deadline +. (S.Registry.latency model 8 *. scale) +. 1e-9 in
  gate ~name:"overload_p99_s" ~value:(J.Num hi_b.S.Server.e2e_p99)
    ~bound:(J.Num tail_bound)
    (hi_b.S.Server.e2e_p99 <= tail_bound)
    (Printf.sprintf
       "admitted p99 must stay bounded under overload (%.1f ms > %.1f ms)"
       (hi_b.S.Server.e2e_p99 *. 1e3)
       (tail_bound *. 1e3));
  let responses = List.length exec_report.S.Server.responses in
  gate ~name:"exec_mismatches" ~value:(J.int exec_mismatches) ~bound:(J.int 0)
    (responses > 0 && exec_mismatches = 0)
    "every executed response must match the batch-1 plan bit for bit";
  write_bench "serve"
    [ ("model", J.Str "tiny_cnn"); ("engine", J.Str "hidet"); ("seed", J.int seed);
      ("deadline_ms", J.Num (deadline *. 1e3)); ("service_scale", J.Num scale);
      ("workers", J.int 2); ("buckets", J.Arr (List.map J.int [ 1; 2; 4; 8 ]));
      ( "sweep",
        J.Arr
          (List.map
             (fun (rps, batching, s, slo) ->
               J.Obj
                 [ ("rps", J.Num rps); ("batching", J.Bool batching);
                   ("stats", S.Server.stats_to_json s);
                   ("slo", S.Slo.verdict_to_json slo) ])
             rows) );
      ( "exec_check",
        J.Obj [ ("responses", J.int responses); ("mismatches", J.int exec_mismatches) ]
      ) ]

(* ------------------------------------------------------------------ *)
(* Sharding: tensor/pipeline parallelism under the cluster cost model  *)
(* ------------------------------------------------------------------ *)

let bench_shard () =
  section
    "bench: shard — multi-device partitioning under the interconnect cost \
     model";
  let module Shard = Hidet_shard.Shard in
  let module Cluster = Hidet_gpu.Cluster in
  (* Tensor parallelism: one large matmul whose per-device compute dwarfs
     the collective epilogue, so splitting it should approach linear. *)
  let tp_m = 1024 and tp_n = 1024 and tp_k = 4096 in
  let tp_graph () =
    let g = G.create () in
    G.name g (Printf.sprintf "tp_matmul_%dx%dx%d" tp_m tp_n tp_k);
    let a = G.input g [ 1; tp_m; tp_k ] in
    let w = G.constant_rand g ~seed:21 [ tp_k; tp_n ] in
    G.set_outputs g [ G.matmul g a w ];
    g
  in
  (* Pipeline parallelism: a deep chain of equal-cost stages, batch large
     enough to stream microbatches through. *)
  let pp_layers = 8 and pp_b = 128 and pp_d = 1024 in
  let staged_graph () =
    let g = G.create () in
    G.name g (Printf.sprintf "staged_mlp_%dx%d" pp_layers pp_d);
    let x = G.input g [ pp_b; 32; pp_d ] in
    let h = ref x in
    for i = 1 to pp_layers do
      let w = G.constant_rand g ~seed:(30 + i) [ pp_d; pp_d ] in
      h := G.relu g (G.matmul g !h w)
    done;
    G.set_outputs g [ !h ];
    g
  in
  let estimate ~strategy ~devices g =
    let cl = Cluster.homogeneous ~n:devices dev in
    Shard.estimate (Shard.plan ~strategy cl g)
  in
  Printf.printf "%-28s %-14s %4s %12s %12s %12s %9s\n" "graph" "strategy" "dev"
    "compute(us)" "comm(us)" "total(us)" "speedup";
  let row name strategy devices (e : Shard.estimate) =
    Printf.printf "%-28s %-14s %4d %12.1f %12.1f %12.1f %8.2fx\n%!" name
      (Shard.strategy_to_string strategy)
      devices (us e.Shard.compute) (us e.Shard.comm) (us e.Shard.total)
      e.Shard.speedup;
    (name, Shard.strategy_to_string strategy, devices, e)
  in
  let tp_rows =
    List.concat_map
      (fun devices ->
        List.map
          (fun strategy ->
            row "tp_matmul" strategy devices
              (estimate ~strategy ~devices (tp_graph ())))
          [ Shard.Tensor Shard.Gather; Shard.Tensor Shard.Reduce ])
      [ 2; 4 ]
  in
  let pp_strategy = Shard.Pipeline { microbatches = 4 } in
  let pp_rows =
    List.map
      (fun devices ->
        row "staged_mlp" pp_strategy devices
          (estimate ~strategy:pp_strategy ~devices (staged_graph ())))
      [ 2; 4 ]
  in
  (* Small executed equivalence points: the cost-model rows above never
     run; these do, and must meet each strategy's contract (bit-exact, or
     the tensor-reduce ULP budget). *)
  let small_mm () =
    let g = G.create () in
    G.name g "small_matmul_48x64x128";
    let a = G.input g [ 4; 48; 128 ] in
    let w = G.constant_rand g ~seed:23 [ 128; 64 ] in
    G.set_outputs g [ G.matmul g a w ];
    g
  in
  let small_mlp () =
    let g = G.create () in
    G.name g "small_mlp_4x32";
    let x = G.input g [ 8; 8; 32 ] in
    let h = ref x in
    for i = 1 to 4 do
      let w = G.constant_rand g ~seed:(40 + i) [ 32; 32 ] in
      h := G.relu g (G.matmul g !h w)
    done;
    G.set_outputs g [ !h ];
    g
  in
  let verify_point name strategy g =
    let cl = Cluster.homogeneous ~n:2 dev in
    let shard = Shard.plan ~strategy cl g in
    let inputs =
      List.mapi
        (fun i id -> Hidet_tensor.Tensor.rand ~seed:(59 + i) (G.node_shape g id))
        (G.input_ids g)
    in
    match Shard.verify shard inputs with
    | Ok msg ->
      Printf.printf "verify %-14s %s: %s\n%!" name
        (Shard.strategy_to_string strategy)
        msg;
      (name, Shard.strategy_to_string strategy, true, msg)
    | Error msg ->
      Printf.printf "verify %-14s %s: FAILED %s\n%!" name
        (Shard.strategy_to_string strategy)
        msg;
      (name, Shard.strategy_to_string strategy, false, msg)
  in
  let verifies =
    (* let-sequenced so the progress lines print in declaration order *)
    let v1 = verify_point "small_matmul" Shard.Data (small_mm ()) in
    let v2 = verify_point "small_matmul" (Shard.Tensor Shard.Gather) (small_mm ()) in
    let v3 = verify_point "small_matmul" (Shard.Tensor Shard.Reduce) (small_mm ()) in
    let v4 =
      verify_point "small_mlp" (Shard.Pipeline { microbatches = 4 })
        (small_mlp ())
    in
    [ v1; v2; v3; v4 ]
  in
  (* Gates (make shard-smoke and CI rely on these): *)
  let tp_speedup ~devices =
    List.fold_left
      (fun acc (_, _, d, (e : Shard.estimate)) ->
        if d = devices then Float.max acc e.Shard.speedup else acc)
      0. tp_rows
  in
  let s2 = tp_speedup ~devices:2 and s4 = tp_speedup ~devices:4 in
  gate ~name:"tp_speedup_2dev" ~value:(J.Num s2) ~bound:(J.Num 1.6) (s2 >= 1.6)
    (Printf.sprintf
       "tensor-parallel matmul must reach >= 1.6x at 2 devices (got %.2fx)" s2);
  gate ~name:"tp_speedup_4dev" ~value:(J.Num s4) ~bound:(J.Num s2) (s4 > s2)
    (Printf.sprintf
       "tensor-parallel speedup must keep scaling at 4 devices (%.2fx <= \
        %.2fx)"
       s4 s2);
  let pp2 =
    let _, _, _, e = List.hd pp_rows in
    e.Shard.speedup
  in
  gate ~name:"pp_speedup_2dev" ~value:(J.Num pp2) ~bound:(J.Num 1.) (pp2 > 1.0)
    (Printf.sprintf
       "pipeline must beat single-device on the staged DAG (got %.2fx)" pp2);
  let all_rows = tp_rows @ pp_rows in
  List.iter
    (fun (name, strat, devices, (e : Shard.estimate)) ->
      gate
        ~name:(Printf.sprintf "comm_s/%s/%s/%d" name strat devices)
        ~value:(J.Num e.Shard.comm) ~bound:(J.Num 0.) (e.Shard.comm > 0.)
        "every multi-device plan must be billed a nonzero collective cost")
    all_rows;
  List.iter
    (fun (name, strat, ok, msg) ->
      gate
        ~name:(Printf.sprintf "verify/%s/%s" name strat)
        ~value:(J.Bool ok) ~bound:(J.Bool true) ok
        (Printf.sprintf "executed equivalence must hold for %s/%s: %s" name
           strat msg))
    verifies;
  let est_json (e : Shard.estimate) =
    J.Obj
      [ ("devices", J.int e.Shard.devices); ("compute_s", J.Num e.Shard.compute);
        ("comm_s", J.Num e.Shard.comm); ("total_s", J.Num e.Shard.total);
        ("baseline_s", J.Num e.Shard.baseline); ("speedup", J.Num e.Shard.speedup) ]
  in
  write_bench "shard"
    [ ( "link",
        J.Obj
          [ ("name", J.Str "nvlink"); ("latency_s", J.Num Cluster.nvlink.Cluster.latency);
            ("bandwidth_Bps", J.Num Cluster.nvlink.Cluster.bandwidth) ] );
      ( "sweep",
        J.Arr
          (List.map
             (fun (name, strat, devices, e) ->
               J.Obj
                 [ ("graph", J.Str name); ("strategy", J.Str strat);
                   ("devices", J.int devices); ("estimate", est_json e) ])
             all_rows) );
      ( "verify",
        J.Arr
          (List.map
             (fun (name, strat, ok, msg) ->
               J.Obj
                 [ ("graph", J.Str name); ("strategy", J.Str strat); ("ok", J.Bool ok);
                   ("detail", J.Str msg) ])
             verifies) ) ]

(* ------------------------------------------------------------------ *)
(* Guided search vs the exhaustive oracle on the widened space         *)
(* ------------------------------------------------------------------ *)

let bench_tune () =
  section
    "bench: tune — guided search vs the exhaustive oracle on the widened \
     schedule space";
  let module Se = Hidet_sched.Search in
  let module Space = Hidet_sched.Space in
  let quick = !quick in
  (* The interp quickstart matmul plus two Table 1 GEMMs. *)
  let shapes =
    if quick then [ (123, 77, 45) ]
    else [ (123, 77, 45); (1024, 1024, 1024); (512, 512, 4096) ]
  in
  let tune ?search ~m ~n ~k candidates =
    match
      Tu.tune ?search ~device:dev ~candidates
        ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
        ()
    with
    | Some (cfg, _, st) -> (cfg, st)
    | None -> failwith "bench tune: no feasible schedule"
  in
  Printf.printf "%-18s %6s %8s %12s %8s %12s %7s %7s\n" "shape" "cands"
    "ex.tr" "ex.best(us)" "gu.tr" "gu.best(us)" "ratio" "frac";
  let rows =
    List.map
      (fun (m, n, k) ->
        let candidates = Space.matmul_with_split_k ~m ~n in
        let ncand = List.length candidates in
        let ecfg, est = tune ~m ~n ~k candidates in
        let gcfg, gst = tune ~search:(Se.guided_matmul ()) ~m ~n ~k candidates in
        let ratio = gst.Tu.best_latency /. est.Tu.best_latency in
        let frac = float_of_int gst.Tu.trials /. float_of_int ncand in
        Printf.printf "%-18s %6d %8d %12.2f %8d %12.2f %6.3fx %6.1f%%\n%!"
          (Printf.sprintf "%dx%dx%d" m n k)
          ncand est.Tu.trials
          (us est.Tu.best_latency)
          gst.Tu.trials
          (us gst.Tu.best_latency)
          ratio (100. *. frac);
        (m, n, k, ncand, ecfg, est, gcfg, gst, ratio, frac))
      shapes
  in
  (* The widened dimensions must pay for themselves: on a bandwidth-bound
     GEMM (large output, tiny k) the best schedule of the full space must
     beat the best of the pre-widening space (no swizzle, stages <= 2). *)
  let bm, bn, bk = (2048, 2048, 64) in
  let widened = Space.matmul_with_split_k ~m:bm ~n:bn in
  let old_space =
    List.filter
      (fun (c : MT.config) -> (not c.MT.swizzle) && c.MT.stages <= 2)
      widened
  in
  let wcfg, wst = tune ~m:bm ~n:bn ~k:bk widened in
  let ocfg, ost = tune ~m:bm ~n:bn ~k:bk old_space in
  let gain = ost.Tu.best_latency /. wst.Tu.best_latency in
  Printf.printf
    "widened-space gate on %dx%dx%d: old best %s (%.2f us), widened best %s \
     (%.2f us, %.3fx)\n%!"
    bm bn bk (MT.config_to_string ocfg)
    (us ost.Tu.best_latency)
    (MT.config_to_string wcfg)
    (us wst.Tu.best_latency)
    gain;
  (* Gates (make tune-smoke and CI rely on these). *)
  List.iter
    (fun (m, n, k, _, _, _, _, _, ratio, frac) ->
      let shape = Printf.sprintf "%dx%dx%d" m n k in
      gate ~name:("guided_latency_ratio/" ^ shape) ~value:(J.Num ratio)
        ~bound:(J.Num 1.05) (ratio <= 1.05)
        (Printf.sprintf
           "guided must land within 5%% of the exhaustive best on %s (got \
            %.3fx)"
           shape ratio);
      gate ~name:("guided_measured_fraction/" ^ shape) ~value:(J.Num frac)
        ~bound:(J.Num 0.25) (frac <= 0.25)
        (Printf.sprintf
           "guided must measure <= 25%% of the candidates on %s (got %.1f%%)"
           shape (100. *. frac)))
    rows;
  gate ~name:"widened_gain" ~value:(J.Num gain) ~bound:(J.Num 1.)
    (wst.Tu.best_latency < ost.Tu.best_latency)
    "a widened-space schedule must beat the pre-widening best on the \
     bandwidth-bound GEMM";
  let widened_winner = wcfg.MT.swizzle || wcfg.MT.stages > 2 in
  gate ~name:"widened_winner_dimension" ~value:(J.Bool widened_winner)
    ~bound:(J.Bool true) widened_winner
    (Printf.sprintf
       "the bandwidth-bound winner must use a widened dimension (got %s)"
       (MT.config_to_string wcfg));
  let best cfg (st : Tu.stats) =
    [ ("trials", J.int st.Tu.trials); ("best_config", J.Str (MT.config_to_string cfg));
      ("best_latency_us", J.Num (us st.Tu.best_latency)) ]
  in
  write_bench "tune"
    [ ( "shapes",
        J.Arr
          (List.map
             (fun (m, n, k, ncand, ecfg, est, gcfg, gst, ratio, frac) ->
               J.Obj
                 [ ("shape", J.Str (Printf.sprintf "%dx%dx%d" m n k));
                   ("candidates", J.int ncand);
                   ("exhaustive", J.Obj (best ecfg est));
                   ("guided", J.Obj (best gcfg gst));
                   ("latency_ratio", J.Num ratio); ("measured_fraction", J.Num frac) ])
             rows) );
      ( "widened_gate",
        J.Obj
          [ ("shape", J.Str (Printf.sprintf "%dx%dx%d" bm bn bk));
            ("old_best_config", J.Str (MT.config_to_string ocfg));
            ("old_best_latency_us", J.Num (us ost.Tu.best_latency));
            ("widened_best_config", J.Str (MT.config_to_string wcfg));
            ("widened_best_latency_us", J.Num (us wst.Tu.best_latency));
            ("gain", J.Num gain) ] ) ]

(* ------------------------------------------------------------------ *)
(* Cycle-approximate fidelity vs the analytic ranking                  *)
(* ------------------------------------------------------------------ *)

(* Spearman rank correlation with average ranks for ties (Pearson on the
   rank vectors). 1.0 for degenerate inputs (n < 2 or a constant vector —
   a constant ranking cannot contradict the other one). *)
let spearman xs ys =
  let n = Array.length xs in
  if n < 2 then 1.
  else begin
    let ranks v =
      let idx = Array.init n (fun i -> i) in
      Array.sort (fun a b -> compare v.(a) v.(b)) idx;
      let r = Array.make n 0. in
      let i = ref 0 in
      while !i < n do
        let j = ref !i in
        while !j < n - 1 && v.(idx.(!j + 1)) = v.(idx.(!i)) do
          incr j
        done;
        let avg = (float_of_int (!i + !j) /. 2.) +. 1. in
        for t = !i to !j do
          r.(idx.(t)) <- avg
        done;
        i := !j + 1
      done;
      r
    in
    let rx = ranks xs and ry = ranks ys in
    let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let num = ref 0. and dx = ref 0. and dy = ref 0. in
    for i = 0 to n - 1 do
      let a = rx.(i) -. mx and b = ry.(i) -. my in
      num := !num +. (a *. b);
      dx := !dx +. (a *. a);
      dy := !dy +. (b *. b)
    done;
    if !dx = 0. || !dy = 0. then 1. else !num /. sqrt (!dx *. !dy)
  end

let bench_fidelity () =
  section
    "bench: fidelity — cycle-approximate model (coalescing, bank conflicts, \
     caches, warp scheduler) vs the analytic ranking";
  let module Space = Hidet_sched.Space in
  let module Fid = Hidet_cycle.Fidelity in
  let module PM = Hidet_gpu.Perf_model in
  let quick = !quick in
  let shapes =
    if quick then [ (256, 256, 256) ]
    else
      [ (1024, 1024, 1024); (2048, 2048, 64); (512, 512, 4096); (4096, 256, 1024) ]
  in
  (* The worst kernel dominates the extras attribution: for split-k plans
     report the cycle columns of the slowest (cycle-modeled) kernel. *)
  let extras_of (c : C.t) =
    let pick (best : (float * Fid.extras) option) k =
      let e, x = Fid.kernel dev k in
      let l = if e.PM.feasible then e.PM.latency else infinity in
      match best with Some (l0, _) when l0 >= l -> best | _ -> Some (l, x)
    in
    match List.fold_left pick None c.C.kernels with
    | Some (_, x) -> x
    | None -> failwith "bench fidelity: compiled op with no kernels"
  in
  let eval (m, n, k) =
    let all = Space.matmul_with_split_k ~m ~n in
    (* Quick mode strides the space down to <= 48 candidates — still both
       rankings over the same configs, just fewer of them. *)
    let candidates =
      if not quick then all
      else begin
        let arr = Array.of_list all in
        let stride = max 1 (Array.length arr / 48) in
        List.filteri (fun i _ -> i mod stride = 0) (Array.to_list arr)
      end
    in
    let measured =
      List.filter_map
        (fun cfg ->
          match MT.compile ~m ~n ~k cfg with
          | exception Invalid_argument _ -> None
          | compiled ->
            let la = C.latency ~fidelity:`Analytic dev compiled in
            let lc = C.latency ~fidelity:`Cycle dev compiled in
            if la < infinity && lc < infinity then
              Some (cfg, compiled, la, lc)
            else None)
        candidates
    in
    if measured = [] then failwith "bench fidelity: no feasible schedule";
    let la = Array.of_list (List.map (fun (_, _, l, _) -> l) measured) in
    let lc = Array.of_list (List.map (fun (_, _, _, l) -> l) measured) in
    let rho = spearman la lc in
    let argmin v =
      let best = ref 0 in
      Array.iteri (fun i x -> if x < v.(!best) then best := i) v;
      !best
    in
    let nth i = List.nth measured i in
    let acfg, acomp, ala, alc = nth (argmin la) in
    let ccfg, ccomp, cla, clc = nth (argmin lc) in
    let ax = extras_of acomp and cx = extras_of ccomp in
    (* When the winners differ, name the cycle-model terms (absent from the
       analytic model) on which the cycle winner beats the analytic one. *)
    let attribution =
      if acfg = ccfg then ""
      else
        String.concat "+"
          (List.filter_map
             (fun (cond, name) -> if cond then Some name else None)
             [
               (cx.Fid.txn_per_access < ax.Fid.txn_per_access -. 1e-9,
                "coalescing");
               (cx.Fid.conflict_factor < ax.Fid.conflict_factor -. 1e-9,
                "bank-conflicts");
               (cx.Fid.l1_hit +. cx.Fid.l2_hit
                > ax.Fid.l1_hit +. ax.Fid.l2_hit +. 1e-9,
                "cache");
             ])
    in
    ( m, n, k,
      List.length candidates,
      List.length measured,
      rho, acfg, ala, alc, ccfg, cla, clc, ax, cx, attribution )
  in
  Printf.printf "%-14s %6s %6s %9s %12s %12s %8s %s\n" "shape" "cands" "feas"
    "spearman" "an.best(us)" "cy.best(us)" "changed" "attribution";
  let rows =
    List.map
      (fun shape ->
        let (m, n, k, ncand, nfeas, rho, acfg, ala, _alc, ccfg, _cla, clc, _, _,
             attribution) as row =
          eval shape
        in
        Printf.printf "%-14s %6d %6d %9.3f %12.2f %12.2f %8s %s\n%!"
          (Printf.sprintf "%dx%dx%d" m n k)
          ncand nfeas rho (us ala) (us clc)
          (if acfg = ccfg then "no" else "yes")
          attribution;
        row)
      shapes
  in
  (* Gates (make fidelity-smoke and CI rely on these). *)
  List.iter
    (fun (m, n, k, _, _, rho, _, _, alc, _, _, clc, _, _, _) ->
      let shape = Printf.sprintf "%dx%dx%d" m n k in
      gate ~name:("spearman/" ^ shape) ~value:(J.Num rho) ~bound:(J.Num 0.35)
        (rho >= 0.35)
        (Printf.sprintf
           "analytic and cycle rankings must agree ordinally on %s (spearman \
            %.3f < 0.35)"
           shape rho);
      gate ~name:("cycle_winner_latency_us/" ^ shape) ~value:(J.Num (us clc))
        ~bound:(J.Num (us alc))
        (clc <= alc +. 1e-12)
        (Printf.sprintf
           "the cycle-ranked winner must be at least as good as the \
            analytic-ranked winner under the cycle model on %s"
           shape))
    rows;
  let explained =
    List.exists
      (fun (_, _, _, _, _, _, acfg, _, _, ccfg, _, _, _, _, attribution) ->
        acfg <> ccfg && attribution <> "")
      rows
  in
  gate ~name:"winner_change_explained" ~value:(J.Bool explained)
    ~bound:(J.Bool true) explained
    "at least one shape must change winners for a reason the analytic model \
     cannot see (coalescing, bank conflicts or caches)";
  let winner cfg la lc (x : Fid.extras) =
    J.Obj
      [ ("config", J.Str (MT.config_to_string cfg));
        ("analytic_latency_us", J.Num (us la)); ("cycle_latency_us", J.Num (us lc));
        ("txn_per_access", J.Num x.Fid.txn_per_access);
        ("conflict_factor", J.Num x.Fid.conflict_factor);
        ("l1_hit", J.Num x.Fid.l1_hit); ("l2_hit", J.Num x.Fid.l2_hit) ]
  in
  write_bench "fidelity"
    [ ( "shapes",
        J.Arr
          (List.map
             (fun (m, n, k, ncand, nfeas, rho, acfg, ala, alc, ccfg, cla, clc, ax,
                   cx, attribution) ->
               J.Obj
                 [ ("shape", J.Str (Printf.sprintf "%dx%dx%d" m n k));
                   ("candidates", J.int ncand); ("feasible", J.int nfeas);
                   ("spearman", J.Num rho);
                   ("analytic_winner", winner acfg ala alc ax);
                   ("cycle_winner", winner ccfg cla clc cx);
                   ("winner_changed", J.Bool (acfg <> ccfg));
                   ("attribution", J.Str attribution) ])
             rows) ) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the compiler itself                    *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Compiler micro-benchmarks (real wall-clock on this machine)";
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"enumerate matmul space"
        (Staged.stage (fun () ->
             ignore
               (List.length (Hidet_sched.Space.matmul_with_split_k ~m:512 ~n:49))));
      Test.make ~name:"instantiate matmul template"
        (Staged.stage (fun () ->
             ignore (MT.compile ~m:256 ~n:256 ~k:256 MT.default_config)));
      (let c = MT.compile ~m:256 ~n:256 ~k:256 MT.default_config in
       Test.make ~name:"analytic latency estimate"
         (Staged.stage (fun () -> ignore (C.latency dev c))));
      (let mapping = Hidet_task.Mapping.(repeat [ 4; 1 ] *> spatial [ 16; 8 ]) in
       Test.make ~name:"task-mapping lowering"
         (Staged.stage (fun () ->
              ignore
                (Hidet_task.Lower.on_workers mapping
                   ~worker:Hidet_ir.Expr.Thread_idx (fun _ -> Hidet_ir.Stmt.nop)))));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        (Toolkit.Instance.monotonic_clock)
        raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-34s %12.1f ns/run\n%!" name est
        | _ -> ())
      results
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig7", fig7);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("fig18", fig18);
    ("fig19", fig19);
    ("ablation_double_buffer", ablation_double_buffer);
    ("ablation_split_k", ablation_split_k);
    ("ablation_fusion", ablation_fusion);
    ("ablation_tensor_core", ablation_tensor_core);
    ("ablation_device_sweep", ablation_device_sweep);
    ("tuning_service", tuning_service);
    ("tune", bench_tune);
    ("fidelity", bench_fidelity);
    ("interp", bench_interp);
    ("serve", bench_serve);
    ("shard", bench_shard);
    ("micro", micro);
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--list" args then
    List.iter (fun (id, _) -> print_endline id) experiments
  else begin
    let only =
      let rec find = function
        | "--only" :: id :: _ -> Some id
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    (* --cache FILE: warm-start the schedule cache across benchmark runs. *)
    let cache_file =
      let rec find = function
        | "--cache" :: path :: _ -> Some path
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    (* --quick / --out FILE: fewer repetitions and the BENCH file path for
       the experiments that write one (interp, serve, shard, tune,
       fidelity). *)
    quick := List.mem "--quick" args;
    (out :=
       let rec find = function
         | "--out" :: path :: _ -> Some path
         | _ :: rest -> find rest
         | [] -> None
       in
       find args);
    (* --trace FILE: record spans for the whole run, export Chrome JSON. *)
    let trace_file =
      let rec find = function
        | "--trace" :: path :: _ -> Some path
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    (match cache_file with
    | Some path when Sys.file_exists path -> (
      match Hidet_sched.Schedule_cache.load path with
      | Ok n -> Printf.printf "schedule cache: warm-started with %d entries\n" n
      | Error msg -> Printf.printf "schedule cache: ignoring %s (%s)\n" path msg)
    | _ -> ());
    let t0 = Unix.gettimeofday () in
    Printf.printf "Hidet reproduction benchmarks (device: %s)\n"
      (Format.asprintf "%a" Hidet_gpu.Device.pp dev);
    let run_selected () =
      match only with
      | Some id -> (
        match List.assoc_opt id experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s (try --list)\n" id;
          exit 1)
      | None -> List.iter (fun (_, f) -> f ()) experiments
    in
    (match trace_file with
    | None -> run_selected ()
    | Some path ->
      let (), events = Hidet_obs.Trace.with_collector run_selected in
      Hidet_obs.Chrome_trace.save path events;
      Printf.printf "\ntrace: wrote %d events to %s\n" (List.length events)
        path);
    (match cache_file with
    | Some path -> (
      match Hidet_sched.Schedule_cache.save path with
      | () ->
        Printf.printf "schedule cache: saved %d entries to %s\n"
          (Hidet_sched.Schedule_cache.size ()) path
      | exception Sys_error msg ->
        Printf.eprintf "schedule cache: could not save %s (%s)\n" path msg)
    | None -> ());
    Printf.printf "\nTotal benchmark wall time: %.1f s\n"
      (Unix.gettimeofday () -. t0)
  end
