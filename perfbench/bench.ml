(* The repository benchmark: one process runs one workload, checks its
   outputs, and prints its metrics as the last line of stdout.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--nproc N] [--cpu C]

   Workloads (why each exists is in perfbench/README.md):
   - zoo_compile: cold and warm compiles of the five paper models, and
     seeded batch-1 inferences of the four tiny zoo architectures, each
     checked against the CPU reference interpreter;
   - serve_closure / serve_native: tiny_cnn served from batch buckets
     1,2,4,8 under seeded open-loop Poisson traffic; the virtual-time server
     decides the batches, which are then executed for real on the closure
     or the native simulator backend and verified.

   A run sets up three times, then repeats rounds of all its timed
   operations until [--seconds] have passed (at least two rounds), so every
   timing has samples spread over the whole run, and reports medians. The
   host's speed changes for seconds to minutes at a time, so every timed
   operation of an end-to-end metric is scaled to a reference host speed by
   the probes [Calib] runs between operations.

   With --trace 0 the result line holds the end-to-end metrics; with
   --trace 1 it holds the per-layer metrics of a run of two rounds, the
   second traced, folded from spans this file records around its calls into
   each library.
   Modeled GPU latency comes from the cost model and is only reported under
   a [modeled] unit, never as wall time. *)

module G = Hidet_graph.Graph
module Passes = Hidet_graph.Passes
module Reference = Hidet_graph.Reference
module Models = Hidet_models.Models
module Engine = Hidet_runtime.Engine
module Plan = Hidet_runtime.Plan
module Compiled = Hidet_sched.Compiled
module Cache = Hidet_sched.Schedule_cache
module MT = Hidet_sched.Matmul_template
module Space = Hidet_sched.Space
module Perf_model = Hidet_gpu.Perf_model
module Exec_ocaml = Hidet_gpu.Exec_ocaml
module Metrics = Hidet_obs.Metrics
module Parallel = Hidet_parallel.Parallel
module T = Hidet_tensor.Tensor
module S = Hidet_serve

let device = Hidet_gpu.Device.rtx3090
let now = Unix.gettimeofday
let span = Spans.record

(* [f ()] and its wall scaled to the reference host speed: every timing of
   an end-to-end metric is taken with this. *)
let scaled = Calib.timed

let zoo = List.map fst Models.all
let buckets = [ 1; 2; 4; 8 ]
let setups = 3

(* Warm compiles are spread across each round's execution pass, one
   before every [n]-th execution, so their samples span the round: a warm
   zoo pass takes about 0.25 s, a warm [Registry.load] of tiny_cnn about
   10 ms. *)
let warm_pass_every = 25
let warm_load_every = 10

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Statistics and counters                                            *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0 then 0. else float a /. float b
let counter name = Metrics.value (Metrics.counter name)

(* [f ()] and the change of each named counter across it. *)
let counting names f =
  let before = List.map (fun n -> (n, counter n)) names in
  let r = f () in
  let delta = List.map (fun (n, c) -> (n, counter n - c)) before in
  (r, fun n -> List.assoc n delta)

(* Compacts the heap between timed phases, so garbage and heap growth left
   by one phase are not collected inside the next one's timings. *)
let settle () = Gc.compact ()

(* [f] over [items], running [side ()] before every [every]-th item:
   the results of [f] and of [side], in order. *)
let interleaved ~every side f items =
  let sides = ref [] in
  let results =
    List.mapi
      (fun i x ->
        if i mod every = 0 then sides := side () :: !sides;
        f x)
      items
  in
  (results, List.rev !sides)

(* [passes] are rounds of [(key, wall)] lists: per key of the first round,
   its median wall over all rounds. *)
let median_per_key passes =
  match passes with
  | [] -> []
  | first :: _ ->
    List.map (fun (k, _) -> (k, median (List.filter_map (List.assoc_opt k) passes))) first

(* ------------------------------------------------------------------ *)
(* What one run reports                                               *)
(* ------------------------------------------------------------------ *)

let e2e_units =
  [
    ("setup_s", "s");
    ("cold_compile_s", "s");
    ("warm_compile_s", "s");
    ("served_rps", "1/s");
    ("batch_exec_ms.p50", "ms");
    ("batch_exec_ms.p90", "ms");
    ("peak_heap_mb", "MB");
  ]

let layers = [ "core"; "graph"; "sched"; "gpu_sim"; "runtime"; "serve" ]

let layer_units =
  [ ("graph.Passes.optimize_ms", "ms"); ("graph.Passes.partition_ms", "ms") ]
  @ List.concat_map
      (fun m -> [ ("compile." ^ m ^ ".cold_s", "s"); ("compile." ^ m ^ ".warm_s", "s") ])
      zoo
  @ [
      ("sched.Tuner.trials", "count");
      ("sched.Tuner.trials_per_s", "1/s");
      ("sched.Schedule_cache.hit_ratio", "ratio");
      ("sched.Matmul_template.compile_us", "us");
      ("gpu_sim.Perf_model.estimate_us", "us");
      ("ir.nodes_simplified", "count");
    ]
  @ List.map (fun m -> ("runtime.Plan.kernels." ^ m, "count")) zoo
  @ [
      ("fusion.fused_prologues", "count");
      ("fusion.fused_epilogues", "count");
      ("fusion.fallback_kernels", "count");
      ("runtime.Plan.modeled_latency_ms", "modeled_ms");
      ("serve.Registry.load_s", "s");
      ("serve.Server.simulate_ms", "ms");
    ]
  @ List.map (fun b -> (Printf.sprintf "serve.Pool.execute_ms.b%d" b, "ms")) buckets
  @ [
      ("serve.Loadgen.synth_inputs_ms", "ms");
      ("serve.Pool.check_ms", "ms");
      ("gpu_sim.statements", "count");
      ("gpu_sim.statements_per_s", "1/s");
      ("gpu_sim.Compile_exec.compile_ms", "ms");
      ("gpu_sim.Exec_ocaml.codegen_ms", "ms");
      ("gpu_sim.Exec_ocaml.ocamlopt_ms", "ms");
      ("gpu_sim.Exec_ocaml.dynlink_ms", "ms");
      ("gpu_sim.Exec_ocaml.memo_hit_ratio", "ratio");
      ("obs.trace_overhead_frac", "ratio");
    ]
  @ List.map (fun l -> ("self_ms." ^ l, "ms")) layers
  @ [ ("obs.uncovered_frac", "ratio") ]

let attempted = ref 0
let failed = ref 0
let values : (string, float) Hashtbl.t = Hashtbl.create 64
let counts : (string * string) list ref = ref []
let attempt n = attempted := !attempted + n

let fail ?(n = 1) fmt =
  Printf.ksprintf
    (fun msg ->
      failed := !failed + n;
      prerr_endline ("perfbench: FAILED: " ^ msg))
    fmt

let set name v = Hashtbl.replace values name v
let set_int name v = set name (float v)
let exact name v = counts := (name, string_of_int v) :: !counts
let exact_float name v = counts := (name, Printf.sprintf "%.17g" v) :: !counts

let json_number v =
  if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let peak_heap_mb () = float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Rounds [0, 1, ...]: the first decides how many fit in [seconds]. The
   peak heap is taken after the first round, so it does not depend on how
   many rounds the host's speed allowed. A traced run has two rounds, the
   second with spans recorded: their difference is the tracing overhead.
   Returns the rounds and when span recording began. *)
let rounds ~seconds ~traced round =
  let first, wall = timed (fun () -> round 0) in
  set "peak_heap_mb" (peak_heap_mb ());
  Spans.on := traced;
  (* From here on, the time [Calib] spends probing is left out of the
     traced wall that [obs.uncovered_frac] divides. *)
  Calib.spent := 0.;
  let start = now () in
  let n = if traced then 2 else max 2 (int_of_float (Float.round (seconds /. wall))) in
  (first :: List.init (n - 1) (fun i -> round (i + 1)), start)

(* ------------------------------------------------------------------ *)
(* Shared measurements                                                *)
(* ------------------------------------------------------------------ *)

(* The tuning-path counters of one cold compile: exact counts, and the
   per-layer metrics of traced runs. *)
let tuning_counters =
  [
    "tuner.trials"; "ir.nodes_simplified"; "fusion.fused_prologues"; "fusion.fused_epilogues";
    "fusion.fallback_kernels"; "schedule_cache.hits"; "schedule_cache.misses";
  ]

let record_tuning ~tuning_wall delta =
  List.iter (fun n -> exact n (delta n)) tuning_counters;
  List.iter
    (fun n -> set_int n (delta n))
    [
      "ir.nodes_simplified"; "fusion.fused_prologues"; "fusion.fused_epilogues";
      "fusion.fallback_kernels";
    ];
  let trials = delta "tuner.trials" in
  set_int "sched.Tuner.trials" trials;
  set "sched.Tuner.trials_per_s" (if tuning_wall > 0. then float trials /. tuning_wall else 0.);
  let hits = delta "schedule_cache.hits" in
  set "sched.Schedule_cache.hit_ratio" (ratio hits (hits + delta "schedule_cache.misses"))

let record_modeled_latency plans =
  let ms = sum (List.map (Plan.latency device) plans) *. 1e3 in
  if not (Float.is_finite ms) then fail "non-finite modeled latency";
  exact_float "modeled_latency_ms" ms;
  set "runtime.Plan.modeled_latency_ms" ms

(* Simulator counters summed over every counted execution pass; each pass
   runs the same executions, so the per-pass value is exact. *)
let exec_counters =
  [
    "sim.statements"; "sim.compile_us"; "sim.native.codegen_us"; "sim.native.memo_hits";
    "sim.native.units";
  ]

let exec_totals = Hashtbl.create 8
let exec_passes = ref 0

let counted_pass f =
  let r, delta = counting exec_counters f in
  incr exec_passes;
  List.iter
    (fun n ->
      Hashtbl.replace exec_totals n
        (delta n + Option.value (Hashtbl.find_opt exec_totals n) ~default:0))
    exec_counters;
  r

(* The real-execution metrics: [walls] holds each execution's median wall,
   which together produced [responses] outputs. *)
let record_exec ~responses walls =
  let per_pass n =
    Option.value (Hashtbl.find_opt exec_totals n) ~default:0 / max 1 !exec_passes
  in
  let statements = per_pass "sim.statements" in
  exact "gpu_sim.statements" statements;
  exact "batch_exec.samples" (List.length walls);
  set_int "gpu_sim.statements" statements;
  set "gpu_sim.statements_per_s" (float statements /. sum walls);
  set "gpu_sim.Compile_exec.compile_ms" (float (per_pass "sim.compile_us") /. 1e3);
  set "gpu_sim.Exec_ocaml.codegen_ms" (float (per_pass "sim.native.codegen_us") /. 1e3);
  let hits = per_pass "sim.native.memo_hits" in
  set "gpu_sim.Exec_ocaml.memo_hit_ratio" (ratio hits (hits + per_pass "sim.native.units"));
  set "served_rps" (float responses /. sum walls);
  set "batch_exec_ms.p50" (median walls *. 1e3);
  set "batch_exec_ms.p90" (quantile 0.9 walls *. 1e3)

(* Graph-level passes on each compiled graph, as [compile_plan] runs them. *)
let probe_graph_passes graphs =
  let opt = ref 0. and part = ref 0. in
  List.iter
    (fun (id, g) ->
      let g, t1 =
        timed (fun () ->
            span ~layer:"graph" ~id "Passes.lower_conv_to_gemm" (fun () ->
                Passes.lower_conv_to_gemm g))
      in
      let g, t2 =
        timed (fun () -> span ~layer:"graph" ~id "Passes.optimize" (fun () -> Passes.optimize g))
      in
      let _, t3 =
        timed (fun () -> span ~layer:"graph" ~id "Passes.partition" (fun () -> Passes.partition g))
      in
      opt := !opt +. t1 +. t2;
      part := !part +. t3)
    graphs;
  set "graph.Passes.optimize_ms" (!opt *. 1e3);
  set "graph.Passes.partition_ms" (!part *. 1e3)

(* Engine matmul keys are [matmul_<batch>_<a_batched>_<b_batched>_<m>_<n>_<k>_<options>]. *)
let gemm_of_key key =
  match String.split_on_char '_' key with
  | "matmul" :: batch :: a :: b :: m :: n :: k :: _ ->
    Some
      ( int_of_string batch, bool_of_string a, bool_of_string b, int_of_string m,
        int_of_string n, int_of_string k )
  | _ -> None

(* The tuner's per-candidate cost, split in two: sweep
   [Space.matmul_with_split_k] over every distinct GEMM the workload tuned,
   instantiating each candidate ([Matmul_template.compile]) and then
   estimating its kernels ([Perf_model.estimate]). *)
let probe_candidate_sweep () =
  let gemms = List.filter_map gemm_of_key (Cache.keys_for_device device.Hidet_gpu.Device.name) in
  let inst = ref [] and est = ref [] in
  List.iter
    (fun (batch, a_batched, b_batched, m, n, k) ->
      let id = Printf.sprintf "gemm_%d_%d_%d_%d" batch m n k in
      List.iter
        (fun cfg ->
          match
            timed (fun () ->
                span ~layer:"sched" ~id "Matmul_template.compile" (fun () ->
                    MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg))
          with
          | exception Invalid_argument _ -> ()
          | c, t ->
            inst := t :: !inst;
            let (), t =
              timed (fun () ->
                  span ~layer:"gpu_sim" ~id "Perf_model.estimate" (fun () ->
                      List.iter (fun kern -> ignore (Perf_model.estimate device kern)) c.Compiled.kernels))
            in
            est := t :: !est)
        (Space.matmul_with_split_k ~m ~n))
    gemms;
  exact "sweep.gemms" (List.length gemms);
  exact "sweep.candidates" (List.length !inst);
  set "sched.Matmul_template.compile_us" (median !inst *. 1e6);
  set "gpu_sim.Perf_model.estimate_us" (median !est *. 1e6)

type traced_window = {
  start : float;  (** when span recording began *)
  untraced : float;  (** headline wall of round 0, spans off *)
  traced : float;  (** the same of round 1, spans on *)
}

(* ------------------------------------------------------------------ *)
(* zoo_compile                                                        *)
(* ------------------------------------------------------------------ *)

(* One compile and its wall; [None] (counted as failed) when it raised, a
   step failed [Compiled.verify], or its modeled latency is not finite. *)
let compile_checked ~id name g =
  attempt 1;
  match
    scaled (fun () ->
        span ~layer:"core" ~id "Hidet_engine.compile_plan" (fun () ->
            Hidet.Hidet_engine.compile_plan device g))
  with
  | exception e ->
    fail "compile %s raised %s" name (Printexc.to_string e);
    None
  | (plan, res), wall -> (
    match List.iter (fun (s : Plan.step) -> Compiled.verify s.Plan.compiled) plan.Plan.steps with
    | exception e ->
      fail "compile %s: %s" name (Printexc.to_string e);
      None
    | () ->
      if Float.is_finite res.Engine.latency then Some (plan, res, wall)
      else begin
        fail "compile %s: modeled latency %f" name res.Engine.latency;
        None
      end)

(* Compile every model in order. A cold pass starts from an empty schedule
   cache (later models may hit entries earlier ones left); a warm pass must
   run no fresh tuning. *)
let zoo_pass ~cold ~pass graphs =
  if cold then Cache.clear ();
  let misses = Cache.misses () in
  let results =
    List.map
      (fun (name, g) -> (name, compile_checked ~id:(Printf.sprintf "%s#%d" name pass) name g))
      graphs
  in
  if (not cold) && Cache.misses () <> misses then
    fail "warm pass %d ran %d fresh tuning calls" pass (Cache.misses () - misses);
  results

let walls_of results =
  List.filter_map (fun (name, r) -> Option.map (fun (_, _, w) -> (name, w)) r) results

(* Per model, its median wall over the passes, summed over the models. *)
let pass_total passes = sum (List.map snd (median_per_key passes))

(* Seeded batch-1 inferences of the tiny zoo architectures: the paper models
   are far too large to execute on the simulator, their tiny configurations
   are not. *)
let tiny_requests ~seed tiny =
  let arch = Array.of_list tiny in
  List.init 100 (fun i ->
      let name, g, plan = arch.(i mod Array.length arch) in
      let inputs =
        List.mapi
          (fun j input -> T.rand ~seed:((seed * 7919) + (i * 16) + j) (G.node_shape g input))
          (G.input_ids g)
      in
      (i, name, g, plan, inputs))

(* One request: [Some (i, (output, wall))], or [None] if it raised. *)
let tiny_request (i, name, _, plan, inputs) =
  attempt 1;
  match
    scaled (fun () ->
        span ~layer:"runtime" ~id:(Printf.sprintf "req%d" i) "Plan.run1" (fun () ->
            Plan.run1 plan inputs))
  with
  | exception e ->
    fail "%s request %d raised %s" name i (Printexc.to_string e);
    None
  | r -> Some (i, r)

let zoo_compile ~seed ~seconds ~traced =
  let setup () =
    Cache.clear ();
    let graphs = List.map (fun (name, mk) -> (name, mk ())) Models.all in
    let tiny =
      List.map
        (fun (name, mk) ->
          let g = mk () in
          (name, g, fst (Hidet.Hidet_engine.compile_plan device g)))
        Models.tiny_all
    in
    (graphs, tiny)
  in
  let setup_runs = List.init setups (fun _ -> scaled setup) in
  set "setup_s" (median (List.map snd setup_runs));
  let graphs, tiny = fst (List.hd setup_runs) in
  let requests = tiny_requests ~seed tiny in
  (* A round is a cold pass, then one pass over the tiny requests with a
     warm pass before every [warm_pass_every]-th request. Only the first
     round keeps its plans and outputs; later rounds must reproduce its
     outputs bit for bit. *)
  let first_cold = ref [] and first_delta = ref (fun _ -> 0) in
  let first_outputs = Hashtbl.create 128 in
  let warm_passes = ref 0 in
  let warm_pass () =
    settle ();
    incr warm_passes;
    let walls = walls_of (zoo_pass ~cold:false ~pass:!warm_passes graphs) in
    settle ();
    walls
  in
  let round i =
    settle ();
    let cold, delta = counting tuning_counters (fun () -> zoo_pass ~cold:true ~pass:i graphs) in
    settle ();
    let exec, warm =
      counted_pass (fun () -> interleaved ~every:warm_pass_every warm_pass tiny_request requests)
    in
    let exec = List.filter_map Fun.id exec in
    if i = 0 then begin
      first_cold := cold;
      first_delta := delta;
      List.iter (fun (k, (out, _)) -> Hashtbl.replace first_outputs k out) exec
    end
    else
      List.iter
        (fun (k, (out, _)) ->
          match Hashtbl.find_opt first_outputs k with
          | Some want when compare (T.data out) (T.data want) <> 0 ->
            fail "tiny request %d: round %d differs from round 0" k i
          | _ -> ())
        exec;
    (walls_of cold, warm, List.map (fun (k, (_, w)) -> (k, w)) exec)
  in
  let all, start = rounds ~seconds ~traced round in
  let colds = List.map (fun (c, _, _) -> c) all in
  let warms = List.concat_map (fun (_, w, _) -> w) all in
  Printf.printf "zoo_compile: %d rounds, cold passes %s s, warm passes %s s\n" (List.length all)
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (pass_total [ p ])) colds))
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (pass_total [ p ])) warms));
  set "cold_compile_s" (pass_total colds);
  set "warm_compile_s" (pass_total warms);
  List.iter
    (fun (name, w) -> set ("compile." ^ name ^ ".cold_s") w)
    (median_per_key colds);
  List.iter
    (fun (name, w) -> set ("compile." ^ name ^ ".warm_s") w)
    (median_per_key warms);
  let compiled =
    List.filter_map (fun (name, r) -> Option.map (fun r -> (name, r)) r) !first_cold
  in
  record_tuning
    ~tuning_wall:(sum (List.map (fun (_, (_, res, _)) -> res.Engine.tuning_wall) compiled))
    !first_delta;
  List.iter
    (fun (name, (plan, _, _)) ->
      exact ("kernels." ^ name) (Plan.kernel_count plan);
      set_int ("runtime.Plan.kernels." ^ name) (Plan.kernel_count plan))
    compiled;
  record_modeled_latency (List.map (fun (_, (plan, _, _)) -> plan) compiled);
  let walls = List.map snd (median_per_key (List.map (fun (_, _, e) -> e) all)) in
  record_exec ~responses:(List.length walls) walls;
  List.iter
    (fun (i, name, g, _, inputs) ->
      match Hashtbl.find_opt first_outputs i with
      | None -> ()
      | Some got ->
        let want =
          span ~layer:"graph" ~id:(Printf.sprintf "req%d" i) "Reference.run1" (fun () ->
              Reference.run1 g inputs)
        in
        if not (T.allclose ~rtol:1e-3 ~atol:1e-4 want got) then
          fail "%s request %d differs from the reference" name i)
    requests;
  if traced then begin
    probe_graph_passes graphs;
    probe_candidate_sweep ()
  end;
  { start; untraced = pass_total [ List.hd colds ]; traced = pass_total [ List.nth colds 1 ] }

(* ------------------------------------------------------------------ *)
(* serve_closure / serve_native                                       *)
(* ------------------------------------------------------------------ *)

(* The [hidetc serve] defaults (2 virtual workers, queue of 16, 20 ms
   batching window, service scale 2000, 500 ms deadline) at 12 req/s. At
   this rate most batches run on bucket 1 and nearly all the rest on bucket
   2, so the batch-exec median and p90 each sit inside one bucket's mode
   whatever the seed; at the 60 req/s default the median falls on the
   boundary between buckets 2 and 4 and moves between them from seed to
   seed. *)
let serve_config =
  {
    S.Server.batcher = { S.Batcher.buckets; max_wait = 0.020; queue_cap = 16; batching = true };
    workers = 2;
    max_inflight = 2;
    service_scale = 2000.;
  }

let offered_rps = 12.

(* Closed passes over the batch list per round, after the round's cold
   load. A native pass (about 1.4 s) is shorter than a cold load (about
   2 s), so native rounds run four passes and most of the run executes. *)
let passes_per_round = function `Closure -> 1 | `Native -> 4

let min_batches = 100
let reference_sample = 8

let load () =
  S.Registry.load ~engine:(module Hidet.Hidet_engine) ~device ~buckets (S.Registry.Zoo "tiny_cnn")

(* Traffic long enough for [min_batches] batches, so p90 has ten beyond it. *)
let rec schedule ~seed model duration =
  let lg =
    {
      S.Loadgen.profile = S.Loadgen.Open_loop { rps = offered_rps };
      duration;
      deadline = 0.5;
      burst = None;
      seed;
    }
  in
  let sch = S.Server.simulate serve_config ~latency:(S.Registry.latency model) lg in
  if List.length sch.S.Server.batches >= min_batches then sch
  else schedule ~seed model (duration +. 2.)

(* One [Pool.execute] of one batch: [Some (batch, wall, responses)], or
   [None] if it raised. A closed pass over the batch list runs this on every
   batch in dispatch order. *)
let exec_batch ~seed model (b : S.Pool.batch) =
  match
    scaled (fun () ->
        span ~layer:"serve" ~id:(Printf.sprintf "batch%d" b.S.Pool.bid) "Pool.execute" (fun () ->
            S.Pool.execute ~seed model [ b ]))
  with
  | exception e ->
    fail ~n:(List.length b.S.Pool.members) "batch %d raised %s" b.S.Pool.bid
      (Printexc.to_string e);
    None
  | responses, wall -> Some (b, wall, responses)

(* One launch of every variant: where the native backend runs ocamlopt and
   Dynlink, once per process. *)
let first_launch ~seed (model : S.Registry.model) =
  List.iter
    (fun (v : S.Registry.variant) ->
      let shapes =
        List.map (fun s -> v.S.Registry.bucket :: List.tl s) model.S.Registry.input_shapes
      in
      ignore (Plan.run1 v.S.Registry.plan (S.Loadgen.synth_inputs ~seed ~shapes 0)))
    model.S.Registry.variants

exception Unavailable of string

let serve ~backend ~seed ~seconds ~traced =
  Compiled.set_default_backend backend;
  (* Set-up is a cold [Registry.load] (graph build plus tuning of every
     bucket variant from an empty schedule cache), three times, then the
     first launch. *)
  let loads =
    List.init setups (fun _ ->
        Cache.clear ();
        scaled (fun () -> counting tuning_counters load))
  in
  let (model, delta), _ = List.hd loads in
  let load_walls = List.map snd loads in
  let (), launch_s = scaled (fun () -> first_launch ~seed model) in
  if backend = `Native then begin
    (match Exec_ocaml.available () with Error reason -> raise (Unavailable reason) | Ok () -> ());
    if counter "sim.native.units" = 0 then raise (Unavailable "no native unit was built")
  end;
  set "setup_s" (median load_walls +. launch_s);
  set "serve.Registry.load_s" (median load_walls);
  set "gpu_sim.Exec_ocaml.ocamlopt_ms" (float (counter "sim.native.ocamlopt_us") /. 1e3);
  set "gpu_sim.Exec_ocaml.dynlink_ms" (float (counter "sim.native.dynlink_us") /. 1e3);
  let variants = model.S.Registry.variants in
  record_tuning
    ~tuning_wall:
      (sum (List.map (fun (v : S.Registry.variant) -> v.S.Registry.result.Engine.tuning_wall) variants))
    delta;
  List.iter
    (fun (v : S.Registry.variant) ->
      exact (Printf.sprintf "kernels.b%d" v.S.Registry.bucket) (Plan.kernel_count v.S.Registry.plan))
    variants;
  record_modeled_latency (List.map (fun (v : S.Registry.variant) -> v.S.Registry.plan) variants);
  let sch, simulate_s = timed (fun () -> schedule ~seed model 11.) in
  set "serve.Server.simulate_ms" (simulate_s *. 1e3);
  let batches = sch.S.Server.batches in
  let st = S.Server.stats sch in
  attempt st.S.Server.offered;
  if st.S.Server.shed + st.S.Server.rejected > 0 then
    fail ~n:(st.S.Server.shed + st.S.Server.rejected) "%d shed, %d rejected" st.S.Server.shed
      st.S.Server.rejected;
  exact "serve.offered" st.S.Server.offered;
  exact "serve.completed" st.S.Server.completed;
  List.iter
    (fun b ->
      exact (Printf.sprintf "serve.batches.b%d" b)
        (List.length (List.filter (fun (x : S.Pool.batch) -> x.S.Pool.bucket = b) batches)))
    buckets;
  (* A round is a cold load, then [passes_per_round] closed passes over the
     batch list, each with a warm load before every [warm_load_every]-th
     batch. Only the first pass keeps its responses; later passes must
     reproduce them bit for bit. *)
  let first = ref [] in
  let warm_load () =
    settle ();
    let misses = Cache.misses () in
    let _, wall = scaled (fun () -> span ~layer:"serve" ~id:"warm" "Registry.load" load) in
    if Cache.misses () <> misses then fail "warm load ran fresh tuning";
    settle ();
    wall
  in
  let replayed ~round ~pass got =
    let want = Hashtbl.of_seq (List.to_seq (List.concat_map (fun (_, _, rs) -> rs) !first)) in
    List.iter
      (fun (_, _, rs) ->
        attempt (List.length rs);
        List.iter
          (fun (rid, t) ->
            match Hashtbl.find_opt want rid with
            | Some w when compare (T.data t) (T.data w) <> 0 ->
              fail "request %d: pass %d of round %d differs from the first pass" rid pass round
            | _ -> ())
          rs)
      got
  in
  let round i =
    Cache.clear ();
    settle ();
    let _, cold = scaled (fun () -> span ~layer:"serve" ~id:"cold" "Registry.load" load) in
    settle ();
    let passes, warms =
      List.split
        (List.init (passes_per_round backend) (fun j ->
             let pass, warm =
               counted_pass (fun () ->
                   interleaved ~every:warm_load_every warm_load (exec_batch ~seed model) batches)
             in
             let pass = List.filter_map Fun.id pass in
             if i = 0 && j = 0 then first := pass else replayed ~round:i ~pass:j pass;
             (List.map (fun ((b : S.Pool.batch), w, _) -> (b.S.Pool.bid, w)) pass, warm)))
    in
    (cold, List.concat warms, passes)
  in
  let all, start = rounds ~seconds ~traced round in
  set "cold_compile_s" (median (load_walls @ List.map (fun (c, _, _) -> c) all));
  set "warm_compile_s" (median (List.concat_map (fun (_, w, _) -> w) all));
  let passes = List.concat_map (fun (_, _, ps) -> ps) all in
  let exec_walls = median_per_key passes in
  let responses = List.concat_map (fun (_, _, rs) -> rs) !first in
  Printf.printf "%s: %d batches, %d rounds, passes %s s, median per batch %.3f s\n"
    (match backend with `Closure -> "serve_closure" | `Native -> "serve_native")
    (List.length batches) (List.length all)
    (String.concat " " (List.map (fun e -> Printf.sprintf "%.3f" (sum (List.map snd e))) passes))
    (sum (List.map snd exec_walls));
  record_exec ~responses:(List.length responses) (List.map snd exec_walls);
  (* A bucket the traffic never used has no samples and reports 0. *)
  List.iter
    (fun b ->
      match
        List.filter_map
          (fun ((x : S.Pool.batch), _, _) ->
            if x.S.Pool.bucket = b then List.assoc_opt x.S.Pool.bid exec_walls else None)
          !first
      with
      | [] -> ()
      | ws -> set (Printf.sprintf "serve.Pool.execute_ms.b%d" b) (median ws *. 1e3))
    buckets;
  (* Every response against the bucket-1 plan, and a seeded sample of
     requests through the bucket-1 plan against the CPU reference. *)
  let mismatches, check_s =
    timed (fun () ->
        span ~layer:"serve" ~id:"check" "Pool.check" (fun () -> S.Pool.check ~seed model responses))
  in
  if mismatches > 0 then fail ~n:mismatches "%d responses differ from the bucket-1 plan" mismatches;
  set "serve.Pool.check_ms" (check_s *. 1e3);
  let v1 = S.Registry.variant_exn model 1 in
  let rng = Random.State.make [| seed |] in
  let rids = Array.of_list (List.map fst responses) in
  for _ = 1 to if rids = [||] then 0 else reference_sample do
    let rid = rids.(Random.State.int rng (Array.length rids)) in
    let id = Printf.sprintf "req%d" rid in
    let inputs = S.Loadgen.synth_inputs ~seed ~shapes:model.S.Registry.input_shapes rid in
    attempt 1;
    let got = span ~layer:"runtime" ~id "Plan.run1" (fun () -> Plan.run1 v1.S.Registry.plan inputs) in
    let want =
      span ~layer:"graph" ~id "Reference.run1" (fun () -> Reference.run1 v1.S.Registry.graph inputs)
    in
    if not (T.allclose ~rtol:1e-3 ~atol:1e-4 want got) then
      fail "request %d: bucket-1 output differs from the reference" rid
  done;
  if traced then begin
    let synth =
      List.map
        (fun (rid, _) ->
          snd
            (timed (fun () ->
                 span ~layer:"serve" ~id:(Printf.sprintf "req%d" rid) "Loadgen.synth_inputs"
                   (fun () -> S.Loadgen.synth_inputs ~seed ~shapes:model.S.Registry.input_shapes rid))))
        responses
    in
    set "serve.Loadgen.synth_inputs_ms" (median synth *. 1e3);
    probe_graph_passes
      (List.map
         (fun (v : S.Registry.variant) -> (Printf.sprintf "b%d" v.S.Registry.bucket, v.S.Registry.graph))
         variants);
    probe_candidate_sweep ()
  end;
  let pass_wall n = (fun (_, _, ps) -> sum (List.map snd (List.hd ps))) (List.nth all n) in
  { start; untraced = pass_wall 0; traced = pass_wall 1 }

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("zoo_compile", zoo_compile);
    ("serve_closure", serve ~backend:`Closure);
    ("serve_native", serve ~backend:`Native);
  ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 and nproc = ref 0
  and cpu = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " traffic and input seed");
      ("--seconds", Arg.Set_float seconds, " how long the timed rounds run");
      ("--trace", Arg.Set_int trace, " 1: report per-layer metrics from a traced round");
      ("--nproc", Arg.Set_int nproc, " host CPU count, recorded with the run");
      ("--cpu", Arg.Set_int cpu, " the CPU the run is pinned to (-1: none), recorded with the run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  let traced = !trace = 1 in
  Printf.printf "env %s\n%!"
    (json_object
       [
         ("workload", Printf.sprintf "%S" !workload);
         ("seed", string_of_int !seed);
         ("trace", string_of_bool traced);
         ("nproc", string_of_int !nproc);
         ("pinned_cpu", string_of_int !cpu);
         ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
         ("tuning_workers", string_of_int (Parallel.default_workers ()));
         ("exec_workers", string_of_int (Parallel.default_workers ()));
         ("backend", Printf.sprintf "%S" (if !workload = "serve_native" then "native" else "closure"));
         ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
       ]);
  let w =
    try run ~seed:!seed ~seconds:!seconds ~traced
    with Unavailable reason ->
      Printf.eprintf "perfbench: %s is unavailable on this host: %s\n" !workload reason;
      exit 3
  in
  let stop = now () in
  Spans.on := false;
  if traced then begin
    set "obs.trace_overhead_frac" ((w.traced -. w.untraced) /. w.untraced);
    let rollup = Spans.rollup () in
    List.iter
      (fun (layer, name, self, n, ids) ->
        Printf.printf "span %-8s %-28s %10.1f ms self  %6d spans  %5d ids\n" layer name
          (self *. 1e3) n ids)
      rollup;
    List.iter
      (fun l ->
        set ("self_ms." ^ l)
          (sum (List.filter_map (fun (layer, _, self, _, _) -> if layer = l then Some (self *. 1e3) else None) rollup)))
      layers;
    set "obs.uncovered_frac" (1. -. (Spans.covered () /. (stop -. w.start -. !Calib.spent)))
  end;
  Printf.printf "counts %s\n" (json_object (List.sort compare !counts));
  let probes, probe_median = Calib.summary () in
  Printf.printf "calib %s\n"
    (json_object
       [
         ("probes", string_of_int probes);
         ("probe_ms.median", Printf.sprintf "%.3f" (probe_median *. 1e3));
         ("reference_ms", Printf.sprintf "%.3f" (Calib.reference *. 1e3));
       ]);
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (Hashtbl.find_opt values name) ~default:0. in
        let v =
          if Float.is_finite v then v
          else begin
            fail "metric %s is %f" name v;
            0.
          end
        in
        Printf.printf "%-40s %16.6f %s\n" name v unit;
        (name, json_object [ ("value", json_number v); ("unit", Printf.sprintf "%S" unit) ]))
      (if traced then layer_units else e2e_units)
  in
  (* Two more end-to-end readings that are not result metrics, being
     constant on a good run: the modeled latency (also in the counts line)
     and the failed fraction (attempted/failed in the result line). *)
  if not traced then begin
    Printf.printf "%-40s %16.6f %s\n" "modeled_latency_ms"
      (Hashtbl.find values "runtime.Plan.modeled_latency_ms") "modeled_ms";
    Printf.printf "%-40s %16.6f %s\n" "failed_frac" (ratio !failed !attempted) "ratio"
  end;
  Printf.printf "%s\n"
    (json_object
       [
         ("correct", string_of_bool (!failed = 0));
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ("metrics", json_object metrics);
       ]);
  exit (if !failed = 0 then 0 else 1)
