(* Host-speed calibration.

   On a shared host the CPU this process gets runs fast or slow for seconds
   to minutes at a time (a fixed loop was measured alternating between 1x
   and 1.8x its best wall on a 2-vCPU host), so a wall time read in a slow
   phase and one read in a fast phase differ by more than most changes a
   benchmark should detect. This module runs a fixed speed probe every
   [interval] seconds between timed operations and scales each operation's
   wall by how fast the probes around it ran:

     scaled wall = wall * reference / (median probe wall near the operation)

   so a scaled wall reads, in seconds, what the operation would have taken
   had the host run the probe in [reference] seconds. The probe does not
   allocate and uses no code of the compiler, so a change to the compiler
   or to the GC settings it runs under cannot move it: it has an integer
   loop, a float stencil over 256 KB and a dependent-load chase through
   1 MB, the three kinds of work whose slowdowns, summed, tracked the
   slowdowns of compiles and simulated execution on that host. Its arrays
   fit in the L2 cache, so what the timed operations leave in the caches
   barely moves it (a 64 MB sweep before each probe did not), and they live
   outside the OCaml heap, so they do not show in the heap metrics. *)

open Bigarray

let now = Unix.gettimeofday

(* About the probe's wall on the host the benchmark was written on (2 vCPUs
   of an Intel Xeon), whose fast phase measured 0.023 s. *)
let reference = 0.025

(* Seconds between probes, and how far before an operation's start the
   probes that scale it may lie. *)
let interval = 0.4
let window = 2.0

let chase_len = 1 lsl 17

(* A single cycle through all of [0, chase_len): the LCG x -> 5x + 1 mod
   2^17 has full period (5 = 1 mod 4, 1 odd). *)
let chase =
  lazy
    (let a = Array1.create int c_layout chase_len in
     for i = 0 to chase_len - 1 do
       Array1.unsafe_set a i (((5 * i) + 1) land (chase_len - 1))
     done;
     a)

let stencil_len = 16384 (* two arrays of 128 KB *)

let stencil =
  lazy
    (let a = Array1.create float64 c_layout stencil_len in
     let b = Array1.create float64 c_layout stencil_len in
     (a, b))

let kernel () =
  let s = ref 0 in
  for i = 1 to 5_000_000 do
    s := !s + ((i * i) lxor (i lsr 3))
  done;
  let a, b = Lazy.force stencil in
  for i = 0 to stencil_len - 1 do
    Array1.unsafe_set a i (float i)
  done;
  for _ = 1 to 200 do
    for i = 1 to stencil_len - 2 do
      Array1.unsafe_set b i
        (0.25
        *. (Array1.unsafe_get a (i - 1) +. (2. *. Array1.unsafe_get a i) +. Array1.unsafe_get a (i + 1)))
    done;
    Array1.blit b a
  done;
  let c = Lazy.force chase in
  let j = ref 0 in
  for _ = 1 to 600_000 do
    j := Array1.unsafe_get c !j
  done;
  ignore (Sys.opaque_identity (!s + !j + int_of_float (Array1.unsafe_get a 7)))

(* [(midpoint, wall)] of every probe, newest first. *)
let probes : (float * float) list ref = ref []
let last = ref neg_infinity

(* Seconds spent probing, which no timed operation includes. *)
let spent = ref 0.

let probe () =
  let t0 = now () in
  kernel ();
  let t1 = now () in
  probes := ((t0 +. t1) /. 2., t1 -. t0) :: !probes;
  spent := !spent +. (t1 -. t0);
  last := t1

(* Probes when the last one is [interval] old: call it between operations. *)
let tick () = if now () -. !last >= interval then probe ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [f ()] and its scaled wall. [tick] runs before and after [f], so the
   probes that scale it (those from [window] seconds before its start to
   just after its end) include one at most [interval] before it and, when it
   ran longer than [interval], one right after it. *)
let timed f =
  tick ();
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  tick ();
  let near = List.filter_map (fun (t, w) -> if t >= t0 -. window then Some w else None) !probes in
  (r, (t1 -. t0) *. reference /. median near)

(* How many probes ran and their median wall, printed with every run. *)
let summary () = (List.length !probes, median (List.map snd !probes))
