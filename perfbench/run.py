#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/bench.exe with dune and runs one workload;
the last line of its output is the JSON result. The second runs every
workload twice with one seed and checks that the exact counts (tuning
trials, simplified IR nodes, kernels, modeled latency, batches per bucket,
simulated statements) agree bit for bit, and that the printed metric names
are the ones BENCHMARK.json declares.

Builds go to _build/ and scratch files (the native backend's generated
units) to .bench_build/, both inside the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["zoo_compile", "serve_closure", "serve_native"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("run from the root of a repository checkout (%s is missing)" % need)
    if shutil.which("dune") is None:
        die("dune not found on PATH")


def build(env):
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        die("build failed", r.returncode)


def bench_env():
    env = dict(os.environ)
    # Keep dune's shared cache and the native backend's scratch units
    # inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    scratch = os.path.join(ROOT, ".bench_build", "tmp-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    env["TMPDIR"] = scratch
    return env, scratch


def cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def pin(cpu):
    """Keeps the benchmark on one CPU. On a shared host each CPU speeds up
    and slows down on its own, so a process the scheduler moves between
    CPUs changes speed from one operation to the next, and the speed probes
    that scale its timings (calib.ml) would measure another CPU than the
    work."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def run(env, workload, seed, seconds, trace, capture=False):
    avail = cpus()
    cpu = avail[-1] if hasattr(os, "sched_setaffinity") else None
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--nproc", str(len(avail)), "--cpu", str(-1 if cpu is None else cpu)]
    stdout = subprocess.PIPE if capture else None
    return subprocess.run(cmd, env=env, stdout=stdout, text=True,
                          preexec_fn=lambda: pin(cpu))


def tagged(stdout, tag):
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    return None


def self_test(env, seed=7):
    """Each workload twice untraced and once traced with one seed: every
    exact count must repeat (the traced run adds the sweep's counts), and
    the metric names must be BENCHMARK.json's."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for w in WORKLOADS:
        counts = []
        for trace in (0, 0, 1):
            r = run(env, w, seed, 1, trace, capture=True)
            lines = r.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if r.returncode != 0 or result is None or not result["correct"]:
                print("FAIL %s trace=%d: exit %d" % (w, trace, r.returncode))
                ok = False
                continue
            if list(result["metrics"]) != names[trace]:
                print("FAIL %s trace=%d: metric names differ from BENCHMARK.json" % (w, trace))
                ok = False
            counts.append(tagged(r.stdout, "counts"))
        if len(counts) < 3:
            continue
        first = counts[0]
        differ = sorted(k for k in first
                        if any(k in c and c[k] != first[k] for c in counts[1:])
                        or k not in counts[1])
        if differ:
            print("FAIL %s: exact counts differ between runs with seed %d: %s" % (w, seed, differ))
            ok = False
        else:
            print("ok   %s: %d exact counts repeat" % (w, len(first)))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        die("pass --workload or --self-test")
    check_checkout()
    env, scratch = bench_env()
    try:
        build(env)
        if args.self_test:
            code = self_test(env)
        else:
            code = run(env, args.workload, args.seed, args.seconds, args.trace).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
