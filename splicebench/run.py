#!/usr/bin/env python3
"""Build and run the libsplice benchmark (README.md beside this file).

One workload, as the benchmark contract runs it:

    python3 splicebench/run.py --workload radiuss-batch --seed 1 --seconds 10 --trace 0

The last line of standard output is the JSON result.  Without --workload the
command runs every workload untraced and traced, and prints the end-to-end
table next to the per-layer table, one row per workload.

Run from the root of a checkout.  The benchmark builds into .bench_build/
there and writes nothing outside it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "splicebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "splicebench")
BINARY = os.path.join(BUILD_DIR, "splicebench")
# Every workload splicebench runs.  BENCHMARK.json lists the bounded ones;
# deploy-churn stays out of it (README.md, "Why deploy-churn is not bounded").
WORKLOADS = ["radiuss-batch", "public10k-splice", "deploy-churn"]
# Instrumentation switches that would change what is measured.
INSTRUMENT_PREFIXES = ("SPLICE_TRACE", "SPLICE_PROFILE", "SPLICE_FLIGHT")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment for the benchmark, minus instrumentation switches."""
    env = dict(os.environ)
    for name in sorted(env):
        if name.startswith(INSTRUMENT_PREFIXES):
            log(f"run.py: unsetting {name} (instrumentation changes the figures)")
            del env[name]
    return env


def build():
    """Configure and build the benchmark binary; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "splicebench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return True


def revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "splicebench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(trace):
    """Metric name -> unit, in BENCHMARK.json's order."""
    return {m["name"]: m["unit"]
            for m in load_spec()["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace, env, rev):
    """Run one workload; returns (exit code, stdout lines)."""
    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{workload}-{seed}-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", work, "--revision", rev]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 1, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        return done.returncode, lines
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("run.py: the benchmark printed no result line")
        return 1, lines
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        log(f"run.py: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        return 1, lines
    return 0, lines


def rows_table(rows, columns, title):
    """One row per workload, one column per metric."""
    print(f"\n== {title}")
    print(f"{'workload':18}" + "".join(f"{c:>{len(c) + 2}}" for c in columns))
    for workload, values in rows.items():
        print(f"{workload:18}" + "".join(f"{values[c]:>{len(c) + 2}.5g}" for c in columns))


def run_all(seed, seconds, env, rev):
    """Every workload untraced and traced; the two tables and the overhead."""
    e2e, layers, ok = {}, {}, True
    for workload in WORKLOADS:
        for trace, into in ((False, e2e), (True, layers)):
            code, lines = run_one(workload, seed, seconds, trace, env, rev)
            if code != 0:
                log(f"run.py: {workload} (trace {int(trace)}) exited {code}")
                return code
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            into[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            into[workload]["attempted"] = result["attempted"]
            into[workload]["failed"] = result["failed"]
        layers[workload]["trace.overhead_s"] = (
            layers[workload]["trace.request_s_p50"] - e2e[workload]["request_s_p50"])
    counts = ["attempted", "failed"]
    rows_table(e2e, counts + list(expected_metrics(False)),
               f"end-to-end, untraced (seed {seed}, {seconds}s)")
    self_times = [f"{layer}.self_s" for layer in
                  ("workload", "concretize", "asp", "pool", "binary")]
    rows_table(layers, counts + self_times + ["trace.request_s", "trace.overhead_s"],
               f"per-layer self time per request, traced (seed {seed}, {seconds}s)")
    print("\n== every per-layer metric, traced")
    print(f"{'metric':38}" + "".join(f"{w:>18}" for w in WORKLOADS))
    for name in expected_metrics(True):
        print(f"{name:38}" + "".join(f"{layers[w][name]:>18.6g}" for w in WORKLOADS))
    print(f"\nrevision {rev}; all answers correct: {ok}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = clean_env()
    if not build():
        return 2
    rev = revision()
    if args.workload is None:
        return run_all(args.seed, args.seconds, env, rev)
    code, lines = run_one(args.workload, args.seed, args.seconds,
                          bool(args.trace), env, rev)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
