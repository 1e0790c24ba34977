#!/usr/bin/env python3
"""End-to-end smoke test of the `splice` driver on the local RADIUSS cache.

Usage: cli_smoke.py SPLICE TRACE_CHECK OUT_DIR

Drives every subcommand, validates every document it writes with
trace_check, and checks the driver's flag handling and flight-recorder
environment hooks.  Artifacts stay in OUT_DIR (emptied first) for
inspection.  Exits non-zero on the first failed check.
"""
import glob
import json
import os
import shutil
import subprocess
import sys

SPLICE, TRACE_CHECK, OUT = sys.argv[1:4]

# The driver must see only the environment each check sets.
BASE_ENV = {k: v for k, v in os.environ.items()
            if not k.startswith(("SPLICE_FLIGHT", "SPLICE_TRACE",
                                 "SPLICE_PROFILE"))}


def run(*args, env=None, expect=0):
    """Run a command; fail unless it exits with `expect`."""
    proc = subprocess.run(list(args), env={**BASE_ENV, **(env or {})},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != expect:
        sys.exit(f"FAIL: {' '.join(args)}\n  exit {proc.returncode}, "
                 f"expected {expect}\n{proc.stdout}{proc.stderr}")
    return proc


def splice(*args, **kw):
    return run(SPLICE, *args, **kw)


def trace_check(*files):
    print(run(TRACE_CHECK, *files).stdout, end="")


def out(*parts):
    return os.path.join(OUT, *parts)


def load(path):
    with open(path) as f:
        return json.load(f)


shutil.rmtree(OUT, ignore_errors=True)
os.makedirs(out("flight"))

# Trace a RADIUSS resolution: Chrome trace + splice-stats-v1.
splice("concretize", "--splice", "--trace", out("trace.json"),
       "--stats", out("stats.json"), "visit ^mpiabi", "laghos ^mpiabi")
trace_check(out("trace.json"), out("stats.json"))

# The set-up split on a public cache: workload_setup's child spans and the
# cache generator's resolve and memo-hit counters.
splice("concretize", "--splice", "--public", "600", "--stats",
       out("public-stats.json"), "visit ^mpiabi")
trace_check(out("public-stats.json"))
public_stats = load(out("public-stats.json"))
for span in ("tool/workload_setup", "workload/workload::radiuss_repo",
             "workload/workload::cache_specs",
             "concretize/Concretizer::add_reusable_all"):
    count = public_stats["spans"].get(span, {}).get("count")
    assert count == 1, f"stats: span {span} counted {count}, expected 1"
counters = public_stats["metrics"]["counters"]
for name in ("workload.cache_resolves", "workload.cache_memo_hits"):
    assert counters.get(name, 0) > 0, f"stats lack a positive {name} counter"
print(f"set-up split: {counters['workload.cache_resolves']} resolves, "
      f"{counters['workload.cache_memo_hits']} memo hits")
# The grounder proves every encoding rule's instances unique, so none goes
# through its dedup set: the counter is recorded, and it reads 0.
probes = counters.get("ground.dedup_probes")
assert probes == 0, f"stats: ground.dedup_probes is {probes}, expected 0"

# Explain a spliced and an unsatisfiable request set.
splice("explain", "--splice", "--json", out("explain-splice.json"),
       "visit ^mpiabi")
splice("explain", "--json", out("explain-unsat.json"),
       "visit ^mpich@3.4.3", "visit ^mpich@3.1")
trace_check(out("explain-splice.json"), out("explain-unsat.json"))

# Profile: trace_check re-checks conservation; the top directive is named.
splice("profile", "--splice", "--json", out("profile.json"),
       "--folded", out("profile.folded"), "visit ^mpiabi")
trace_check(out("profile.json"))
rows = load(out("profile.json"))["profile"]["directives"]
assert rows, "profiler attributed no cost to any directive"
assert rows[0]["name"], "top directive row has no name"
profile_doc = load(out("profile.json"))["profile"]
paying = [r["name"] for table in ("directives", "predicates")
          for r in profile_doc[table] if r["ground"]["dedup"]]
assert not paying, f"profile rows still pay for the dedup set: {paying}"
print(f"top directive: {rows[0]['name']}")

# Flight recorder: a tiny slow threshold forces per-request dumps; every
# recording, the metrics text and the Chrome conversion must validate.
splice("concretize", "--splice", "--slow-ms", "0.001",
       "--dir", out("flight"), "--flight", out("flight", "flight-full.json"),
       "--metrics", out("flight", "metrics.prom"),
       "visit ^mpiabi", "laghos ^mpiabi")
slow = glob.glob(out("flight", "flight-slow-*.json"))
assert slow, "no flight-slow-*.json dump was written"
trace_check(*sorted(glob.glob(out("flight", "flight-*.json"))),
            out("flight", "metrics.prom"))
splice("flight", "show", out("flight", "flight-full.json"))
splice("flight", "list", *slow)
splice("flight", "chrome", out("flight", "flight-full.json"),
       "-o", out("flight", "chrome.json"))
trace_check(out("flight", "chrome.json"))

# One thread row per worker in the Chrome export: each request sits on the
# thread that began it, so on every row the complete events nest or are
# disjoint, and there are at most workers + 1 (the main thread) rows.
def check_rows(path, workers):
    rows = {}
    for ev in load(path)["traceEvents"]:
        if ev["ph"] == "X":
            rows.setdefault(ev["tid"], []).append((ev["ts"],
                                                   ev["ts"] + ev["dur"]))
    for tid, spans in rows.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        open_ends = []
        for begin, end in spans:
            while open_ends and open_ends[-1] <= begin:
                open_ends.pop()
            assert not open_ends or end <= open_ends[-1], \
                f"{path}: tid {tid}: [{begin}, {end}] partially overlaps " \
                f"an event ending at {open_ends[-1]}"
            open_ends.append(end)
    tids = {ev["tid"] for ev in load(path)["traceEvents"]}
    assert len(tids) <= workers + 1, \
        f"{path}: {len(tids)} thread rows for {workers} workers"


splice("concretize", "--splice", "--jobs", "4", "--json", out("jobs4.json"),
       "--flight", out("jobs4-flight.json"), "--trace", out("jobs4-trace.json"))
splice("flight", "chrome", out("jobs4-flight.json"),
       "-o", out("jobs4-chrome.json"))
trace_check(out("jobs4-flight.json"), out("jobs4-chrome.json"),
            out("jobs4-trace.json"))
workers = load(out("jobs4.json"))["workers"]
check_rows(out("jobs4-chrome.json"), workers)
check_rows(out("jobs4-trace.json"), workers)
print(f"chrome thread rows nest on {workers} worker(s)")

# splice-stats-v1 stays exact after the ring wraps, and the Chrome trace
# says how many events fell off.
splice("concretize", "--splice", "--stats", out("wrap-stats.json"),
       "--trace", out("wrap-trace.json"), env={"SPLICE_FLIGHT_CAPACITY": "64"})
trace_check(out("wrap-stats.json"), out("wrap-trace.json"))
count = load(out("wrap-stats.json"))["spans"]["concretize/concretize"]["count"]
assert count == 32, f"stats lost spans after wraparound: {count} != 32"
dropped = load(out("wrap-trace.json"))["otherData"]["dropped_events"]
assert dropped > 0, f"a 64-event ring over 32 requests dropped {dropped}"
print(f"stats exact after wraparound ({dropped} events dropped)")

# The environment hooks write both exports at exit; --trace/--stats switch
# recording on even under SPLICE_FLIGHT=off.
splice("concretize", "--splice", "visit ^mpiabi",
       env={"SPLICE_TRACE": out("env-trace.json"),
            "SPLICE_TRACE_STATS": out("env-stats.json")})
trace_check(out("env-trace.json"), out("env-stats.json"))
assert load(out("env-stats.json"))["spans"]["concretize/concretize"][
    "count"] == 1
splice("concretize", "--splice", "--stats", out("off-stats.json"),
       "--trace", out("off-trace.json"), "visit ^mpiabi",
       env={"SPLICE_FLIGHT": "off"})
trace_check(out("off-stats.json"), out("off-trace.json"))
assert load(out("off-stats.json"))["spans"]["concretize/concretize"][
    "count"] == 1
assert any(ev["ph"] == "X" for ev in load(out("off-trace.json"))["traceEvents"])
print("trace env hooks honoured")

# Batch every RADIUSS root on 8 workers, pruned and unpruned.  `builds` is
# the top-priority objective, so equal-cost ties cannot change it.
splice("concretize", "--splice", "--jobs", "8", "--json", out("batch.json"),
       "--metrics", out("batch.prom"))
trace_check(out("batch.json"), out("batch.prom"))
splice("concretize", "--splice", "--jobs", "8", "--no-prune",
       "--json", out("batch-noprune.json"))
trace_check(out("batch-noprune.json"))
pruned, unpruned = load(out("batch.json")), load(out("batch-noprune.json"))
assert pruned["failed"] == 0 and unpruned["failed"] == 0
assert len(pruned["results"]) == len(unpruned["results"]) == 32
for a, b in zip(pruned["results"], unpruned["results"]):
    assert a["request"] == b["request"]
    assert (a["ok"], a.get("builds")) == (b["ok"], b.get("builds")), \
        f"pruned and unpruned disagree on {a['request']}: {a} vs {b}"
print("pruned == unpruned on ok/builds for 32 requests")

# Answers do not depend on the worker count: the 32 roots repeated x4 give
# identical rows at --jobs 1 and --jobs 4.  The jobs-4 metrics carry the
# term table's lock counter.
with open(out("roots-x4.txt"), "w") as f:
    f.write("\n".join(r["request"] for r in pruned["results"] * 4) + "\n")
fields = ("request", "ok", "nodes", "builds", "reused", "splices")
rows_at = {}
for jobs in ("1", "4"):
    splice("concretize", "--splice", "--jobs", jobs, "--file",
           out("roots-x4.txt"), "--json", out(f"det-jobs{jobs}.json"),
           "--metrics", out(f"det-jobs{jobs}.prom"))
    trace_check(out(f"det-jobs{jobs}.json"), out(f"det-jobs{jobs}.prom"))
    rows_at[jobs] = [{k: r.get(k) for k in fields}
                     for r in load(out(f"det-jobs{jobs}.json"))["results"]]
assert len(rows_at["1"]) == 128, f"{len(rows_at['1'])} rows, expected 128"
for a, b in zip(rows_at["1"], rows_at["4"]):
    assert a == b, f"--jobs 1 and --jobs 4 disagree: {a} vs {b}"
with open(out("det-jobs4.prom")) as f:
    locked = [line for line in f
              if line.startswith("splice_asp_intern_slow_path ")]
assert locked and int(locked[0].split()[1]) > 0, \
    "metrics lack a positive splice_asp_intern_slow_path counter"
print("128 requests identical at --jobs 1 and --jobs 4")

# Malformed flags exit 2 with a message naming the flag.
for args, flag in [(["concretize", "--jobs", "abc"], "--jobs"),
                   (["concretize", "--jobs", "-1"], "--jobs"),
                   (["concretize", "--jobs", "8x"], "--jobs"),
                   (["concretize", "--jobs"], "--jobs"),
                   (["concretize", "--public", "10k"], "--public"),
                   (["concretize", "--replicas", ""], "--replicas"),
                   (["concretize", "--slow-ms", "fast"], "--slow-ms"),
                   (["profile", "--top", "-3"], "--top"),
                   (["explain", "--jobs", "2"], "--jobs"),
                   (["concretize", "--splice", "--direct"], "--direct"),
                   (["concretize", "--bogus"], "--bogus"),
                   (["flight", "show", out("flight", "flight-full.json"),
                     "--request"], "--request")]:
    stderr = splice(*args, expect=2).stderr
    assert flag in stderr, f"{args}: message does not name {flag}: {stderr}"
print("malformed flags rejected")

# The SPLICE_FLIGHT_* hooks survive --slow-ms / --dir.
os.makedirs(out("env-capacity"))
splice("concretize", "--splice", "--slow-ms", "0.001",
       "--dir", out("env-capacity"),
       "--flight", out("env-capacity", "full.json"), "visit ^mpiabi",
       env={"SPLICE_FLIGHT_CAPACITY": "64"})
capacity = load(out("env-capacity", "full.json"))["capacity"]
assert capacity == 64, f"SPLICE_FLIGHT_CAPACITY=64 ignored: {capacity}"
os.makedirs(out("env-off"))
splice("concretize", "--splice", "--slow-ms", "0.001",
       "--dir", out("env-off"), "visit ^mpiabi", env={"SPLICE_FLIGHT": "off"})
dumps = glob.glob(out("env-off", "flight-slow-*.json"))
assert not dumps, f"SPLICE_FLIGHT=off still dumped {dumps}"
print("flight env hooks honoured")
print("cli smoke: OK")
