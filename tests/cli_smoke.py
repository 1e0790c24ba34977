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
