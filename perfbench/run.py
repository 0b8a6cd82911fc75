#!/usr/bin/env python3
"""Build the Clara benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The binary is built with dune into
$CARGO_TARGET_DIR (default .bench_build) under the root, then run; its
stdout is passed through after the last line, the result object, has
been checked against BENCHMARK.json.  --self-test shows that every
correctness check counts a failure when its input is corrupted.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = Path("default") / "perfbench" / "perfbench.exe"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# (check, workload, trace) triples the self-test corrupts one at a time.
# The coverage fault leaves the largest layer out of the traced self times.
CHECKS = [
    ("analyze-ok", "analyze-corpus", "0"),
    ("ilp-vs-greedy", "analyze-corpus", "0"),
    ("att-mean", "predict-trace", "0"),
    ("att-components", "predict-trace", "0"),
    ("auto-vs-event", "simulate-trace", "0"),
    ("sharded-domains", "simulate-trace", "0"),
    ("coverage", "analyze-corpus", "1"),
    ("coverage", "predict-trace", "1"),
    ("coverage", "simulate-trace", "1"),
]
WORKLOADS = ["analyze-corpus", "predict-trace", "simulate-trace"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail("no dune-project and lib/ at %s; run from a Clara source tree" % ROOT)
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", str(ROOT), "--build-dir", str(build_dir),
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (exit %d)" % done.returncode)
    return build_dir / EXE


def provenance_args():
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    # The checkout the benchmark runs in need not be a git repository:
    # a digest of the library sources identifies the code either way.
    h = hashlib.md5()
    for p in sorted((ROOT / "lib").rglob("*.ml*")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return ["--commit", "%s src:%s" % (commit or "unknown", h.hexdigest()[:12]),
            "--nproc", str(os.cpu_count() or 0)]


def run(exe, args):
    done = subprocess.run([str(exe)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=175)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines))
        fail("benchmark exited with %d" % done.returncode)
    try:
        return lines, json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines))
        fail("the last output line is not a result object")


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != RESULT_KEYS:
        return "result keys are %s" % sorted(result)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    return None


def self_test(exe):
    quick = ["--seed", "7", "--seconds", "0", "--packets", "300"]
    for w in WORKLOADS:
        for trace in ("0", "1"):
            _, r = run(exe, quick + ["--workload", w, "--trace", trace])
            problem = check_result(r, trace == "1")
            if problem or not r["correct"] or r["failed"] != 0:
                fail("self-test: clean %s --trace %s run: %s" % (w, trace, problem or r))
    for check, w, trace in CHECKS:
        _, r = run(exe, quick + ["--workload", w, "--trace", trace, "--inject", check])
        if r["correct"] or r["failed"] < 1:
            fail("self-test: corrupting %s on %s was not counted: %s" % (check, w, r))
        print("self-test: %-16s on %-15s counted %d/%d failed"
              % (check, w, r["failed"], r["attempted"]))
    print("self-test ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        fail("--workload is required")
    exe = build()
    if a.self_test:
        self_test(exe)
        return
    lines, result = run(exe, ["--workload", a.workload, "--seed", str(a.seed),
                              "--seconds", str(a.seconds), "--trace", str(a.trace)]
                        + provenance_args())
    print("\n".join(lines[:-1]))
    problem = check_result(result, a.trace == 1)
    if problem:
        fail(problem)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
