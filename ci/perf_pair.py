#!/usr/bin/env python3
"""Perf pair gate: the change against its parent commit, on one runner.

Builds perfbench/ twice, at the parent commit and at the working tree, each
with its own CARGO_TARGET_DIR. Then runs PAIRS alternating pairs of
SECONDS-second `archline-bench` runs per workload, each pair on a fresh
seed, and prints every run. The gate fails when the change's median
`throughput` falls below the parent's by more than the `throughput` bound
in BENCHMARK.json, or when a run fails its checks. When the change touches
a path BENCHMARK.json lists, the two sides are different benchmarks, so the
script only reports.

This is perfbench/README.md's "Comparing a change with its parent" over all
four workloads, cut to fewer, shorter pairs. `repro` runs at least
perfbench's 100 regenerations whatever SECONDS says, about 15 s on a
2-vCPU host.

Usage (from the repo root): python3 ci/perf_pair.py [BASE]
BASE defaults to HEAD^ (in a pull-request checkout, the base branch tip).
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ["repro", "serve-eval", "serve-sweep", "wire-mixed"]
PAIRS = 3
SECONDS = 5
METRIC = "throughput"


def git(*args, **kw):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True, **kw).stdout


def build(tree, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Run from the tree so its .cargo/config.toml applies, as it does when
    # BENCHMARK.json's command runs in a checkout.
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/Cargo.toml", "--bin", "archline-bench"],
        cwd=tree, env=env, check=True)
    return os.path.join(target, "release", "archline-bench")


def run(side, binary, tree, workload, seed):
    """One run; returns its end-to-end metric values, or None if it failed."""
    p = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError):
        result, values = {}, {}
    ok = p.returncode == 0 and result.get("failed") == 0 and METRIC in values
    shown = "  ".join(f"{k} {v:.6g}" for k, v in sorted(values.items()))
    print(f"{workload:<11} seed {seed}  {side:<6}  "
          f"{'ok' if ok else 'FAILED (exit %d)' % p.returncode}  {shown}", flush=True)
    if not ok:
        sys.stdout.write(p.stderr[-2000:])
    return values if ok else None


def main():
    root = git("rev-parse", "--show-toplevel").strip()
    base = git("rev-parse", "--verify", (sys.argv[1] if len(sys.argv) > 1 else "HEAD^") + "^{commit}",
               cwd=root).strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == METRIC)
    touched = subprocess.run(["git", "diff", "--quiet", base, "--", *bench["paths"]],
                             cwd=root).returncode != 0
    print(f"parent {base[:12]} vs working tree; {METRIC} bound {bound:.0%}"
          + (f"; {', '.join(bench['paths'])} changed: report only" if touched else ""))

    work = tempfile.mkdtemp(prefix="perf_pair.")
    try:
        parent_tree = os.path.join(work, "parent")
        os.mkdir(parent_tree)
        archive = subprocess.Popen(["git", "archive", base], cwd=root, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", parent_tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit("git archive failed")
        sides = {
            "parent": (build(parent_tree, os.path.join(work, "target-parent")), parent_tree),
            "change": (build(root, os.path.join(work, "target-change")), root),
        }

        errors = []
        for workload in WORKLOADS:
            got = {"parent": [], "change": []}
            for pair in range(PAIRS):
                seed = pair + 1
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in order:
                    values = run(side, *sides[side], workload, seed)
                    if values is None:
                        errors.append(f"{workload}: {side} run at seed {seed} failed")
                    else:
                        got[side].append(values[METRIC])
            if not got["parent"] or not got["change"]:
                continue
            p, c = statistics.median(got["parent"]), statistics.median(got["change"])
            verdict = "ok"
            if c < p * (1 - bound):
                verdict = "REGRESSED"
                errors.append(f"{workload}: median {METRIC} {c:.6g} is {c / p - 1:+.1%} "
                              f"against the parent's {p:.6g}, beyond -{bound:.0%}")
            print(f"{workload:<11} median {METRIC}: parent {p:.6g}, change {c:.6g} "
                  f"({c / p - 1:+.1%})  {verdict}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in errors:
        print("PERF PAIR GATE FAIL:", e)
    if touched:
        print("report only: the change edits the benchmark itself")
        return 0
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
