#!/usr/bin/env python3
"""Runs the parent-vs-change benchmark protocol as one command.

    python3 tools/perf_pairs.py --parent HEAD~1 --change HEAD \
        --workload batched --pairs 10

--parent and --change take anything `git rev-parse` resolves to a
commit. To measure uncommitted work, stage it (`git add -A`) and pass
the commit that `git stash create` prints.

Each revision is exported with `git archive` into
.bench_build/pairs/<commit>/ and runs there through its own copy of the
benchmark command that BENCHMARK.json names (perfbench/run.py), which
builds that revision's perfbench in Release inside the export. Both
sides therefore run exactly the benchmark code of their own commit, and
nothing under perfbench/ in this checkout is touched.

Pair i runs both sides on seed --seed + i for BENCHMARK.json's
run_seconds; the parent runs first in even pairs and the change first
in odd ones. Every run's metrics are printed as it finishes. The summary
gives, for each end-to-end metric: the parent's median and interquartile
range (IQR, also as a share of the median), the change's median, the
ratio change/parent, and the pairs the change won (ties count for
neither side). The verdict is "worse" when the change's median is worse
than the parent's by more than the metric's bound, and "unresolved" when
the parent's IQR is wider than that bound. Exits 1 when a run failed or
reported incorrect output, 0 otherwise.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".bench_build" / "pairs"
RUN_TIMEOUT_S = 600


def fail(message):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def resolve(rev):
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"not a commit: {rev}")
    return proc.stdout.strip()


def export(sha):
    """Extracts commit `sha` into PAIRS_DIR/sha once; returns the path."""
    dest = PAIRS_DIR / sha
    marker = dest / ".exported"
    if marker.is_file():
        return dest
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", sha],
        capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    marker.touch()
    return dest


def run_once(tree, command, workload, seed, seconds):
    """One benchmark run in `tree`; returns its parsed JSON result."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    log = tree / "perf_pairs.log"
    with open(log, "a") as err:
        try:
            proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                                  stderr=err, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"run in {tree} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"run in {tree} exited {proc.returncode} without a JSON "
             f"result (see {log})")
    result["exit_code"] = proc.returncode
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(spec, runs, pairs):
    print(f"\n{'metric':<16} {'unit':<5} {'parent med':>12} "
          f"{'parent IQR':>12} {'IQR/med':>8} {'change med':>12} "
          f"{'ratio':>7} {'wins':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        higher = metric["better"] == "higher"
        parent = [value(r, name) for r in runs["parent"]]
        change = [value(r, name) for r in runs["change"]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        iqr = q3 - q1
        rel_iqr = iqr / abs(p_med) if p_med else (0.0 if iqr == 0 else
                                                  float("inf"))
        ratio = c_med / p_med if p_med else float("nan")
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if higher else c < p))
        limit = p_med * (1 - bound) if higher else p_med * (1 + bound)
        worse = c_med < limit if higher else c_med > limit
        verdicts = []
        if worse:
            verdicts.append("worse")
        if rel_iqr > bound:
            verdicts.append("unresolved")
        print(f"{name:<16} {metric['unit']:<5} {p_med:>12.4g} {iqr:>12.4g} "
              f"{rel_iqr:>7.1%} {c_med:>12.4g} {ratio:>7.3f} "
              f"{wins:>3}/{pairs:<2}  {', '.join(verdicts) or 'ok'}")


def main():
    parser = argparse.ArgumentParser(
        description="Paired parent-vs-change benchmark runs.")
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="Seed of pair 0; pair i uses seed + i.")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    seconds = spec["run_seconds"]
    trees = {"parent": export(resolve(args.parent)),
             "change": export(resolve(args.change))}
    print(f"perf_pairs: workload={args.workload} pairs={args.pairs} "
          f"run_seconds={seconds}")
    for side, tree in trees.items():
        print(f"  {side}: {tree.name}")

    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], spec["command"], args.workload,
                              seed, seconds)
            runs[side].append(result)
            good = result["exit_code"] == 0 and result["correct"]
            ok = ok and good
            metrics = " ".join(f"{m['name']}={value(result, m['name']):.4g}"
                               for m in spec["end_to_end"])
            print(f"pair {i} seed {seed} {side:<6} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{'' if good else 'INCORRECT '}{metrics}", flush=True)

    summarize(spec, runs, args.pairs)
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side} failed operations: {failed}/{attempted}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
