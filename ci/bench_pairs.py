#!/usr/bin/env python3
"""Paired perfbench comparison of the working tree against a base commit.

Runs perfbench/run.py in alternating pairs, once in this checkout (the
change) and once in a checkout of the base (the parent), and reads each
end-to-end metric of BENCHMARK.json the way a benchmark gate does:

  - each side's median and quartiles, and the change/parent ratio;
  - the change's wins out of all pairs (ties count for neither side);
  - the change's IQR as a share of `bound x parent median`;
  - a verdict: "gain" when the change wins at least 9/10 of the pairs
    and the medians differ by more than the parent's IQR; "worse" when
    the change's median is worse than the parent's by more than the
    bound; "unresolved" when the change's IQR exceeds the bound and not
    every change run beats every parent run; "no worse" otherwise.

It aborts on a run whose result is not `correct`, and on a pair whose
`chain_digest` differs: the two sides must build the same chains.

Usage (from anywhere in the repository):

  ci/bench_pairs.py [--base REF] [--workloads W ...] [--pairs 10]
                    [--seconds 40] [--seed N] [--out DIR]

The base defaults to origin/main when that ref exists, else HEAD~1 (as
in ci/net_loc.sh); while the change is still uncommitted, pass
--base HEAD. The base is checked out with `git worktree` under --out
and removed again at exit. Each side builds into its own
CARGO_TARGET_DIR under --out (default .bench_pairs/), and every raw run
is appended to <out>/runs.jsonl. Nothing is written under perfbench/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def default_base():
    probe = subprocess.run(["git", "rev-parse", "--verify", "--quiet",
                            "origin/main"], cwd=ROOT, capture_output=True)
    return "origin/main" if probe.returncode == 0 else "HEAD~1"


def run_once(tree, target_dir, workload, seed, seconds):
    """Runs perfbench once; returns (result, chain_digest)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    digest = next((line.split(":", 1)[1].strip() for line in lines
                   if line.startswith("chain_digest:")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"bench_pairs: {tree}: perfbench printed no result "
                 f"(exit {proc.returncode})")
    if not result.get("correct"):
        sys.stderr.write(proc.stdout)
        sys.exit(f"bench_pairs: {tree}: {workload} run is not correct")
    return result, digest


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(change, parent, better, bound):
    """Reads one metric of one workload; returns a dict of its figures."""
    lower = better == "lower"
    c1, cm, c3 = quartiles(change)
    p1, pm, p3 = quartiles(parent)
    wins = sum(1 for c, p in zip(change, parent)
               if (c < p if lower else c > p))
    pairs = len(change)
    c_iqr, p_iqr = c3 - c1, p3 - p1
    allowed = bound * pm
    improved = cm < pm if lower else cm > pm
    separated = (max(change) < min(parent) if lower
                 else min(change) > max(parent))
    worse_by = (cm - pm) if lower else (pm - cm)
    if wins * 10 >= pairs * 9 and improved and abs(cm - pm) > p_iqr:
        call = "gain"
    elif worse_by > allowed:
        call = "worse"
    elif c_iqr > allowed and not separated:
        call = "unresolved"
    else:
        call = "no worse"
    return {
        "change": (c1, cm, c3), "parent": (p1, pm, p3),
        "ratio": cm / pm if pm else float("nan"), "wins": wins,
        "pairs": pairs, "iqr_share": c_iqr / allowed if allowed else 0.0,
        "separated": separated, "verdict": call,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default=None)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_pairs"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)

    base = args.base or default_base()
    base_tree = os.path.join(out, "base-tree")
    if os.path.isdir(base_tree):  # Left by an interrupted run.
        git("worktree", "remove", "--force", base_tree)
    git("worktree", "add", "--detach", base_tree, base)
    sides = {
        "change": (ROOT, os.path.join(out, "target-change")),
        "parent": (base_tree, os.path.join(out, "target-base")),
    }
    print(f"change: {ROOT} ({git('rev-parse', '--short', 'HEAD')} + "
          f"working tree)\nparent: {base_tree} "
          f"({git('rev-parse', '--short', 'HEAD', cwd=base_tree)})")

    raw_path = os.path.join(out, "runs.jsonl")
    try:
        with open(raw_path, "a") as raw:
            for workload in workloads:
                runs = {"change": [], "parent": []}
                for pair in range(args.pairs):
                    order = (["parent", "change"] if pair % 2 == 0
                             else ["change", "parent"])
                    digests = {}
                    for side in order:
                        tree, target = sides[side]
                        result, digest = run_once(tree, target, workload,
                                                  args.seed, args.seconds)
                        digests[side] = digest
                        runs[side].append(result)
                        raw.write(json.dumps({
                            "workload": workload, "pair": pair, "side": side,
                            "first": side == order[0], "seed": args.seed,
                            "seconds": args.seconds, "chain_digest": digest,
                            "result": result}) + "\n")
                        raw.flush()
                    if digests["change"] != digests["parent"]:
                        sys.exit(f"bench_pairs: {workload} pair {pair}: "
                                 f"chain_digest differs ({digests})")
                    print(f"{workload} pair {pair + 1}/{args.pairs} done",
                          flush=True)
                report(workload, runs, metrics)
    finally:
        git("worktree", "remove", "--force", base_tree)
    print(f"raw runs: {raw_path}")


def report(workload, runs, metrics):
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"\n== {workload}: {len(runs['change'])} pairs, failed ops "
          f"change {failed['change']} / parent {failed['parent']}")
    print(f"{'metric':<24}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
          f"{'ratio':>8}{'wins':>7}{'iqr/bnd':>9}  verdict")
    def fmt(quartile_triple):
        return "/".join(f"{x:.4g}" for x in quartile_triple)

    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs]
                  for side, rs in runs.items()}
        v = verdict(values["change"], values["parent"], metric["better"],
                    metric["bound"])
        note = "" if v["iqr_share"] <= 1 else (
            " (every change run beats every parent run)" if v["separated"]
            else " (runs overlap)")
        print(f"{name:<24}{fmt(v['parent']):>30}{fmt(v['change']):>30}"
              f"{v['ratio']:>8.3f}{v['wins']:>4}/{v['pairs']:<2}"
              f"{v['iqr_share']:>9.2f}  {v['verdict']}{note}")


if __name__ == "__main__":
    main()
