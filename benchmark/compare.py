#!/usr/bin/env python3
"""Parent vs change on the metrobench end-to-end metrics.

Compares runs of two commits, made as alternating pairs, and reports each
workload row by row: each side's median and quartiles, the change's win
rate over the pairs, and a verdict.

    # results of run.py --out, pair i = parent[i] vs change[i]
    python3 benchmark/compare.py --parent p1.json p2.json ... \\
                                 --change c1.json c2.json ...
    # or make the pairs: alternate which side runs first, seed i for pair i
    python3 benchmark/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT --pairs 10
    python3 benchmark/compare.py --self-test

Verdicts, per workload and metric, with the bounds read from BENCHMARK.json:
  model_* metrics are simulated time, a pure function of the seed, so
  they must match pair for pair, bit for bit ("identical" or "CHANGED").
  Host-time metrics, in this order (all "unresolved" below 10 pairs):
    REGRESSION  every change run reads worse than every parent run and the
                medians differ by more than the parent's IQR: alternating
                runs resolve a loss smaller than the bound;
    unresolved  either side's spread (IQR / median) exceeds the bound, and
                not every change run reads better than every parent run;
    REGRESSION  the change's median is worse than the parent's by more
                than bound x parent median;
    gain        the change wins >= 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                IQR;
    unchanged   otherwise.
A change that fails more trials than the parent, or fails a correctness
check, is a regression whatever its metrics say.

Exit 0 when nothing regressed, 1 on a regression (or a failed self-test),
2 on a usage error.
"""

import argparse
import copy
import io
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
DECISIVE = 0.9  # share of pairs a side must win
MIN_PAIRS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(a, b, direction):
    """True when value a reads strictly better than b."""
    return a > b if direction == "higher" else a < b


def verdict(metric, parent, change):
    """Verdict of one metric on one workload; parent/change are the pair-
    ordered value lists."""
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    if name.startswith("model_"):
        return "identical" if parent == change else "CHANGED"
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in pairs)
    resolved = abs(cm - pm) > p3 - p1
    all_better = all(better(c, p, direction) for c in change for p in parent)
    all_worse = all(better(p, c, direction) for c in change for p in parent)
    if all_worse and resolved:
        return "REGRESSION"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if ((pm - cm) if direction == "higher" else (cm - pm)) > bound * abs(pm):
        return "REGRESSION"
    if wins >= DECISIVE * len(pairs) and better(cm, pm, direction) and resolved:
        return "gain"
    return "unchanged"


def by_workload(runs):
    """{workload: [per-run workload result]} in run order."""
    out = {}
    for run in runs:
        for w in run["workloads"]:
            out.setdefault(w["workload"], []).append(w)
    return out


def compare(spec, parent_runs, change_runs, out=sys.stdout):
    """Print the per-workload table; return the number of regressions."""
    parents, changes = by_workload(parent_runs), by_workload(change_runs)
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parents or workload not in changes:
            continue
        p_runs, c_runs = parents[workload], changes[workload]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        print(f"\n{workload}  ({n} pairs)", file=out)
        print(f"  {'metric':24} {'parent median [q1, q3]':36} {'change median [q1, q3]':36}"
              f" {'wins':>5}  verdict", file=out)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not all(name in r["metrics"] for r in p_runs + c_runs):
                continue
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            v = verdict(metric, pv, cv)
            regressions += v in ("REGRESSION", "CHANGED")
            wins = sum(better(c, p, metric["better"]) for p, c in zip(pv, cv))
            side = lambda vals: "{1:.6g} [{0:.6g}, {2:.6g}]".format(*quartiles(vals))  # noqa: E731
            print(f"  {name:24} {side(pv):36} {side(cv):36} {wins:>2}/{n:<2}  {v}", file=out)
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        c_checks = sorted({c for r in c_runs for c in r["failed_checks"]})
        status = "REGRESSION" if c_failed > p_failed or c_checks else "ok"
        regressions += status != "ok"
        print(f"  {'failed trials':24} {p_failed:<36} {c_failed:<36} {'':5}  {status}"
              + (f" (checks: {', '.join(c_checks)})" if c_checks else ""), file=out)
    return regressions


def load_runs(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def run_pairs(args, seconds):
    """Alternating pairs: pair i runs both checkouts on seed base+i, parent
    first on even i and change first on odd i, each for `seconds`."""
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    paths = {"parent": [], "change": []}
    roots = {"parent": Path(args.run[0]), "change": Path(args.run[1])}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = results / f"{side}_seed{seed}.json"
            cmd = [sys.executable, str(roots[side] / "benchmark" / "run.py"), "--seed", str(seed),
                   "--seconds", str(seconds), "--out", str(out.resolve())]
            print(f"pair {i + 1}/{args.pairs}: {side} seed {seed}", file=sys.stderr, flush=True)
            out.unlink(missing_ok=True)
            # A run that fails its checks still writes its result; the
            # comparison reports the failure.
            subprocess.run(cmd, cwd=roots[side], stdout=subprocess.DEVNULL)
            if not out.exists():
                sys.exit(f"compare.py: {side} run produced no result ({out})")
            paths[side].append(out)
    return load_runs(paths["parent"]), load_runs(paths["change"])


# --- self-test ---------------------------------------------------------------

def synthetic_runs(spec, rng, n=10, noise=0.05):
    """n run results per workload with host metrics jittered by +-noise (a
    spread as wide as the benchmark's worst across seeds) and model metrics
    fixed, as the benchmark produces them."""
    runs = []
    for _ in range(n):
        workloads = []
        for w in spec["workloads"]:
            metrics = {}
            for i, m in enumerate(spec["end_to_end"]):
                base = 10.0 + i
                if not m["name"].startswith("model_"):
                    base *= 1.0 + rng.uniform(-noise, noise)
                metrics[m["name"]] = {"value": base, "unit": m["unit"]}
            workloads.append({"workload": w["name"], "metrics": metrics, "attempted": 8,
                              "failed": 0, "failed_checks": []})
        runs.append({"workloads": workloads})
    return runs


def self_test(spec):
    rng = random.Random(11)
    parent = synthetic_runs(spec, rng)
    workload = spec["workloads"][0]["name"]

    def mutate(fn):
        change = synthetic_runs(spec, rng)
        for run in change:
            for w in run["workloads"]:
                if w["workload"] == workload:
                    fn(w, run is change[3])
        return change

    def slower(w, _):
        w["metrics"]["pkts_per_s"]["value"] *= 0.85

    def extra_failure(w, chosen):
        if chosen:
            w["failed"] += 1

    def one_ulp(w, chosen):
        if chosen:
            m = w["metrics"]["model_latency_p50_us"]
            m["value"] = math.nextafter(m["value"], math.inf)

    def faster(w, _):
        w["metrics"]["pkts_per_s"]["value"] *= 1.15

    cases = [
        ("null change", synthetic_runs(spec, rng), 0, None),
        ("-15% pkts_per_s", mutate(slower), 1, "REGRESSION"),
        ("one extra failed trial", mutate(extra_failure), 1, "REGRESSION"),
        ("1-ulp model_latency_p50_us", mutate(one_ulp), 1, "CHANGED"),
        ("+15% pkts_per_s", mutate(faster), 0, "gain"),
    ]
    ok = True
    for label, change, want_regressions, want_word in cases:
        table = io.StringIO()
        got = compare(spec, copy.deepcopy(parent), change, out=table)
        caught = got == want_regressions and (want_word is None or want_word in table.getvalue())
        ok = ok and caught
        print(f"self-test {label}: {got} regression(s){'' if caught else '  <-- UNEXPECTED'}")
        if not caught:
            print(table.getvalue())
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", nargs="+", metavar="FILE", help="parent results (run.py --out)")
    p.add_argument("--change", nargs="+", metavar="FILE", help="change results, same order")
    p.add_argument("--run", nargs=2, metavar=("PARENT_CHECKOUT", "CHANGE_CHECKOUT"),
                   help="make the pairs by running both checkouts' benchmark/run.py")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--results", default=str(BENCH_DIR / "results" / "compare"),
                   help="--run: where the per-run results go")
    p.add_argument("--self-test", action="store_true",
                   help="prove the comparison catches a regression")
    args = p.parse_args(argv)
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.self_test:
        return self_test(spec)
    if args.run:
        # Both sides measure for this file's run_seconds, so a change to
        # it cannot make the commits run for different lengths.
        parent, change = run_pairs(args, spec["run_seconds"])
    elif args.parent and args.change:
        parent, change = load_runs(args.parent), load_runs(args.change)
    else:
        p.error("give --parent and --change, --run, or --self-test")
    regressions = compare(spec, parent, change)
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
