#!/usr/bin/env python3
"""metrobench: the end-to-end and per-layer benchmark of the simulator.

Builds benchmark/build/metrobench (a CMake project of its own that pulls in
the root project), runs each workload in its own process, one at a time,
and prints every metric as `workload metric value unit`, with quartiles
and the trial count as a trailing comment. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 benchmark/run.py                        # all workloads
    python3 benchmark/run.py --workload lowload_sleep --seed 7
    python3 benchmark/run.py --trace 1              # per-layer metrics
    python3 benchmark/run.py --trace 1 --workload linerate_grouped \\
        --trace-out trace.json                      # Chrome trace
    python3 benchmark/run.py --out benchmark/results/run.json

With --trace 0 (the default) the metrics are the end-to-end ones of
BENCHMARK.json, measured with tracing off; with --trace 1 they are the
per-layer ones, from a run that alternates untraced and traced trials.
--seconds defaults to run_seconds of BENCHMARK.json; callers that compare
runs (compare.py, a benchmark harness) pass it explicitly so every run
measures for the same time. Exits 1 when the build fails or a correctness
check fails, naming the check; 2 on a usage error.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / "build"
BINARY = BUILD_DIR / "metrobench"
SPEC_PATH = ROOT / "BENCHMARK.json"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configure (once) and build metrobench; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "metrobench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build failed:", " ".join(cmd))
            return False
    return True


# --- provenance --------------------------------------------------------------

def git_describe():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_info():
    """(model name, AES-NI present) from /proc/cpuinfo."""
    model, aes = platform.processor() or "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    aes = "aes" in value.split()
                    break
    except OSError:
        pass
    return model, aes


def loadavg():
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def provenance(args, build_info, load_at_start):
    model, aes = cpu_info()
    return {
        "commit": git_describe(),
        "compiler": build_info.get("compiler", "unknown"),
        "flags": build_info.get("flags", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "cpu": model,
        "nproc": os.cpu_count(),
        "aes_ni": aes,
        "loadavg_at_start": load_at_start,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "traced" if args.trace else "timed",
        "smoke": args.smoke,
    }


# --- metrics -----------------------------------------------------------------

def quart(values):
    """(q1, median, q3, n, "median") of the samples."""
    values = [float(v) for v in values]
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v, len(values), "median"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3, len(values), "median"


def fastest(value, per_trial):
    """(q1, value, q3, n, "fastest"): a value built from the fastest
    repetition of each segment, with the quartiles of the trials' own
    values beside it."""
    q1, _, q3, n, _ = quart(per_trial)
    return q1, float(value), q3, n, "fastest"


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    """(q1, value, q3, n, how) of every end-to-end metric. Host times are
    sums of each segment's fastest repetition across the timed trials
    (metrobench's "fastest"); set-up time is the median over the set-ups
    of a batch of each one's fastest repetition. Simulated counts are
    identical in every trial."""
    timed = [t for t in raw["trials"] if t["kind"] == "timed"]
    best = raw["fastest"]["timed"]
    each = lambda f: quart([f(t) for t in timed])  # noqa: E731
    offered = timed[0]["offered"]
    return {
        "pkts_per_s": fastest(offered / best["measure_s"],
                              [t["offered"] / t["measure_s"] for t in timed]),
        "run_s": fastest(best["run_s"], [t["run_s"] for t in timed]),
        "setup_s": quart(raw["setup_s"]),
        "peak_rss_mb": quart([raw["peak_rss_mb"]]),
        "model_throughput_mpps": each(lambda t: t["throughput_mpps"]),
        "model_delivered_pct": each(lambda t: 100.0 * ratio(t["counters"]["nic.tx"],
                                                            t["offered"])),
        "model_latency_p50_us": each(lambda t: t["latency_p50_us"]),
        "model_latency_p999_us": each(lambda t: t["latency_p999_us"]),
        "model_cpu_pct": each(lambda t: t["cpu_pct"]),
        "model_power_w": each(lambda t: t["power_w"]),
    }


def per_layer(raw):
    """(q1, value, q3, n, how) of every per-layer metric. Host times are
    the fastest-segment sums of the untraced trials of the traced run, as
    in end_to_end; tracer tallies and tgen spans come from the traced
    trials; simulated counts are identical in both."""
    plain = [t for t in raw["trials"] if t["kind"] == "timed"]
    traced = [t for t in raw["trials"] if t["kind"] == "traced"]
    best, best_traced = raw["fastest"]["timed"], raw["fastest"]["traced"]
    host = lambda f: fastest(f(best), [f(t) for t in plain])  # noqa: E731
    each = lambda f: quart([f(t) for t in traced])  # noqa: E731
    c = lambda k: each(lambda t: t["counters"][k])  # noqa: E731
    cr = lambda a, b: each(lambda t: ratio(t["counters"][a], t["counters"][b]))  # noqa: E731
    events = plain[0]["events"]
    overhead = 100.0 * (ratio(best_traced["measure_s"], best["measure_s"]) - 1.0)
    tgen_share = [ratio(t["tgen_s"], t["measure_s"]) for t in traced]
    return {
        "apps.ctor_ms": host(lambda t: 1e3 * t["ctor_s"]),
        "apps.start_ms": host(lambda t: 1e3 * t["start_s"]),
        "sim.warmup_s": host(lambda t: t["warmup_s"]),
        "sim.measure_s": host(lambda t: t["measure_s"]),
        "sim.events": each(lambda t: t["events"]),
        "sim.events_per_pkt": each(lambda t: ratio(t["events"], t["offered"])),
        "sim.ns_per_event": host(lambda t: 1e9 * ratio(t["measure_s"], events)),
        "sim.pending_at_measure": each(lambda t: t["pending_at_measure"]),
        "sim.wheel_cascades": each(lambda t: t["wheel_cascades"]),
        "sim.wheel_epochs": each(lambda t: t["wheel_epochs"]),
        "sim.slice_us_p50": host(lambda t: t["slice_us_p50"]),
        "sim.slice_us_p99": host(lambda t: t["slice_us_p99"]),
        "sim.other_share": quart([1.0 - s for s in tgen_share]),
        "tgen.pkts": each(lambda t: t["tgen_pkts"]),
        "tgen.arena_fired": each(lambda t: t["arena_fired"]),
        "tgen.next_batch_ns_per_pkt": each(lambda t: 1e9 * ratio(t["tgen_s"],
                                                                 t["tgen_timed_pkts"])),
        "tgen.share": quart(tgen_share),
        "nic.rx": c("nic.rx"),
        "nic.tx": c("nic.tx"),
        "nic.ring_drops": c("nic.ring_drops"),
        "nic.cap_drops": c("nic.cap_drops"),
        "nic.rx_bursts": each(lambda t: t["rx_bursts"]),
        "nic.pkts_per_rx_burst": each(lambda t: ratio(t["rx_burst_pkts"], t["rx_bursts"])),
        "nic.tx_flushes": each(lambda t: t["tx_flushes"]),
        "nic.pkts_per_tx_flush": each(lambda t: ratio(t["tx_flush_pkts"], t["tx_flushes"])),
        "nic.dwell_us_mean": each(lambda t: t["dwell_us_mean"]),
        "core.wakeups_per_kpkt": each(lambda t: 1e3 * ratio(t["counters"]["met.total_tries"],
                                                            t["offered"])),
        "core.busy_try_ratio": cr("met.busy_tries", "met.total_tries"),
        "core.empty_poll_ratio": cr("met.empty_polls", "met.lock_successes"),
        "core.pkts_per_busy_period": cr("met.packets", "met.lock_successes"),
        "core.burst_fill_mean": c("met.burst_fill_mean"),
        "core.vacation_us_mean": c("met.vacation_us_mean"),
        "core.nv_mean": c("met.nv_mean"),
        "core.ts_us": each(lambda t: t["ts_us"]),
        "core.rho": each(lambda t: t["rho"]),
        "stats.harvest_ms": host(lambda t: 1e3 * t["harvest_s"]),
        "stats.snapshot_ms": host(lambda t: 1e3 * t["snapshot_s"]),
        "stats.fingerprint_ms": host(lambda t: 1e3 * t["fingerprint_s"]),
        "stats.latency_samples": c("stats.latency_samples"),
        "trace.overhead_pct": quart([overhead]),
        "trace.dropped": quart([sum(t["trace_dropped"] for t in traced)]),
    }


def summarize(raw, trace, spec):
    """The workload's result: metric values with quartiles, the checks, and
    the attempted/failed trial counts (warm-up excluded, oracle included)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    computed = (per_layer if trace else end_to_end)(raw)
    metrics = {}
    for m in declared:
        q1, value, q3, n, how = computed[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"], "how": how,
                              "q1": q1, "q3": q3, "n": n}
    trials = raw["trials"] + [raw["oracle"]]
    failed_checks = [c["name"] for c in raw["checks"] if not c["ok"]]
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        failed_checks.append("finite.metrics")
    return {
        "workload": raw["workload"],
        "metrics": metrics,
        "attempted": len(trials),
        "failed": sum(1 for t in trials if t["failures"]),
        "failed_checks": failed_checks,
        "fingerprints": sorted({t["fingerprint"] for t in trials}),
        "trials": {"timed": sum(t["kind"] == "timed" for t in raw["trials"]),
                   "traced": sum(t["kind"] == "traced" for t in raw["trials"]),
                   "oracle": 1},
        "backend": raw["backend"],
        "oracle_backend": raw["oracle_backend"],
        "config": raw["config"],
    }


def run_workload(name, args):
    cmd = [str(BINARY), f"--workload={name}", f"--seed={args.seed}",
           f"--seconds={0 if args.smoke else args.seconds}", f"--trace={args.trace}"]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_out:
        out = Path(args.trace_out)
        if args.workload is None:
            out = out.with_name(f"{out.stem}.{name}{out.suffix}")
        cmd.append(f"--trace-out={out}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60 + 3 * args.seconds)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} timed out")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"run.py: {name} exited with {proc.returncode}")
        return None
    return json.loads(proc.stdout)


def fmt(v):
    return f"{v:.6g}" if abs(v) >= 1e-3 or v == 0 else f"{v:.6e}"


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, help="one workload (default: all, in turn)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="host seconds of timed trials per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    p.add_argument("--trace-out", metavar="FILE",
                   help="with --trace 1: write a Chrome trace (bench wall-clock lane "
                        "plus the sim-time tracer lane)")
    p.add_argument("--out", metavar="FILE", help="write the full result as JSON")
    p.add_argument("--smoke", action="store_true",
                   help="short windows and 2 trials: checks the plumbing, not speed")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    load_at_start = loadavg()
    if not build():
        return 1
    results, build_info = [], {}
    for name in ([args.workload] if args.workload else names):
        raw = run_workload(name, args)
        if raw is None:
            return 1
        build_info = raw["build"]
        results.append(summarize(raw, args.trace, spec))

    prov = provenance(args, build_info, load_at_start)
    print("# metrobench")
    for key, value in prov.items():
        print(f"#   {key}: {value}")
    for r in results:
        t = r["trials"]
        print(f"# {r['workload']}: {t['timed']} timed + {t['traced']} traced trials on "
              f"{r['backend']}, oracle on {r['oracle_backend']}; attempted {r['attempted']}, "
              f"failed {r['failed']}; fingerprint {','.join(r['fingerprints'])}")
        for name, m in r["metrics"].items():
            trials = "trials' " if m["how"] == "fastest" else ""
            print(f"{r['workload']} {name} {fmt(m['value'])} {m['unit']}"
                  f"  # {m['how']} of n={m['n']}; {trials}q1 {fmt(m['q1'])} q3 {fmt(m['q3'])}")
        print(f"{r['workload']} failed_share {fmt(ratio(r['failed'], r['attempted']))} ratio"
              f"  # failed {r['failed']} of {r['attempted']} trials")

    failed_checks = [f"{r['workload']}:{c}" for r in results for c in r["failed_checks"]]
    for c in failed_checks:
        print(f"# CHECK FAILED {c}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"provenance": prov, "workloads": results}, f, indent=2)

    single = len(results) == 1
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            key = name if single else f"{r['workload']}.{name}"
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": not failed_checks,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
