"""The polarith benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload forms --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  With `--trace 0` it measures set-up time
(fresh interpreters, one after another) and then runs the workload in one
fresh worker process: the fixed number of rounds that took `--seconds` at
the commit that defined the benchmark (see workloads.py), stopping early
only if the deadline nears.  It reports the end-to-end metrics; each time
among them is a time at the machine's nominal speed (speed.py), the wall
time divided by how much slower than nominal the machine ran then.  With
`--trace 1` it runs half as many rounds untraced, replays them with every
layer traced in a second process, checks that both gave byte-identical
outputs, and reports the per-layer metrics and the tracing overhead.  Every
response is checked (check.py); a failed check counts against the run, it
never stops it.

Progress goes to stderr; the last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7
DEADLINE_S = 170          # every run must end within 180 s

sys.path.insert(0, HERE)
import speed  # noqa: E402
from spans import metric_names  # noqa: E402
from workloads import SPECS, rounds_for  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "success_ratio": "ratio",
    "bound_kept_ratio": "ratio",
}


def quantile(xs: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution over
    their ranks.  Unlike one order statistic, it moves smoothly when the
    requests near the quantile are of a few kinds with different costs."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16                # midpoint rule on each rank's 1/n of [0, 1]
    total = weights = 0.0
    for i, x in enumerate(xs):
        w = sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        total += w * x
        weights += w
    return total / weights


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s/req" if name.endswith("_s") else "count/req"


def fixed_layout() -> None:
    """Run in each child before it starts Python: turn off address-space
    randomisation (personality ADDR_NO_RANDOMIZE), so that every run lays
    out the interpreter's memory alike.  With it on, the median time of the
    same small requests moved by up to 20% from one process to the next."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | 0x0040000)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(workload: str, samples: int) -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter until it reports ready,
    one interpreter at a time, at nominal speed and on the wall clock.  One
    unmeasured start first, so that every sample reads the bytecode cache as
    an installed package would.  The machine's speed is probed just before
    and just after each start, on the CPU the interpreter runs on."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--setup", workload]
    times = []
    for i in range(samples + 1):
        before = speed.slowdown()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                                preexec_fn=fixed_layout)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up interpreter failed with exit code {rc}")
        if i:
            times.append(((t1 - t0) * 2 / (before + speed.slowdown()), t1 - t0))
    return times


def run_worker(job: dict, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
        capture_output=True, text=True, env=child_env(), timeout=timeout,
        preexec_fn=fixed_layout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline) -> tuple[dict, dict]:
    setup = measure_setup(args.workload, SETUP_SAMPLES)
    # A slow machine stretches the run; the cap on it only keeps the last
    # round, which can take half a minute then, inside the deadline.
    res = run_worker({"workload": args.workload, "seed": args.seed, "trace": False, "probe": True,
                      "rounds": rounds_for(args.workload, args.seconds),
                      "max_seconds": deadline - time.monotonic() - 60}, deadline)
    # A request's latency is the median of its repeats in the run.  The best
    # of them spread twice as much from run to run: every time at nominal
    # speed carries some error, and the best is the one most in error.
    repeats: dict[str, list[float]] = {}
    for rid, t, _ in res["samples"]:
        repeats.setdefault(rid, []).append(t)
    typical = {rid: statistics.median(ts) for rid, ts in repeats.items()}
    lat_ms = [typical[rid] * 1000 for rid, _, _ in res["samples"]]
    n = len(lat_ms)
    values = {
        "setup_s": statistics.median(t for t, _ in setup),
        "requests_per_s": n * 1000 / sum(lat_ms),
        "latency_p50_ms": quantile(lat_ms, 0.5),
        "latency_p90_ms": quantile(lat_ms, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
        "success_ratio": 1 - len(res["failures"]) / n,
        "bound_kept_ratio": (1 - res["worse_bound"] / res["bound_requests"]
                             if res["bound_requests"] else 1.0),
    }
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, {n} requests "
          f"in {res['wall_s']:.2f} s wall, {res['busy_s']:.2f} s at nominal speed "
          f"(median slowdown {res['slowdown']:.3f}); {res['bound_requests']} degree-bound, "
          f"{res['worse_bound']} with a worse norm_b; setup samples (nominal/wall) "
          + ", ".join(f"{t:.3f}/{w:.3f}" for t, w in setup), file=sys.stderr)
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return res, metrics


def traced(args, deadline) -> tuple[dict, dict]:
    base = {"workload": args.workload, "seed": args.seed, "max_seconds": 3 * args.seconds, "probe": False,
            "rounds": rounds_for(args.workload, args.seconds / 2)}
    plain = run_worker({**base, "trace": False}, deadline)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_out = os.path.join(out_dir, f"trace-{args.workload}.bin")
    res = run_worker({**base, "limit": plain["rounds"], "max_seconds": 4 * args.seconds,
                      "trace": True, "trace_out": trace_out}, deadline)
    if res["outputs_sha256"] != plain["outputs_sha256"]:
        res["failures"].append("traced outputs differ from the untraced outputs")
    res["failures"] += plain["failures"]
    res["attempted"] += plain["attempted"]
    layers = dict(res["layers"])
    layers["tracing_overhead_ratio"] = res["busy_s"] / plain["busy_s"]
    print(f"{args.workload} seed {args.seed}: {plain['rounds']} rounds, "
          f"{res['attempted']} requests; untraced {plain['busy_s']:.2f} s, traced "
          f"{res['busy_s']:.2f} s, {res['spans']} spans written to {trace_out}",
          file=sys.stderr)
    metrics = {k: {"value": layers[k], "unit": layer_unit(k)} for k in metric_names()}
    return res, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polarith benchmark")
    ap.add_argument("--workload", choices=list(SPECS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "polarith", "cli.py")):
        print("no src/polarith here: run from the root of a polarith checkout",
              file=sys.stderr)
        return 2
    res, metrics = (traced if args.trace else end_to_end)(args, deadline)
    for f in res["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"  {k:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not res["failures"], "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
