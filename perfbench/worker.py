"""One measured run in a fresh interpreter: requests through polarith.cli.main.

Started by run.py, one process at a time, as

    python3 perfbench/worker.py '<job as JSON>'   # a run; prints one JSON line
    python3 perfbench/worker.py --setup <workload>  # set-up only; prints "ready"

It imports the CLI from the checkout's `src/`, loads the workload's pool,
then sends the job's rounds of requests one at a time (a closed loop: one
client, one thread), stopping early only when its time cap has run out.
Each response is checked after its latency has been taken.  Unless the job
says otherwise, it probes the machine's speed throughout (speed.py) and
reports each request's time at nominal speed next to its wall time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def load_cli():
    """polarith.cli.main from the checkout's `src/`, never from elsewhere."""
    src = os.path.join(os.path.dirname(HERE), "src")
    sys.path.insert(0, src)
    import polarith.cli

    if not os.path.abspath(polarith.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"polarith imported from {polarith.cli.__file__}, not {src}")
    return polarith.cli.main


def call_cli(main, req: dict) -> tuple[int | None, str, str | None]:
    """Run one request in-process: (exit code, stdout, traceback or None)."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(req["input"]))
    try:
        with contextlib.redirect_stdout(out):
            code = main([req["verb"], "-", *req["args"]])
    except Exception:  # a traceback is a failed request, not a failed run
        return None, out.getvalue(), traceback.format_exc(limit=3)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), None


def run(job: dict) -> dict:
    """The first `limit` (default: all) of the run's `rounds` rounds, or
    fewer if `max_seconds` run out between two."""
    from check import check_response, worse_bound
    from speed import NOMINAL_S, SpeedLog
    from workloads import load_pool, rounds

    main = load_cli()
    pool, refs = load_pool(job["workload"])
    schedule = rounds(job["workload"], pool, refs, job["seed"], job["rounds"])
    schedule = schedule[:job.get("limit", job["rounds"])]
    # The pool is the benchmark's, not the library's: keep it out of the
    # cyclic collector's scans so a request sees the collections it would
    # in a fresh CLI process.
    gc.collect()
    gc.freeze()
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        main = tracer.wrapped(main)
    # Runs that report times probe the machine's speed throughout; traced
    # runs and the untraced runs they are compared with do not.
    speed = SpeedLog()
    sent, outputs, samples, failures = [], [], [], []
    digest = hashlib.sha256()
    bound_requests = worse = done_rounds = 0
    t_start = time.perf_counter()
    with speed if job["probe"] else contextlib.nullcontext():
        for batch in schedule:
            if time.perf_counter() - t_start > job["max_seconds"]:
                break
            for req in batch:
                # Every request starts from an empty collector, as in a fresh
                # CLI process, so the collections it pays for do not depend
                # on what ran before it.
                gc.collect()
                t0 = time.perf_counter()
                code, stdout, err = call_cli(main, req)
                t1 = time.perf_counter()
                samples.append((req["id"], t0, t1))
                ref = refs[req["id"]]
                reason = err or check_response(req, ref, code, stdout)
                if reason:
                    failures.append(f"{req['id']}: {reason}")
                elif req["verb"] == "degree-bound":
                    bound_requests += 1
                    worse += worse_bound(ref, stdout)
                digest.update(json.dumps([req["id"], code, stdout]).encode())
                if job["trace"]:
                    sent.append(req)
                    outputs.append((code, stdout))
            done_rounds += 1
    wall_s = time.perf_counter() - t_start
    nominal = speed.nominal if job["probe"] else (lambda t0, t1: t1 - t0)
    # (id, seconds at nominal speed, wall seconds)
    samples = [(rid, nominal(t0, t1), t1 - t0) for rid, t0, t1 in samples]
    result = {
        "rounds": done_rounds,
        "attempted": len(samples),
        "failures": failures,
        "samples": samples,
        "wall_s": wall_s,
        "busy_s": sum(t for _, t, _ in samples),
        "slowdown": statistics.median(speed.took) / NOMINAL_S if speed.took else 1.0,
        "bound_requests": bound_requests,
        "worse_bound": worse,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs_sha256": digest.hexdigest(),
    }
    if job["trace"]:
        tracer.uninstall()
        result["layers"] = tracer.report(sent, outputs)
        result["spans"] = len(tracer.start)
        tracer.write(job["trace_out"])
    return result


def setup(workload: str) -> None:
    """What every CLI invocation pays before its first request: the import
    of polarith.cli (and with it sympy) plus loading the workload's inputs."""
    from workloads import load_pool

    load_cli()
    load_pool(workload)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    if sys.argv[1] == "--setup":
        setup(sys.argv[2])
        print("ready", flush=True)
    else:
        print(json.dumps(run(json.loads(sys.argv[1]))))
