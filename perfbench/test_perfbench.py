"""Self-tests of the benchmark: `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from check import CERTIFICATE_CHECKS, check_response  # noqa: E402
from worker import call_cli, load_cli  # noqa: E402
from workloads import SPECS, load_pool, rounds  # noqa: E402


def _first(pool, stratum, n=1):
    return [r for r in pool if r["stratum"] == stratum][:n]


@pytest.mark.parametrize("workload", list(gen.POOLS))
def test_generator_is_deterministic(workload):
    a = gen.dump(gen.generate(workload, 5))
    assert a == gen.dump(gen.generate(workload, 5))
    assert a != gen.dump(gen.generate(workload, 6))
    with open(os.path.join(gen.DATA, f"{workload}.inputs.json")) as fh:
        committed = json.load(fh)
    assert committed["requests"] == gen.generate(workload, committed["seed"])


@pytest.mark.parametrize("workload", list(gen.POOLS))
def test_rounds_follow_the_seed_and_the_spec(workload):
    pool, refs = load_pool(workload)

    def ids(seed, n=3):
        return [[r["id"] for r in batch] for batch in rounds(workload, pool, refs, seed, n)]

    assert ids(1) == ids(1)
    assert ids(1) != ids(2)
    first, second = ids(3, 2)
    per_round = sum(a for a, _ in SPECS[workload].values())
    per_run = sum(b for _, b in SPECS[workload].values())
    assert (len(first), len(second)) == (per_round + per_run, per_round)


@pytest.mark.parametrize("workload", list(gen.POOLS))
def test_every_seed_sends_the_same_requests(workload):
    pool, refs = load_pool(workload)

    def sent(seed):
        return sorted(r["id"] for batch in rounds(workload, pool, refs, seed, 3) for r in batch)

    assert sent(1) == sent(2) == sent(7)


def test_nominal_time_divides_by_the_slowdown_and_skips_probes():
    log = speed.SpeedLog()
    log.at = [0.0, 1.0, 2.0, 3.0]
    log.took = [2 * speed.NOMINAL_S] * 4
    # 0.5 s before the probe at 1.0, 0.5 s after it ends, all at half speed
    assert abs(log.nominal(0.5, 1.5 + log.took[1]) - 0.5) < 1e-12
    log.took = [3 * speed.NOMINAL_S] * 4
    assert abs(log.nominal(2.5, 2.8) - 0.1) < 1e-12


def test_quantile_estimate():
    from run import quantile

    xs = list(range(1, 102))
    assert abs(quantile(xs, 0.5) - 51) < 1e-6
    assert 89 < quantile(xs, 0.9) < 93
    assert quantile([7.0], 0.9) == 7.0


def test_traced_outputs_are_byte_identical():
    main = load_cli()
    reqs = []
    for workload, strata in (("forms", ("classify-q", "classify-herm", "fourth-q-small")),
                             ("solve", ("bound-D5", "bound-D-23", "maximal-n2", "local-solve")),
                             ("hecke", ("height-3",))):
        pool, _ = load_pool(workload)
        for s in strata:
            reqs += _first(pool, s)
    plain = [call_cli(main, r) for r in reqs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [call_cli(tracer.wrapped(main), r) for r in reqs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(err is None for _, _, err in plain)
    assert len(tracer.start) > len(reqs)
    metrics = tracer.report(reqs, [(c, o) for c, o, _ in traced])
    assert set(spans.metric_names()) - {"tracing_overhead_ratio"} == set(metrics)
    assert metrics["exact.hilbert_symbol.calls"] > 0 and metrics["cli.self_s"] > 0
    # self times partition the traced time: no span's self time is negative
    assert min(tracer.self_times()) >= 0


def _degree_bound_response():
    pool, refs = load_pool("solve")
    req = _first(pool, "bound-D13")[0]
    code, out, err = call_cli(load_cli(), req)
    assert err is None
    return req, refs[req["id"]], code, json.loads(out)


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_checker_accepts_a_true_degree_bound_certificate():
    req, ref, code, out = _degree_bound_response()
    assert check_response(req, ref, code, _dumps(out)) is None


def test_checker_rejects_a_value_off_by_one():
    req, ref, code, out = _degree_bound_response()
    out["value"] += 1
    assert "value" in check_response(req, ref, code, _dumps(out))


def test_checker_rejects_b_scaled_by_two():
    req, ref, code, out = _degree_bound_response()
    out["b"] = [str(2 * int(x)) for x in out["b"]]
    assert check_response(req, ref, code, _dumps(out)) is not None


def test_checker_rejects_a_tampered_matrix_certificate():
    pool, refs = load_pool("solve")
    req = next(r for r in pool if r["stratum"] == "bound-matrix"
               and "explored" not in refs[r["id"]])
    code, stdout, err = call_cli(load_cli(), req)
    out = json.loads(stdout)
    assert check_response(req, refs[req["id"]], code, stdout) is None
    out["b"] = [[str(2 * int(x)) for x in row] for row in out["b"]]
    assert check_response(req, refs[req["id"]], code, _dumps(out)) is not None


def test_checker_rejects_a_wrong_classification():
    pool, refs = load_pool("forms")
    req = _first(pool, "classify-q")[0]
    ref = refs[req["id"]]
    out = json.loads(ref["stdout"])
    assert check_response(req, ref, 0, ref["stdout"]) is None
    out["invariants"]["signatures"] = [[0, out["invariants"]["dim"]]]
    assert check_response(req, ref, 0, _dumps(out)) is not None
    assert check_response(req, ref, 1, ref["stdout"]) is not None


def test_checker_rejects_a_bad_local_solution():
    pool, refs = load_pool("solve")
    req = _first(pool, "local-solve")[0]
    code, stdout, _ = call_cli(load_cli(), req)
    assert check_response(req, refs[req["id"]], code, stdout) is None
    out = json.loads(stdout)
    out["b"][0][0] = str(int(out["b"][0][0]) + 1)
    assert "m' I" in check_response(req, refs[req["id"]], code, _dumps(out))


def test_checker_rechecks_hecke_witnesses():
    pool, refs = load_pool("hecke")
    req = pool[0]
    out = json.loads(refs[req["id"]]["stdout"])
    check = CERTIFICATE_CHECKS["hecke-classes"]
    assert check(req["input"], out) is None
    # the class of 1 against itself: 1 * 1 = 1^2 * 1 holds, 2 * 1 = 1^2 * 1 does not
    out["witnesses"] = [{"i": 0, "j": 0, "n": 1, "u": ["1", "0"]}]
    assert check(req["input"], out) is None
    out["witnesses"][0]["n"] = 2
    assert "n q = u^2 r" in check(req["input"], out)
    out["representatives"][1]["coords"] = [str(-int(c)) for c in out["representatives"][1]["coords"]]
    assert "totally positive" in check(req["input"], {**out, "witnesses": []})


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
