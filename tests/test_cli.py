import hashlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import polarith
from polarith.algebras import AlgebraWithInvolution
from polarith.cli import VERBS, InputError, _emit, _json, _rat, main, parse_instance, serialize_element
from polarith.degree_bound import BoundResult, verify_result
from polarith.exact import isprime
from polarith.lattices_local import MAX_SCALE_GAP
from polarith.linalg import mat
from polarith.quadfield import QuadElem


def run_cli(tmp_path, verb, doc, *extra):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(doc))
    code = main([verb, str(inp), "-o", str(out), *extra])
    return code, json.loads(out.read_text())


def form_q(kind, gram):
    return {"kind": kind, "base": {"type": "Q"}, "gram": gram}


def test_classify_form(tmp_path):
    code, out = run_cli(
        tmp_path, "classify-form", {"form": form_q("symmetric", [["1", "0"], ["0", "1"]])}
    )
    assert code == 0
    inv = out["invariants"]
    assert inv["dim"] == 2 and inv["det_square_class"] == 1
    assert inv["signatures"] == [[2, 0]]
    assert inv["hasse_minus_one_places"] == []


def test_isometric_negative_exit_2(tmp_path):
    doc = {
        "form1": form_q("symmetric", [["1", "0"], ["0", "1"]]),
        "form2": form_q("symmetric", [["1", "0"], ["0", "3"]]),
    }
    code, out = run_cli(tmp_path, "isometric", doc)
    assert code == 2
    assert out["isometric"] is False
    assert "det_class mismatch" in out["reason"]


def test_isometric_hasse_mismatch_names_the_places(tmp_path):
    """<1,1> and <3,3> share determinant class and signature and differ
    only in their Hasse invariants, at 2 and 3."""
    doc = {
        "form1": form_q("symmetric", [["1", "0"], ["0", "1"]]),
        "form2": form_q("symmetric", [["3", "0"], ["0", "3"]]),
    }
    code, out = run_cli(tmp_path, "isometric", doc)
    assert code == 2
    assert out["reason"] == "hasse mismatch at [] vs [p2, p3]"


def test_classify_form_lists_the_real_place_last(tmp_path):
    code, out = run_cli(
        tmp_path, "classify-form", {"form": form_q("symmetric", [["-1", "0"], ["0", "-3"]])}
    )
    assert code == 0
    inv = out["invariants"]
    assert inv["det_square_class"] == 3
    assert inv["hasse_minus_one_places"] == [3, "oo"]


@pytest.mark.parametrize("verb", [*VERBS, "validate"])
def test_bad_flag_answers_schema_error(tmp_path, capsys, verb):
    """A command-line usage error answers exit 1 with a JSON body on
    stdout, not argparse's exit 2, which means a computed negative."""
    inp = tmp_path / "in.json"
    inp.write_text("{}")
    usage_errors = (
        (["--height", "abc"], "abc"), (["--bogus"], "--bogus"), (["--seed", "1"], "--seed"),
        (["--precision", "12"], "--precision"),
    )
    for flags, word in usage_errors:
        assert main([verb, str(inp), *flags]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "schema:bad-flag" and word in err["message"]
    with pytest.raises(SystemExit) as exc:
        main([verb, "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: polarith")


def _flag_order_request(verb):
    """An input document and flags for `verb`: the first benchmark-pool
    request of the verb, or a small document for the two with none."""
    if verb == "measure-constant":
        return {"instances": [{"algebra": {"type": "quadfield", "D": 5}, "q": ["-2", "2"], "a": ["-3", "1"]}]}, []
    if verb == "validate":
        return {"D": 5, "count": 2}, ["--validate-verb", "hecke-classes", "--height", "2"]
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    for path in sorted(data.glob("*.inputs.json")):
        for req in json.loads(path.read_text())["requests"]:
            if req["verb"] == verb:
                return req["input"], req["args"]


@pytest.mark.parametrize("verb", [*VERBS, "validate"])
def test_flags_before_the_input_path(tmp_path, verb):
    """Flags given before the input path answer the same exit code and
    bytes as after it."""
    doc, flags = _flag_order_request(verb)
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps(doc))
    flags = [*flags, "--height", "3", "-o", str(out)]
    answers = []
    for argv in ([verb, str(inp), *flags], [verb, *flags, str(inp)]):
        answers.append((main(argv), out.read_bytes()))
        out.unlink()
    assert answers[0] == answers[1] and "error" not in json.loads(answers[0][1])


@pytest.mark.parametrize("verb", [*VERBS, "validate"])
def test_unwritable_output_answers_io_error(tmp_path, capsys, verb):
    """An -o path that cannot be opened answers exit 1 with an `io:output`
    body on stdout, whatever the verb would have answered."""
    inp, out = tmp_path / "in.json", tmp_path / "missing" / "out.json"
    for doc in ({}, {"form": form_q("symmetric", [["1"]])}):
        inp.write_text(json.dumps(doc))
        assert main([verb, str(inp), "-o", str(out), "--validate-verb", "classify-form"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["code"] == "io:output" and "out.json" in err["message"]
    assert not out.parent.exists()


def test_isometric_positive(tmp_path):
    doc = {
        "form1": form_q("symmetric", [["1", "0"], ["0", "1"]]),
        "form2": form_q("symmetric", [["2", "0"], ["0", "2"]]),
    }
    code, out = run_cli(tmp_path, "isometric", doc)
    assert code == 0 and out["isometric"] is True


def test_fourth_power_check(tmp_path):
    doc = {
        "form1": form_q("symmetric", [["1", "0"], ["0", "1"]]),
        "form2": form_q("symmetric", [["1", "0"], ["0", "5"]]),
    }
    code, out = run_cli(tmp_path, "fourth-power-check", doc)
    assert code == 0
    assert out["isometric_fourth_powers"] is True
    assert out["certificate"]["invariants_match"] is True


def test_maximal_lattice(tmp_path):
    doc = {
        "p": 3,
        "basis": [["1", "0"], ["0", "1"]],
        "form": form_q("symmetric", [["1", "0"], ["0", "9"]]),
        "target_scale": 0,
    }
    code, out = run_cli(tmp_path, "maximal-lattice", doc)
    assert code == 0
    assert out["maximal"] and out["contains_input"] and out["scale"] == 0


@pytest.mark.parametrize("gram, target, scans", [
    # the completion ends at the target: its last, empty scan answers "maximal"
    ([["1", "0"], ["0", "9"]], 0, [(0, False), (0, True)]),
    # it ends at scale -2 above the target -3: `is_maximal` scans at -2
    ([["1", "0"], ["0", "1"]], -3, [(-3, False), (-3, False), (-3, True), (-2, True)]),
])
def test_maximal_lattice_repeats_no_kernel_scan(tmp_path, monkeypatch, gram, target, scans):
    """`maximal-lattice` scans for a superlattice once per step of the
    completion and once more only when the completed scale is above the
    target; the answer is that of `is_maximal` on the completed lattice."""
    from polarith import lattices_local
    from polarith.cli import parse_form

    doc = {"p": 3, "basis": [["1", "0"], ["0", "1"]], "form": form_q("symmetric", gram), "target_scale": target}
    L = lattices_local.PadicLattice(3, mat(doc["basis"]), parse_form(doc["form"], "form"))
    want = lattices_local.is_maximal(lattices_local.maximal_completion(L, target))
    seen = []
    scan = lattices_local._first_superlattice

    def counted(lattice, t):
        found = scan(lattice, t)
        seen.append((t, found is None))
        return found

    monkeypatch.setattr(lattices_local, "_first_superlattice", counted)
    code, out = run_cli(tmp_path, "maximal-lattice", doc)
    assert (code, out["maximal"], want) == (0, True, True)
    assert seen == scans


def test_local_solve(tmp_path):
    doc = {
        "p": 3,
        "q": [["1", "0"], ["0", "9"]],
        "a": [["1", "0"], ["0", "1/3"]],
        "m_prime": 9,
    }
    code, out = run_cli(tmp_path, "local-solve", doc)
    assert code == 0
    assert out["b"] == [["3", "0"], ["0", "1"]]


def test_local_solve_block_rotations_n6(tmp_path):
    """Three rotation blocks [[3/5, 4/5], [-4/5, 3/5]] at p = 5: the Cayley
    rounding tries only the 2^(n-1) sign charts, so n = 6 answers at once."""
    n = 6
    a = [["0"] * n for _ in range(n)]
    for k in range(0, n, 2):
        a[k][k], a[k][k + 1], a[k + 1][k], a[k + 1][k + 1] = "3/5", "4/5", "-4/5", "3/5"
    q = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    code, out = run_cli(tmp_path, "local-solve", {"p": 5, "q": q, "a": a, "m_prime": 1})
    assert code == 0
    b = [[Fraction(x) for x in row] for row in out["b"]]
    assert [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [int(i == j) for j in range(n)] for i in range(n)
    ]


def test_local_solve_n8_past_the_identity_chart(tmp_path):
    """a = -I_6 (+) [[3/5, 4/5], [-4/5, 3/5]] at p = 5, q = I_8: the
    rounding needs a sign chart past the identity and answers at once with
    a 5-integral b, b^T b = I_8."""
    n = 8
    a = [["-1" if i == j else "0" for j in range(n)] for i in range(n)]
    a[6][6], a[6][7], a[7][6], a[7][7] = "3/5", "4/5", "-4/5", "3/5"
    q = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    start = time.perf_counter()
    code, out = run_cli(tmp_path, "local-solve", {"p": 5, "q": q, "a": a, "m_prime": 1})
    assert time.perf_counter() - start < 2
    assert code == 0
    b = [[Fraction(x) for x in row] for row in out["b"]]
    assert [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == [
        [int(i == j) for j in range(n)] for i in range(n)
    ]
    assert all(x.denominator % 5 for row in b for x in row)


@pytest.mark.parametrize("p, x, y", [(5, 3, 4), (13, 5, 12), (17, 8, 15), (29, 20, 21)])
def test_local_solve_improper_rotations(tmp_path, p, x, y):
    """a = [[x/p, y/p], [y/p, -x/p]] with x^2 + y^2 = p^2 is an orthogonal
    reflection, det a = -1 exactly: the verb answers a p-integral b with
    b^T b = I, and `validate` calls the input valid."""
    a = [[f"{x}/{p}", f"{y}/{p}"], [f"{y}/{p}", f"-{x}/{p}"]]
    doc = {"p": p, "q": [["1", "0"], ["0", "1"]], "a": a, "m_prime": "1"}
    code, out = run_cli(tmp_path, "local-solve", doc)
    assert code == 0
    b = [[Fraction(v) for v in row] for row in out["b"]]
    assert [[sum(b[k][i] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)] == [[1, 0], [0, 1]]
    assert all(v.denominator % p for row in b for v in row)
    assert run_cli(tmp_path, "validate", doc, "--validate-verb", "local-solve") == (0, {"valid": True, "errors": []})


def test_degree_bound_quadfield(tmp_path):
    doc = {
        "instance": {
            "algebra": {"type": "quadfield", "D": 5},
            "q": ["-2", "2"],
            "a": ["-3", "1"],
        }
    }
    code, out = run_cli(tmp_path, "degree-bound", doc)
    assert code == 0
    assert out["value"] == 2 and out["norm_b"] == "1"


def test_degree_bound_matrix(tmp_path):
    doc = {
        "instance": {
            "algebra": {"type": "matrix", "n": 2},
            "q": [["1", "0"], ["0", "9"]],
            "a": [["1", "0"], ["0", "1/3"]],
        }
    }
    code, out = run_cli(tmp_path, "degree-bound", doc)
    assert code == 0
    assert out["value"] == 9


def test_hecke_classes(tmp_path):
    code, out = run_cli(tmp_path, "hecke-classes", {"D": 5, "count": 1})
    assert code == 0
    assert out["representatives"] == [
        {"coords": ["1", "0"], "norm": "1", "source_prime": None}
    ]
    code3, out3 = run_cli(tmp_path, "hecke-classes", {"D": 5, "count": 3})
    assert code3 == 0
    assert [r["source_prime"] for r in out3["representatives"]] == [None, 11, 19]
    m = out3["pairwise_equivalent"]
    assert all(m[i][j] == (i == j) for i in range(3) for j in range(3))


def test_measure_constant(tmp_path):
    doc = {
        "instances": [
            {"algebra": {"type": "quadfield", "D": 5}, "q": ["1", "0"], "a": ["1", "0"]},
            {"algebra": {"type": "quadfield", "D": 5}, "q": ["-2", "2"], "a": ["-3", "1"]},
        ]
    }
    code, out = run_cli(tmp_path, "measure-constant", doc)
    assert code == 0
    assert len(out["entries"]) == 2


def test_validate_good_and_bad(tmp_path):
    good = {"form": form_q("symmetric", [["1", "0"], ["0", "1"]])}
    code, out = run_cli(tmp_path, "validate", good, "--validate-verb", "classify-form")
    assert code == 0 and out["valid"]

    bad = {"form": form_q("symmetric", [["0", "1"], ["2", "0"]])}
    code2, out2 = run_cli(tmp_path, "validate", bad, "--validate-verb", "classify-form")
    assert code2 == 1 and not out2["valid"]
    assert out2["errors"][0]["code"].startswith("invariant")

    bad_field = {"D": 4, "count": 1}
    code3, out3 = run_cli(tmp_path, "validate", bad_field, "--validate-verb", "hecke-classes")
    assert code3 == 1 and not out3["valid"]


def test_error_exit_1_with_code(tmp_path):
    doc = {"form1": form_q("symmetric", [["1"]])}
    code, out = run_cli(tmp_path, "isometric", doc)
    assert code == 1
    assert out["error"]["code"].startswith("schema")


def test_float_rejected(tmp_path):
    doc = {"form": {"kind": "symmetric", "base": {"type": "Q"}, "gram": [[1.5]]}}
    code, out = run_cli(tmp_path, "classify-form", doc)
    assert code == 1
    assert out["error"]["code"] == "schema:not-exact"


def test_determinism_byte_identical(tmp_path):
    doc = {
        "instance": {
            "algebra": {"type": "quadfield", "D": 5},
            "q": ["-2", "2"],
            "a": ["-3", "1"],
        }
    }
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc))
    outs = []
    for i in range(2):
        out = tmp_path / f"out{i}.json"
        assert main(["degree-bound", str(inp), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_quadfield_form_roundtrip(tmp_path):
    doc = {
        "form": {
            "kind": "hermitian",
            "base": {"type": "quadfield", "D": -1},
            "gram": [[["2", "0"]]],
        }
    }
    code, out = run_cli(tmp_path, "classify-form", doc)
    assert code == 0
    assert out["invariants"]["det_is_norm"] is True


def test_general_algebra_descriptor(tmp_path):
    """Factor-list algebra descriptor: an etale swap pair, where every
    symmetric element of Q x Q under the swap is a rational scalar, so the
    scalar route answers b = 1."""
    doc = {
        "instance": {
            "algebra": {
                "type": "general",
                "factors": [{"kind": "rational"}, {"kind": "rational"}],
                "swap_pairs": [[0, 1]],
                "gammas": [1, 1],
            },
            "q": ["2", "2"],
            "a": ["1", "1"],
        }
    }
    code, out = run_cli(tmp_path, "degree-bound", doc)
    assert code == 0
    assert out["value"] == 2
    assert out["method"] == "scalar" and out["b"] == ["1", "1"] and out["norm_b"] == "1"


def test_general_algebra_quaternion(tmp_path):
    doc = {
        "instance": {
            "algebra": {
                "type": "general",
                "factors": [{"kind": "quaternion", "a": "-1", "b": "-1"}],
                "gammas": [1],
            },
            "q": ["3", "0", "0", "0"],
            "a": ["1", "0", "0", "0"],
        }
    }
    code, out = run_cli(tmp_path, "degree-bound", doc)
    assert code == 0
    assert out["value"] == 3


@pytest.mark.parametrize("n", [2, 4])
def test_general_matrix_algebra_takes_the_theorem_like_matrix(tmp_path, monkeypatch, n):
    """M_n(Q) spelt as a `general` algebra without `order_basis` builds
    M_n(Z) as the `matrix` descriptor does, with no product of basis
    elements (the two products counted are those of a^T q a), and answers
    the same bytes."""
    q = [[str(2 * (i == j)) for j in range(n)] for i in range(n)]
    a = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    spelt = {
        "matrix": {"algebra": {"type": "matrix", "n": n}, "q": q, "a": a},
        "general": {"algebra": {"type": "general", "factors": [{"kind": "matrix", "n": n}]},
                    "q": [x for row in q for x in row], "a": [x for row in a for x in row]},
    }
    mul = AlgebraWithInvolution.mul
    answers = {}
    for name, instance in spelt.items():
        calls = []
        monkeypatch.setattr(AlgebraWithInvolution, "mul", lambda self, x, y: calls.append(None) or mul(self, x, y))
        assert parse_instance(instance).order.basis_matrix_is_identity()
        monkeypatch.undo()
        assert len(calls) == 2, name
        answers[name] = run_cli(tmp_path, "degree-bound", {"instance": instance})
    assert answers["general"] == answers["matrix"] and answers["matrix"][0] == 0


def test_swap_pair_of_unequal_fields_is_refused(tmp_path):
    doc = {"instance": {"algebra": {"type": "general", "factors": [{"kind": "quadfield", "D": 2},
                                                                   {"kind": "quadfield", "D": 3}],
                                    "swap_pairs": [[0, 1]]},
                        "q": [1, 0, 1, 0], "a": [1, 0, 1, 0]}}
    want = {"code": "precondition:algebra", "message": "instance: swap pairs must join equal factors"}
    assert run_cli(tmp_path, "degree-bound", doc) == (1, {"error": want})


def _index_two_instances(seed, count):
    """Seeded instances over R = {[[a, 2b], [2c, d]]}, an order of M_2(Q)
    stable under the transpose and strictly inside M_2(Z): q = c g^T g with
    an even off-diagonal, and a = g^-1, so a^T q a = c I."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        d = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        c = rng.choice([1, 2, 3, 5])
        q = [[c * (g[0][i] * g[0][j] + g[1][i] * g[1][j]) for j in range(2)] for i in range(2)]
        if d == 0 or q[0][1] % 2:
            continue
        a = [Fraction(g[1][1], d), Fraction(-g[0][1], d), Fraction(-g[1][0], d), Fraction(g[0][0], d)]
        out.append({"algebra": {"type": "general", "factors": [{"kind": "matrix", "n": 2}]},
                    "order_basis": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]],
                    "q": [q[0][0], q[0][1], q[1][0], q[1][1]], "a": [str(x) for x in a]})
    return out


def test_orders_other_than_mnz_answer_from_the_fallback(tmp_path):
    """The lattice glue builds b in M_2(Z), which need not lie in a smaller
    order: on index-2 orders every instance answers exit 0 with a b of R
    that passes `verify_result`, and a non-scalar q goes to the oracle
    with the stated reason.  `measure-constant` answers on a batch too."""
    instances = _index_two_instances(36, 12)
    for instance in instances:
        code, out = run_cli(tmp_path, "degree-bound", {"instance": instance})
        assert code == 0, instance
        inst = parse_instance(instance)
        b = (mat(out["b"]),)
        assert inst.order.contains(b) and b[0][0][1] % 2 == 0 == b[0][1][0] % 2
        verify_result(inst, BoundResult(b, out["value"], Fraction(out["norm_b"]), Fraction(out["norm_q"]),
                                        inst.d, out["method"]))
        if out["method"] != "scalar":
            assert out["notes"]["fallback_reason"] == "order is not M_n(Z): lattice glue unavailable"
    code, out = run_cli(tmp_path, "measure-constant", {"instances": instances[:3]})
    assert code == 0 and len(out["entries"]) == 3


def test_degree_bound_desk_scale_bound(tmp_path):
    """Q(sqrt(1000003)) lies past the former desk-scale bound on |disc|: the
    ideal algorithm answers there, and the answer passes `verify_result`."""
    doc = {"instance": {"algebra": {"type": "quadfield", "D": 1000003},
                        "q": ["84000511000777", "-28000084"], "a": ["0", "1"]}}
    code, out = run_cli(tmp_path, "degree-bound", doc)
    assert code == 0 and out["method"] == "ideal-algorithm"
    inst = parse_instance(doc["instance"], "instance")
    F = inst.algebra.factors[0].ring
    b = (QuadElem(F, Fraction(out["b"][0]), Fraction(out["b"][1])),)
    verify_result(inst, BoundResult(b, out["value"], Fraction(out["norm_b"]), Fraction(out["norm_q"]),
                                    inst.d, out["method"]))


def _quaternion_matrix(*entries):
    """M_2 over a quaternion algebra as coordinates: four entries, row by
    row, each a list of (basis index, coefficient)."""
    coords = [["0"] * 4 for _ in range(4)]
    for entry, terms in zip(coords, entries):
        for k, c in terms:
            entry[k] = str(c)
    return [x for entry in coords for x in entry]


@pytest.mark.parametrize(
    "instance, want",
    [
        (
            {"algebra": {"type": "rational"}, "q": "6", "a": "1/2"},
            {"b": "1", "value": 6, "norm_b": "1", "norm_q": "6", "rank_d": 1,
             "achieved_ratio_squared": "1/6", "method": "scalar", "notes": {}},
        ),
        (
            {"algebra": {"type": "quadfield", "D": -1, "involution": "conjugation"}, "q": ["3", "0"],
             "a": ["1", "1"]},
            {"b": ["1", "0"], "value": 3, "norm_b": "1", "norm_q": "9", "rank_d": 2,
             "achieved_ratio_squared": "1/729", "method": "scalar", "notes": {}},
        ),
        (
            {"algebra": {"type": "general", "factors": [{"kind": "quaternion", "a": "-1", "b": "-1"}]},
             "q": ["2", "0", "0", "0"], "a": ["1", "0", "0", "0"]},
            {"b": ["1", "0", "0", "0"], "value": 2, "norm_b": "1", "norm_q": "4", "rank_d": 2,
             "achieved_ratio_squared": "1/64", "method": "scalar", "notes": {}},
        ),
        (
            {"algebra": {"type": "matrix", "n": 2}, "q": [["-1", "0"], ["0", "-4"]],
             "a": [["2", "0"], ["0", "1"]]},
            {"b": [["-2", "0"], ["0", "-1"]], "value": -4, "norm_b": "2", "norm_q": "4", "rank_d": 2,
             "achieved_ratio_squared": "1/16", "method": "oracle-fallback",
             "notes": {"explored": 6560, "fallback_reason": "q is not positive definite"}},
        ),
        (
            {"algebra": {"type": "general", "factors": [
                {"kind": "matrix", "n": 2, "base": {"type": "quaternion", "a": "-1", "b": "-1"}}]},
             "q": _quaternion_matrix([(0, 1)], [(1, -1)], [(1, 1)], [(0, 2)]),
             "a": _quaternion_matrix([(0, 1)], [(1, 1)], [], [(0, 1)])},
            {"b": _quaternion_matrix([(0, 1)], [(1, 1)], [], [(0, 1)]), "value": 1, "norm_b": "1",
             "norm_q": "1", "rank_d": 4, "achieved_ratio_squared": "1", "method": "cleared-similitude",
             "notes": {"fallback_reason": "no specialized route for this algebra"}},
        ),
        (
            {"algebra": {"type": "general", "factors": [{"kind": "quadfield", "D": 5}]},
             "order_basis": [[1, 0], [-1, 2]], "q": [-2, 2], "a": [-3, 1]},
            {"b": ["-6", "2"], "value": 8, "norm_b": "4", "norm_q": "4", "rank_d": 2,
             "achieved_ratio_squared": "1/4", "method": "oracle-fallback",
             "notes": {"explored": 224, "fallback_reason": "non-maximal order: ideal algorithm unavailable"}},
        ),
    ],
    ids=["scalar-rational", "scalar-conjugation", "scalar-quaternion", "oracle-fallback", "cleared-similitude",
         "non-maximal-order"],
)
def test_degree_bound_route_payloads_are_pinned(tmp_path, instance, want):
    """The routes the solve pool does not reach answer their whole payload,
    notes included: a scalar q over Q, a quadratic field under conjugation
    and a quaternion algebra (b = 1, no search), a q that is not positive
    definite in M_2(Q) (the oracle) and M_2 over a quaternion algebra with
    a non-scalar q (the cleared similitude a: its norm is 1, so the box is
    skipped)."""
    assert run_cli(tmp_path, "degree-bound", {"instance": instance}) == (0, want)


def _run_child(tmp_path, launcher, verb, doc):
    """Run polarith in a fresh interpreter from `tmp_path`, importing the same
    `polarith` package as this process; also run `main` in process on the
    same input. Returns the child's result and the in-process exit code and
    output bytes."""
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(doc))
    code = main([verb, str(inp), "-o", str(out)])

    src = str(Path(polarith.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *launcher, verb, str(inp)],
        capture_output=True, cwd=tmp_path, env=env, timeout=120,
    )
    return proc, code, out.read_bytes()


def test_console_entry_point(tmp_path):
    """The `polarith` console script declared in pyproject.toml works end to
    end in a separate process. It is run the way the generated wrapper runs
    it (`sys.argv` is the argument list, `main()`'s return value is the exit
    code), so no install is needed."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["polarith"]
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"

    proc, code, expected = _run_child(
        tmp_path, ["-c", wrapper], "hecke-classes", {"D": 5, "count": 2}
    )
    assert code == 0
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == expected
    assert json.loads(proc.stdout)["representatives"][1]["source_prime"] == 11


def test_python_dash_m(tmp_path):
    """`python -m polarith` is the same program as the console script."""
    doc = {
        "form1": form_q("symmetric", [["1", "0"], ["0", "1"]]),
        "form2": form_q("symmetric", [["1", "0"], ["0", "3"]]),
    }
    proc, code, expected = _run_child(tmp_path, ["-m", "polarith"], "isometric", doc)
    assert code == 2
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == expected


def test_main_module_runs_in_process(tmp_path, monkeypatch, capsys):
    """`polarith/__main__.py`, run in this process as `python -m polarith`
    runs it, exits with `main()`'s code and writes the reference bytes of a
    pool request."""
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    req = json.loads((data / "hecke.inputs.json").read_text())["requests"][0]
    want = json.loads((data / "hecke.reference.json").read_text())[req["id"]]
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(req["input"]))
    monkeypatch.setattr(sys, "argv", ["polarith", req["verb"], str(inp), *req["args"]])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("polarith", run_name="__main__")
    assert (exc.value.code, capsys.readouterr().out) == (want["exit"], want["stdout"])


def test_an_int_past_the_digit_limit_is_written_as_resource_budget(capsys):
    """`cli._json` cannot write an int past `sys.get_int_max_str_digits()`
    digits (`int.__repr__` raises ValueError); `_emit` answers
    `resource:budget` with exit 1 instead."""
    limit = sys.get_int_max_str_digits()
    assert _emit({"value": 10**limit}, "-", 0) == 1
    message = f"an integer has more digits than the interpreter's limit of {limit} (sys.get_int_max_str_digits())"
    assert json.loads(capsys.readouterr().out) == {"error": {"code": "resource:budget", "message": message}}


def test_golden_output_format(tmp_path):
    """Pin the serialization format (exact strings, sorted keys)."""
    doc = {
        "form1": {"kind": "symmetric", "base": {"type": "Q"}, "gram": [["1", "0"], ["0", "1"]]},
        "form2": {"kind": "symmetric", "base": {"type": "Q"}, "gram": [["1", "0"], ["0", "3"]]},
    }
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(doc))
    code = main(["isometric", str(inp), "-o", str(out)])
    assert code == 2
    assert out.read_text() == (
        '{\n'
        '  "complete": true,\n'
        '  "isometric": false,\n'
        '  "reason": "det_class mismatch: 1 vs 3"\n'
        '}\n'
    )


_TRICKY_STRINGS = ["", 'say "hi"', "back\\slash", "\x00\x1f\n\t\x7f", "na\u00efve \u2028", "\U0001f600", "\ud800"]


def _random_tree(rng, depth):
    """A JSON-shaped value: tricky strings, bools, None, small, negative and
    4,000-digit ints, and below `depth` nested lists, tuples and dicts,
    empty ones included."""
    kind = rng.randrange(7 if depth else 4)
    if kind == 0:
        return rng.choice(_TRICKY_STRINGS) + chr(rng.randrange(0x110000))
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.randint(-10**6, 10**6)
    if kind == 3:
        return rng.choice([-1, 1]) * rng.randrange(10**3999, 10**4000)
    items = [_random_tree(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {rng.choice(_TRICKY_STRINGS) + str(i): x for i, x in enumerate(items)}


def test_the_writer_gives_the_bytes_of_json_dumps():
    """`_emit`'s writer matches `json.dumps(v, sort_keys=True, indent=2)` on
    seeded trees of every type a payload holds, and refuses a Fraction with
    TypeError, as json.dumps does."""
    rng = random.Random(17)
    for _ in range(400):
        tree = {"root": _random_tree(rng, 4), "empty": [{}, [], ()]}
        assert _json(tree) == json.dumps(tree, sort_keys=True, indent=2)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        _json({"value": [Fraction(1, 2)]})


def test_norm_cap_flag_runs_oracle(tmp_path):
    doc = {
        "instance": {
            "algebra": {"type": "quadfield", "D": 5},
            "q": ["-2", "2"],
            "a": ["-3", "1"],
        }
    }
    code, out = run_cli(tmp_path, "degree-bound", doc, "--norm-cap", "16")
    assert code == 0
    assert out["oracle"]["found"] is True and out["oracle"]["norm_b"] == "1"


def test_height_flag_confirms_negatives(tmp_path):
    code, out = run_cli(tmp_path, "hecke-classes", {"D": 5, "count": 3}, "--height", "8")
    assert code == 0
    assert out["negatives_confirmed_at_height"] == {"height": 8, "confirmed": True}


@pytest.mark.parametrize("count", [1, 3])
def test_negative_height_rejected(tmp_path, count):
    code, out = run_cli(tmp_path, "hecke-classes", {"D": 5, "count": count}, "--height", "-4")
    assert code == 1
    assert out == {"error": {"code": "precondition:HeckeError", "message": "height must be >= 0"}}


@pytest.mark.parametrize("verb", [*VERBS, "validate"])
@pytest.mark.parametrize("doc", [[1, 2], 7, "x", None])
def test_top_level_value_must_be_object(tmp_path, verb, doc):
    extra = ("--validate-verb", "classify-form") if verb == "validate" else ()
    code, out = run_cli(tmp_path, verb, doc, *extra)
    assert code == 1
    assert out == {"error": {"code": "schema:bad-input", "message": "input must be a JSON object"}}


@pytest.mark.parametrize("cap", ["x", True, 1, "3/2", 7.5])
def test_hecke_prime_cap_must_be_integer(tmp_path, cap):
    doc = {"D": 5, "count": 3, "prime_cap": cap}
    code, out = run_cli(tmp_path, "hecke-classes", doc)
    assert code == 1
    assert out["error"]["code"] == "schema:bad-field"
    code, out = run_cli(tmp_path, "validate", doc, "--validate-verb", "hecke-classes")
    assert code == 1
    assert [e["code"] for e in out["errors"]] == ["schema:bad-field"]


def test_matrix_factor_over_etale_pair_rejected(tmp_path):
    doc = {
        "instance": {
            "algebra": {
                "type": "general",
                "factors": [{"kind": "matrix", "n": 1, "base": {"type": "etale-pair"}}],
            },
            "q": ["1", "1"],
            "a": ["1", "1"],
        }
    }
    code, out = run_cli(tmp_path, "degree-bound", doc)
    assert code == 1
    assert out["error"]["code"] == "schema:bad-algebra"
    assert "swap_pairs" in out["error"]["message"]
    code, out = run_cli(tmp_path, "validate", doc, "--validate-verb", "degree-bound")
    assert code == 1
    assert [e["code"] for e in out["errors"]] == ["schema:bad-algebra"]


_GENERAL_INT_FACTOR = {"algebra": {"type": "general", "factors": [3]}, "q": [], "a": []}


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("degree-bound", {"instance": 3}),
        ("degree-bound", {"instance": [1, 2]}),
        ("degree-bound", {"instance": _GENERAL_INT_FACTOR}),
        ("degree-bound", {"instance": {**_GENERAL_INT_FACTOR, "algebra": {"type": "general", "factors": 3}}}),
        ("measure-constant", {"instances": [3]}),
        ("measure-constant", {"instances": [_GENERAL_INT_FACTOR]}),
    ],
)
def test_nested_value_must_be_object(tmp_path, verb, doc):
    code, out = run_cli(tmp_path, verb, doc)
    assert code == 1
    assert out["error"]["code"] == "schema:bad-input"
    code, out = run_cli(tmp_path, "validate", doc, "--validate-verb", verb)
    assert code == 1
    assert [e["code"] for e in out["errors"]] == ["schema:bad-input"]


def test_measure_constant_instances_must_be_list(tmp_path):
    doc = {"instances": 3}
    code, out = run_cli(tmp_path, "measure-constant", doc)
    assert code == 1 and out["error"]["code"] == "schema:missing-field"
    code, out = run_cli(tmp_path, "validate", doc, "--validate-verb", "measure-constant")
    assert code == 1 and [e["code"] for e in out["errors"]] == ["schema:missing-field"]


_LOCAL_DOCS = {
    "maximal-lattice": {
        "p": 3,
        "form": form_q("symmetric", [["1", "0"], ["0", "9"]]),
        "basis": [["1", "0"], ["0", "1"]],
    },
    "local-solve": {"p": 3, "q": [["1", "0"], ["0", "9"]], "a": [["1", "0"], ["0", "1/3"]], "m_prime": "9"},
}


@pytest.mark.parametrize("verb", ["local-solve"])
@pytest.mark.parametrize("precision", ["x", True, 0, -2, 2.5, [3]])
def test_precision_must_be_positive_integer(tmp_path, verb, precision):
    doc = {**_LOCAL_DOCS[verb], "precision": precision}
    code, out = run_cli(tmp_path, verb, doc)
    assert code == 1
    assert out == {"error": {"code": "schema:bad-field", "message": "precision must be an integer >= 1"}}
    code, out = run_cli(tmp_path, "validate", doc, "--validate-verb", verb)
    assert code == 1
    assert [e["code"] for e in out["errors"]] == ["schema:bad-field"]


def test_maximal_lattice_degenerate_form_is_an_error(tmp_path):
    doc = {**_LOCAL_DOCS["maximal-lattice"], "form": form_q("symmetric", [["1", "0"], ["0", "0"]])}
    code, out = run_cli(tmp_path, "maximal-lattice", doc)
    assert code == 1
    assert out["error"]["code"] == "precondition:LatticeError"


@pytest.mark.parametrize("verb", ["local-solve"])
def test_precision_accepts_positive_integer(tmp_path, verb):
    code, _ = run_cli(tmp_path, verb, {**_LOCAL_DOCS[verb], "precision": 6})
    assert code == 0
    code, out = run_cli(tmp_path, "validate", {**_LOCAL_DOCS[verb], "precision": 6}, "--validate-verb", verb)
    assert code == 0 and out["valid"] is True


def test_maximal_lattice_ignores_precision(tmp_path):
    """`maximal-lattice` truncates nothing, so it reads no `precision`: any
    value answers what the document without one answers."""
    doc = _LOCAL_DOCS["maximal-lattice"]
    want = run_cli(tmp_path, "maximal-lattice", doc)
    assert want[0] == 0
    for precision in ("x", 0, 6):
        assert run_cli(tmp_path, "maximal-lattice", {**doc, "precision": precision}) == want


def _form_doc(**fields):
    return {"form": {**form_q("symmetric", [["1"]]), **fields}}


def _general_doc(factor):
    return {"instance": {"algebra": {"type": "general", "factors": [factor]}, "q": [], "a": []}}


def _error_body(code, message):
    return {"error": {"code": code, "message": message}}


_QUADFIELD_FACTOR = {"kind": "quadfield", "D": 5}

_IDENTITY_FORM_DOC = {"p": 3, "form": form_q("symmetric", [["1", "0"], ["0", "1"]])}

# a rational symmetric form against a hermitian form over Q(i)
_MIXED_PAIR = {"form1": form_q("symmetric", [["1"]]),
               "form2": {"kind": "hermitian", "base": {"type": "quadfield", "D": -1}, "gram": [[["1", "0"]]]}}

# input checks that answer the same body under the verb and under `validate`
_PRECONDITION_BODIES = [
    ("maximal-lattice", {**_IDENTITY_FORM_DOC, "basis": [["1", "2"], ["2", "4"]]},
     _error_body("precondition:LatticeError", "lattice basis is singular")),
    ("maximal-lattice", {**_IDENTITY_FORM_DOC, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
     _error_body("precondition:LatticeError", "form and basis dimensions differ")),
    ("degree-bound", {"instance": {"algebra": {"type": "matrix", "n": 2}, "q": [["1", "2"], ["3", "4"]],
                                   "a": [["1", "0"], ["0", "1"]]}},
     _error_body("precondition:instance", "instance: q must be symmetric under the involution")),
    ("classify-form", _form_doc(kind="bogus"),
     _error_body("invariant:gram", "form: invariant violation: unknown form kind bogus")),
    ("classify-form", {"form": {"kind": "hermitian", "base": {"type": "etale-pair"}, "gram": [["1"]]}},
     _error_body("schema:bad-entry", "form.gram[0][0]: entries over QxQ are lists of 2 rationals")),
    ("isometric", _MIXED_PAIR, _error_body("precondition:FormError", "isometry needs matching kind and base")),
    ("fourth-power-check", _MIXED_PAIR,
     _error_body("precondition:FormError", "fourth-power check needs matching kind and base")),
    ("fourth-power-check", {"form1": form_q("symmetric", [["1"]]), "form2": form_q("symmetric", [["1", "0"], ["0", "1"]])},
     _error_body("precondition:FormError", "fourth-power check needs equal dimensions")),
    ("fourth-power-check", {"form1": form_q("skew", [["0", "1"], ["-1", "0"]]),
                            "form2": form_q("skew", [["0", "1"], ["-1", "0"]])},
     _error_body("precondition:FormError", "positive definiteness requires a hermitian kind")),
    ("local-solve", {**_LOCAL_DOCS["local-solve"], "q": [["1", "1"], ["0", "9"]]},
     _error_body("precondition:LatticeError", "q must be symmetric")),
]


@pytest.mark.parametrize(
    "verb, doc, want",
    [
        ("local-solve", {**_LOCAL_DOCS["local-solve"], "m_prime": [9]},
         _error_body("schema:bad-rational", "m_prime: expected int or fraction string")),
        ("local-solve", {**_LOCAL_DOCS["local-solve"], "m_prime": None},
         _error_body("schema:bad-rational", "m_prime: expected int or fraction string")),
        ("local-solve", {**_LOCAL_DOCS["local-solve"], "q": "x"},
         _error_body("schema:bad-matrix", "q: expected a list of rows")),
        ("local-solve", {**_LOCAL_DOCS["local-solve"], "q": [["1", "0"]]},
         _error_body("schema:bad-matrix", "q: matrix must be square")),
        ("classify-form", _form_doc(base={}),
         _error_body("schema:bad-base", "form.base: base needs a 'type'")),
        ("classify-form", _form_doc(base={"type": "R"}),
         _error_body("schema:bad-base", "form.base: unknown base type 'R'")),
        ("classify-form", {"form": 3}, _error_body("schema:bad-form", "form: expected an object")),
        ("classify-form", _form_doc(gram="x"), _error_body("schema:bad-matrix", "form.gram: expected rows")),
        ("classify-form", _form_doc(gram=[["1", "0"]]),
         _error_body("schema:bad-matrix", "form.gram: must be square")),
        ("degree-bound", _general_doc({"kind": "octonion"}),
         _error_body("schema:bad-algebra", "instance.factors[0]: unknown factor kind 'octonion'")),
        ("degree-bound", {"instance": {"algebra": {"type": "quadfield", "D": 5}, "a": ["1", "0"]}},
         _error_body("schema:bad-instance", "instance: 'q'")),
        ("degree-bound", {"instance": {"algebra": {"type": "octonion"}}},
         _error_body("schema:bad-algebra", "instance: unknown algebra type 'octonion'")),
        ("validate", {},
         _error_body("schema:missing-field", "validate needs --validate-verb or a 'verb' field")),
        ("validate", {"verb": "frobnicate"},
         {"errors": [{"code": "schema:unknown-verb", "message": "unknown verb 'frobnicate'"}], "valid": False}),
        ("degree-bound", _general_doc({**_QUADFIELD_FACTOR, "involution": "canonical"}),
         _error_body("precondition:algebra", "instance: canonical involution needs a quaternion algebra")),
        ("degree-bound", _general_doc({**_QUADFIELD_FACTOR, "involution": "conjugate_transpose"}),
         _error_body("precondition:algebra", "instance: conjugate_transpose needs a matrix factor")),
        ("degree-bound", _general_doc({"kind": "matrix", "n": 2, "z": [["1", "2"], ["3", "4"]]}),
         _error_body(
             "precondition:algebra",
             "instance: conjugator must be symmetric or skew under the base involution",
         )),
        *_PRECONDITION_BODIES,
    ],
)
def test_schema_errors_answer_exit_1_with_their_body(tmp_path, verb, doc, want):
    """Malformed values the parsers and `SimpleFactor` refuse: each answers
    exit 1 and names the field and the fault."""
    assert run_cli(tmp_path, verb, doc) == (1, want)


@pytest.mark.parametrize("algebra", [{"type": "general", "factors": []}, {"type": "general"}])
def test_general_algebra_needs_a_factor(tmp_path, algebra):
    """An empty or missing factor list is a schema error that names
    `factors`, under the verb and under `validate`."""
    doc = {"instance": {"algebra": algebra, "q": [], "a": []}}
    rc, out = run_cli(tmp_path, "degree-bound", doc)
    assert rc == 1 and out["error"]["code"] == "schema:bad-algebra"
    assert "factors" in out["error"]["message"]
    rc, checked = run_cli(tmp_path, "validate", doc, "--validate-verb", "degree-bound")
    assert (rc, checked) == (1, {"valid": False, "errors": [out["error"]]})


# (base, its one, an element its involution does not fix) in Q-coordinates
_SWEEP_BASES = [
    ({"type": "Q"}, ["1"], ["1"]),
    ({"type": "quadfield", "D": 5}, ["1", "0"], ["0", "1"]),
    ({"type": "quadfield", "D": -1}, ["1", "0"], ["0", "1"]),
    ({"type": "quaternion", "a": -1, "b": -1}, ["1", "0", "0", "0"], ["0", "1", "0", "0"]),
    ({"type": "quaternion", "a": 1, "b": 1}, ["1", "0", "0", "0"], ["0", "1", "0", "0"]),
    ({"type": "etale-pair"}, ["1", "1"], ["1", "-1"]),
]


def _sweep_forms():
    """One 2 x 2 form of each kind over each sweep base: <1, 2> for the
    symmetric and hermitian kinds, the hyperbolic plane for skew and <u, u>
    for quat-skew-hermitian, whether or not the base carries that kind."""
    for base, one, u in _SWEEP_BASES:

        def e(coords, c=1):
            xs = [str(c * Fraction(x)) for x in coords]
            return xs[0] if base["type"] == "Q" else xs

        zero = e(one, 0)
        grams = {
            "symmetric": [[e(one), zero], [zero, e(one, 2)]],
            "hermitian": [[e(one), zero], [zero, e(one, 2)]],
            "skew": [[zero, e(one)], [e(one, -1), zero]],
            "quat-skew-hermitian": [[e(u), zero], [zero, e(u)]],
        }
        for kind, gram in grams.items():
            yield {"kind": kind, "base": base, "gram": gram}


@pytest.mark.parametrize("verb", ["classify-form", "isometric", "fourth-power-check", "maximal-lattice"])
def test_form_verbs_answer_every_kind_and_base(tmp_path, verb):
    """Each form verb, under itself and under `validate`, answers every kind
    over every base with exit 0, 1 or 2 and a JSON body, never a
    traceback."""
    for form in _sweep_forms():
        doc = {
            "classify-form": {"form": form},
            "isometric": {"form1": form, "form2": form},
            "fourth-power-check": {"form1": form, "form2": form},
            "maximal-lattice": {"p": 3, "form": form, "basis": [["1", "0"], ["0", "1"]]},
        }[verb]
        rc, out = run_cli(tmp_path, verb, doc)
        assert rc in (0, 1, 2) and isinstance(out, dict) and ("error" in out) == (rc == 1), form
        rc, out = run_cli(tmp_path, "validate", doc, "--validate-verb", verb)
        assert (rc, out["valid"]) in ((0, True), (1, False)) and len(out["errors"]) == rc, form


def _sweep_partners(form):
    """Forms to compare `form` with: itself, its (1, 1) entry times 3 and
    times -1, and its direct sum with itself, so that each kind meets the
    reasons its invariants can differ by."""
    gram = form["gram"]

    def times(x, c):
        return str(c * Fraction(x)) if isinstance(x, str) else [str(c * Fraction(y)) for y in x]

    zero = times(gram[0][1], 0)
    doubled = [row + [zero] * 2 for row in gram] + [[zero] * 2 + row for row in gram]
    partners = [gram, doubled]
    for c in (3, -1):
        scaled = [row[:] for row in gram]
        scaled[1][1] = times(gram[1][1], c)
        partners.append(scaled)
    return [dict(form, gram=g) for g in partners]


def test_form_verbs_sweep_is_pinned(tmp_path):
    """classify-form, isometric and fourth-power-check answer every kind
    over every sweep base, each form against its `_sweep_partners`, with
    the exit codes and output bytes whose sha256 is pinned here: the
    invariant vectors, the certificates and every mismatch reason."""
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    digest, count = hashlib.sha256(), 0
    for form in _sweep_forms():
        docs = [("classify-form", {"form": form})]
        for partner in _sweep_partners(form):
            docs += [(verb, {"form1": form, "form2": partner}) for verb in ("isometric", "fourth-power-check")]
        for verb, doc in docs:
            inp.write_text(json.dumps(doc))
            code = main([verb, str(inp), "-o", str(out)])
            digest.update(json.dumps([verb, code, out.read_text()]).encode())
            count += 1
    assert count == 216
    assert digest.hexdigest() == "847035b3ae765b83b32705ddbaa260ce1e7ed65e2007c902430ec0130a4cfeef"


def test_hecke_classes_decides_each_pair_once(tmp_path, monkeypatch):
    """count 10: no pair is tested, neither while generating the classes
    nor for the matrix: distinct prime norms make the matrix the identity."""
    from polarith import hecke_classes

    real = hecke_classes.equivalent
    calls = []

    def counting(q, r):
        calls.append((q, r))
        return real(q, r)

    monkeypatch.setattr(hecke_classes, "equivalent", counting)
    code, _ = run_cli(tmp_path, "hecke-classes", {"D": 5, "count": 10}, "--height", "0")
    assert code == 0
    assert len(calls) == 0


def _main_on_text(tmp_path, verb, text):
    """`main` on an input file holding `text`: its exit code and JSON body."""
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(text)
    code = main([verb, str(inp), "-o", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("path", [[], ["-"]])
def test_input_from_stdin(tmp_path, monkeypatch, capsys, path):
    """With no input path, or with '-', the verb reads its JSON from stdin
    and answers on stdout what it answers for the same file."""
    doc = _LOCAL_DOCS["local-solve"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main(["local-solve", *path])
    assert (code, json.loads(capsys.readouterr().out)) == run_cli(tmp_path, "local-solve", doc)
    assert code == 0


def test_input_int_past_the_digit_limit(tmp_path):
    """A JSON integer of 5000 digits, past the interpreter's limit on int
    conversion, answers `io:input`, not a traceback."""
    code, out = _main_on_text(tmp_path, "hecke-classes", '{"D": ' + "7" * 5000 + ', "count": 2}')
    assert code == 1 and out["error"]["code"] == "io:input"


def test_input_nested_too_deep(tmp_path):
    """JSON nested 100000 deep answers `io:input`, not a RecursionError."""
    code, out = _main_on_text(tmp_path, "hecke-classes", '{"D": ' + "[" * 100000 + "]" * 100000 + "}")
    assert code == 1 and out["error"]["code"] == "io:input"


def test_output_int_past_the_digit_limit(tmp_path):
    """Over Q(sqrt(10000303)) the second representative has coordinates of
    about 830 digits; under the interpreter's least digit limit, 640, the
    answer is a `resource:budget` body naming the limit, not a traceback."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run_cli(tmp_path, "hecke-classes", {"D": 10000303, "count": 2})
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 1
    assert out["error"] == {
        "code": "resource:budget",
        "message": "an integer has more digits than the interpreter's limit of 640 (sys.get_int_max_str_digits())",
    }
    code, out = run_cli(tmp_path, "hecke-classes", {"D": 10000303, "count": 2})
    assert code == 0 and len(out["representatives"][1]["coords"][0]) > 640


@pytest.mark.parametrize(
    "doc, height, want",
    [
        ({"D": 5, "count": 2}, 1581, None),
        ({"D": 5, "count": 2}, 20000, None),
        ({"D": 5, "count": 10}, 10**30, None),
        ({"D": 5, "count": 700}, 3,
         {"code": "resource:budget",
          "message": "could not find 700 classes below the prime cap (last prime tried: 9973)"}),
        ({"D": -5, "count": 2}, 2000,
         {"code": "precondition:HeckeError", "message": "the construction needs a real quadratic field"}),
        ({"D": 5, "count": 2, "prime_cap": 1}, 2000,
         {"code": "schema:bad-field", "message": "prime_cap must be an integer >= 2"}),
    ],
    ids=["count2-h1581", "count2-h20000", "count10-h1e30", "count700-h3", "imaginary-h2000",
         "bad-prime-cap-h2000"],
)
def test_hecke_confirmation_answers_at_any_height(tmp_path, doc, height, want):
    """The negative confirmation costs O(1) per pair, so it has no budget of
    its own: {"D": 5, "count": 2} at --height 20000 and count 10 at 10^30
    are confirmed fast.  count 700 runs out of split primes while computing,
    which `validate` does not see; an imaginary field or a bad prime_cap
    keeps its own error under both."""
    flags = ("--height", str(height))
    start = time.perf_counter()
    rc, out = run_cli(tmp_path, "hecke-classes", doc, *flags)
    assert time.perf_counter() - start < 10
    if want is None:
        assert rc == 0 and out["negatives_confirmed_at_height"] == {"height": height, "confirmed": True}
    else:
        assert (rc, out) == (1, {"error": want})
    valid = run_cli(tmp_path, "validate", doc, "--validate-verb", "hecke-classes", *flags)
    if want is None or want["code"] == "resource:budget":
        assert valid == (0, {"valid": True, "errors": []})
    else:
        assert valid == (1, {"valid": False, "errors": [want]})


# nextprime(10^25) * nextprime(3 * 10^25): both prime factors lie far past
# the reach of factorint's rho budget
_SEMIPRIME = 10000000000000000000000013 * 30000000000000000000000067


def test_classify_form_factors_no_product_of_two_large_primes(tmp_path):
    """diag(nextprime(10^25), nextprime(3 * 10^25)): each entry is factored
    alone, never their 51-digit product, which `factorint` does not split
    within MAX_RHO_STEPS, so the invariants come at once."""
    p, q = 10000000000000000000000013, 30000000000000000000000067
    assert isprime(p) and isprime(q) and not any(isprime(x) for x in range(10**25 + 1, p))
    start = time.perf_counter()
    code, out = run_cli(tmp_path, "classify-form", {"form": form_q("symmetric", [[str(p), "0"], ["0", str(q)]])})
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == {"invariants": {"base": "Q", "complete": True, "det_square_class": _SEMIPRIME, "dim": 2,
                                  "hasse_minus_one_places": [], "kind": "symmetric", "signatures": [[2, 0]]}}


@pytest.mark.parametrize("gap", [MAX_SCALE_GAP, MAX_SCALE_GAP + 1, 10**30])
def test_maximal_lattice_scale_gap_is_bounded(tmp_path, gap):
    """scale(L) - target_scale is at most `MAX_SCALE_GAP`: at the limit the
    completion answers, past it `resource:budget` names the limit, under
    the verb and under `validate`, at once even for a gap of 10^30."""
    doc = {"p": 5, "form": form_q("symmetric", [["7", "7"], ["7", "11"]]), "basis": [["1", "0"], ["0", "25"]],
           "target_scale": -gap}  # scale(L) = v_5(7) = 0
    start = time.perf_counter()
    code, out = run_cli(tmp_path, "maximal-lattice", doc)
    rc, checked = run_cli(tmp_path, "validate", doc, "--validate-verb", "maximal-lattice")
    assert time.perf_counter() - start < 1
    if gap <= MAX_SCALE_GAP:
        assert code == 0 and out["scale"] == -gap and out["maximal"] and out["contains_input"]
        assert (rc, checked) == (0, {"valid": True, "errors": []})
        return
    want = {"code": "resource:budget", "message": f"scale 0 is {gap} above the target {-gap}, past the limit "
            f"of {MAX_SCALE_GAP} (lattices_local.MAX_SCALE_GAP)"}
    assert (code, out) == (1, {"error": want})
    assert (rc, checked) == (1, {"valid": False, "errors": [want]})


def test_degree_bound_glue_is_not_bounded_by_the_scale_gap(tmp_path):
    """`MAX_SCALE_GAP` bounds the `maximal-lattice` verb only: the lattice
    glue of `degree-bound` completes at 3 from scale 158 to the target 80
    (a gap of 78) and answers its whole payload."""
    instance = {"algebra": {"type": "matrix", "n": 2}, "q": [["1", "0"], ["0", "9"]],
                "a": [[str(3**40), "0"], ["0", str(3**39)]]}
    want = {"achieved_ratio_squared": str(3**152), "b": [[str(3**40), "0"], ["0", str(3**39)]],
            "method": "lattice-glue", "norm_b": str(3**79), "norm_q": "9",
            "notes": {"active_primes": [3], "m2": str(3**80)}, "rank_d": 2, "value": 3**80}
    assert 78 > MAX_SCALE_GAP
    assert run_cli(tmp_path, "degree-bound", {"instance": instance}) == (0, want)


_FACTORING_BUDGET = {
    "code": "resource:budget",
    "message": f"factoring {_SEMIPRIME} stopped at the limit of 1048576 Pollard rho steps",
}


@pytest.mark.parametrize(
    "verb, doc, flags, want",
    [
        ("classify-form", {"form": form_q("symmetric", [[str(_SEMIPRIME)]])}, (), {"error": _FACTORING_BUDGET}),
        ("hecke-classes", {"D": _SEMIPRIME, "count": 2}, (), {"error": _FACTORING_BUDGET}),
        ("validate", {"D": _SEMIPRIME, "count": 2}, ("--validate-verb", "hecke-classes"),
         {"valid": False, "errors": [_FACTORING_BUDGET]}),
    ],
    ids=["classify-form", "hecke-classes", "validate-hecke-classes"],
)
def test_factoring_stops_at_its_budget(tmp_path, verb, doc, flags, want):
    """An integer that factoring cannot split within its budget answers
    `resource:budget` fast, where it once ran for minutes."""
    start = time.perf_counter()
    assert run_cli(tmp_path, verb, doc, *flags) == (1, want)
    assert time.perf_counter() - start < 10


def test_prime_power_entry_is_classified(tmp_path):
    """p^3 for p = nextprime(2^50) is a perfect power, which factoring
    takes apart by its root, where rho would need about 2^25 steps: <p^3>
    has the invariants of <p>."""
    p = 1125899906842679
    start = time.perf_counter()
    cube = run_cli(tmp_path, "classify-form", {"form": form_q("symmetric", [[str(p**3)]])})
    assert time.perf_counter() - start < 10
    assert cube == run_cli(tmp_path, "classify-form", {"form": form_q("symmetric", [[str(p)]])})
    assert cube[0] == 0 and cube[1]["invariants"]["det_square_class"] == p


_GENERAL_SWAP = {
    "algebra": {
        "type": "general",
        "factors": [{"kind": "rational"}, {"kind": "rational"}],
        "swap_pairs": [[0, 1]],
        "gammas": [1, 1],
    },
    "q": ["2", "2"],
    "a": ["1", "1"],
}


def _general(algebra=None, **fields):
    doc = {**_GENERAL_SWAP, **fields}
    doc["algebra"] = {**_GENERAL_SWAP["algebra"], **(algebra or {})}
    return {"instance": doc}


def _herm_over(D):
    return {"form": {"kind": "hermitian", "base": {"type": "quadfield", "D": D}, "gram": [[["1", "0"]]]}}


@pytest.mark.parametrize(
    "verb, doc, code",
    [
        ("classify-form", _herm_over("1/0"), "schema:bad-field"),
        ("classify-form", _herm_over("x"), "schema:bad-field"),
        ("classify-form", _herm_over(2.5), "schema:bad-field"),
        ("classify-form", _herm_over(True), "schema:bad-field"),
        ("classify-form", _herm_over([5]), "schema:bad-field"),
        (
            "degree-bound",
            {"instance": {"algebra": {"type": "general", "factors": [{"kind": "quadfield", "D": "x"}]},
                          "q": [], "a": []}},
            "schema:bad-field",
        ),
        (
            "degree-bound",
            {"instance": {"algebra": {"type": "general", "factors": [{"kind": "matrix", "n": "1/2"}]},
                          "q": [], "a": []}},
            "schema:bad-field",
        ),
        (
            "degree-bound",
            {"instance": {"algebra": {"type": "general", "factors": [{"kind": "matrix", "n": -1}]},
                          "q": ["1"], "a": ["1"]}},
            "schema:bad-field",
        ),
        ("degree-bound", _general({"swap_pairs": [3]}), "schema:bad-algebra"),
        ("degree-bound", _general({"swap_pairs": 3}), "schema:bad-algebra"),
        ("degree-bound", _general({"swap_pairs": [[0, 2]]}), "schema:bad-algebra"),
        ("degree-bound", _general({"swap_pairs": [[0, 1, 1]]}), "schema:bad-algebra"),
        ("degree-bound", _general({"swap_pairs": [[0, 1.0]]}), "schema:bad-algebra"),
        ("degree-bound", _general({"gammas": 1}), "schema:bad-field"),
        ("degree-bound", _general({"gammas": ["x", 1]}), "schema:bad-field"),
        ("degree-bound", _general(q=5), "schema:bad-instance"),
        ("degree-bound", _general(a="11"), "schema:bad-instance"),
        ("degree-bound", _general(q=["2"]), "schema:bad-instance"),
        ("degree-bound", _general(order_basis=5), "schema:bad-instance"),
        ("degree-bound", _general(order_basis=[5, 6]), "schema:bad-instance"),
        ("measure-constant", {"instances": [_general(q=5)["instance"]]}, "schema:bad-instance"),
    ],
)
def test_malformed_scalar_fields_are_schema_errors(tmp_path, verb, doc, code):
    """Values of the wrong type inside a base or a `general` descriptor
    answer a schema error with exit 1, under the verb and under `validate`."""
    rc, out = run_cli(tmp_path, verb, doc)
    assert rc == 1
    assert out["error"]["code"] == code
    rc, out = run_cli(tmp_path, "validate", doc, "--validate-verb", verb)
    assert rc == 1
    assert [e["code"] for e in out["errors"]] == [code]


@pytest.mark.parametrize("D", [-1, "-1"])
def test_quadfield_base_accepts_an_integer_or_its_string(tmp_path, D):
    code, out = run_cli(tmp_path, "classify-form", _herm_over(D))
    assert code == 0 and out["invariants"]["base"] == "Q(sqrt-1)"


@pytest.mark.parametrize("site", range(4))
def test_quadfield_D_is_read_alike_everywhere(tmp_path, site):
    """D = 5 and "5" give the same answer, and D = 4 and "x" the same error
    code, wherever a quadratic field is named."""
    verb, doc = _quadfield_sites(5)[site]
    code, out = run_cli(tmp_path, verb, doc)
    assert code == 0
    assert run_cli(tmp_path, verb, _quadfield_sites("5")[site][1]) == (code, out)
    for D in (4, "x", True):
        code, out = run_cli(tmp_path, verb, _quadfield_sites(D)[site][1])
        assert code == 1 and out["error"]["code"] == "schema:bad-field", (D, out)


@pytest.mark.parametrize("pool", ["forms", "hecke"])
def test_pool_is_byte_identical_to_reference(tmp_path, pool):
    """Every request of a byte-exact benchmark pool, sent through `main`,
    answers the exit code and the exact bytes recorded in the reference."""
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    requests = json.loads((data / f"{pool}.inputs.json").read_text())["requests"]
    reference = json.loads((data / f"{pool}.reference.json").read_text())
    assert len(requests) == len(reference) == {"forms": 136, "hecke": 20}[pool]
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    mismatched = []
    for req in requests:
        inp.write_text(json.dumps(req["input"]))
        code = main([req["verb"], str(inp), "-o", str(out), *req["args"]])
        want = reference[req["id"]]
        if (code, out.read_text()) != (want["exit"], want["stdout"]):
            mismatched.append(req["id"])
    assert mismatched == []


def test_split_quaternion_skew_form_classifies(tmp_path):
    """The (0, 0) entry of this nonsingular form over (1,1/Q) is a zero
    divisor; the diagonalization pivots on a unit instead, so both verbs
    get as far as the invariants.  These are not complete, so `isometric`
    of the form with itself answers that the decision is open."""
    form = {
        "kind": "quat-skew-hermitian",
        "base": {"type": "quaternion", "a": "1", "b": "1"},
        "gram": [
            [["0", "-1", "0", "1"], ["1", "-1", "-1", "1"]],
            [["-1", "-1", "-1", "1"], ["0", "0", "-1", "1"]],
        ],
    }
    code, out = run_cli(tmp_path, "classify-form", {"form": form})
    assert code == 0
    assert out["invariants"] == {"base": "quat(1,1)", "complete": False, "det_square_class": -2,
                                 "dim": 2, "kind": "quat-skew-hermitian"}
    code, out = run_cli(tmp_path, "isometric", {"form1": form, "form2": form})
    assert (code, out) == (1, _OPEN_ISOMETRY)


_OPEN_ISOMETRY = _error_body(
    "precondition:FormError",
    "isometry is open: the invariants agree but are not complete for this kind and base",
)


def _diagonal_gram(entries, zero):
    return [[x if i == j else zero for j in range(len(entries))] for i, x in enumerate(entries)]


@pytest.mark.parametrize(
    "base, first, second, zero",
    [
        # <1, 1> and <11, 11> over Q(sqrt5): equal det class and signatures,
        # unequal Hasse data over the field, which is not computed
        ({"type": "quadfield", "D": 5}, [["1", "0"]] * 2, [["11", "0"]] * 2, ["0", "0"]),
        # <i> and <3i> over (-1, -1 / Q): equal reduced-norm det class
        ({"type": "quaternion", "a": "-1", "b": "-1"}, [["0", "1", "0", "0"]], [["0", "3", "0", "0"]],
         ["0", "0", "0", "0"]),
    ],
    ids=["real-quadratic", "quaternion-skew"],
)
def test_isometric_refuses_agreeing_incomplete_invariants(tmp_path, base, first, second, zero):
    """Forms that are not isometric but whose computed invariants agree:
    `isometric` answers that the decision is open, not exit 0."""
    kind = "symmetric" if base["type"] == "quadfield" else "quat-skew-hermitian"
    doc = {name: {"kind": kind, "base": base, "gram": _diagonal_gram(entries, zero)}
           for name, entries in (("form1", first), ("form2", second))}
    assert run_cli(tmp_path, "isometric", doc) == (1, _OPEN_ISOMETRY)


def _rational(q):
    return {"instance": {"algebra": {"type": "rational"}, "q": q, "a": 1}}


def _matrix_instance(n, q, **algebra):
    return {"instance": {"algebra": {"type": "matrix", "n": n, **algebra}, "q": q, "a": q}}


def _quadfield_sites(D):
    """The four places that name a quadratic field by its D, as
    (verb, doc): a form base, a `general` factor, a `quadfield` instance
    and hecke-classes."""
    return [
        ("classify-form", {"form": {"kind": "symmetric", "base": {"type": "quadfield", "D": D},
                                    "gram": [[["1", "0"]]]}}),
        ("degree-bound", {"instance": {"algebra": {"type": "general", "factors": [{"kind": "quadfield", "D": D}]},
                                       "q": ["1", "0"], "a": ["1", "0"]}}),
        ("degree-bound", {"instance": {"algebra": {"type": "quadfield", "D": D}, "q": ["1", "0"], "a": ["1", "0"]}}),
        ("hecke-classes", {"D": D, "count": 2}),
    ]


def _matrix_factor(base, n, z):
    """A `general` algebra of one matrix factor M_n(base) with conjugator z,
    q = a = 1."""
    dim = {"Q": 1, "quadfield": 2, "quaternion": 4}[base["type"]]
    one = [str(int(k == 0 and i == j)) for i in range(n) for j in range(n) for k in range(dim)]
    factor = {"kind": "matrix", "n": n, "base": base, "z": z}
    return {"instance": {"algebra": {"type": "general", "factors": [factor]}, "q": one, "a": one}}


_TWO = [["2", "0"], ["0", "2"]]


@pytest.mark.parametrize(
    "verb, doc, code",
    [
        ("local-solve", {k: v for k, v in _LOCAL_DOCS["local-solve"].items() if k != "p"},
         "schema:missing-field"),
        ("local-solve", {**_LOCAL_DOCS["local-solve"], "p": "x"}, "schema:bad-field"),
        ("measure-constant", {}, "schema:missing-field"),
        ("measure-constant", {"instances": []}, "schema:missing-field"),
        ("maximal-lattice", {**_LOCAL_DOCS["maximal-lattice"], "target_scale": "x"}, "schema:bad-field"),
        ("maximal-lattice", {**_LOCAL_DOCS["maximal-lattice"], "p": 4}, "precondition:p"),
        ("hecke-classes", {"D": 4, "count": 1}, "schema:bad-field"),
        ("degree-bound", _rational("3/2"), "precondition:instance"),
        ("degree-bound", _matrix_instance(-1, [["1"]]), "schema:bad-field"),
        ("degree-bound", _matrix_instance(2, [["1"]]), "schema:bad-matrix"),
        ("classify-form", {"form": {"kind": "hermitian", "base": {"type": "quaternion", "a": "0", "b": "-1"},
                                    "gram": [[["1", "0", "0", "0"]]]}}, "schema:bad-field"),
        (
            "degree-bound",
            {"instance": {"algebra": {"type": "general", "factors": [{"kind": "matrix", "n": 1, "z": [["0"]]}]},
                          "q": ["1"], "a": ["1"]}},
            "precondition:algebra",
        ),
        ("local-solve", {**_LOCAL_DOCS["local-solve"], "p": 4}, "precondition:p"),
        ("local-solve", {**_LOCAL_DOCS["local-solve"], "p": 2}, "precondition:p"),
        ("degree-bound", {"instance": {"algebra": {"type": "quadfield", "D": 5}, "q": ["1"], "a": ["1", "0"]}},
         "schema:bad-instance"),
        ("degree-bound", _matrix_instance(2, _TWO, gamma=1.5), "schema:bad-field"),
        ("degree-bound", _matrix_instance(2, _TWO, gamma=True), "schema:bad-field"),
        ("degree-bound", _matrix_instance(2, _TWO, gamma="x"), "schema:bad-field"),
        ("degree-bound", _matrix_instance(2, _TWO, gamma=0), "schema:bad-field"),
        ("degree-bound", _matrix_instance(True, [["1"]]), "schema:bad-field"),
        *[(verb, doc, "schema:bad-field") for verb, doc in _quadfield_sites(4)[1:3]],
        (
            "degree-bound",
            {"instance": {"algebra": {"type": "general", "factors": [{"kind": "quaternion", "a": "0", "b": "-1"}]},
                          "q": ["1", "0", "0", "0"], "a": ["1", "0", "0", "0"]}},
            "schema:bad-field",
        ),
        ("hecke-classes", {"D": 5, "count": True}, "schema:bad-field"),
        ("degree-bound", _general({"gammas": [0, 1]}), "schema:bad-field"),
        ("hecke-classes", {"D": -5, "count": 1}, "precondition:HeckeError"),
        ("hecke-classes", {"D": 5, "count": 0}, "schema:bad-field"),
        ("maximal-lattice", {**_LOCAL_DOCS["maximal-lattice"], "form": form_q("symmetric", [["1", "1"], ["1", "1"]])},
         "precondition:LatticeError"),
        ("maximal-lattice", {**_LOCAL_DOCS["maximal-lattice"], "target_scale": 2}, "precondition:LatticeError"),
        *[
            ("local-solve", {**_LOCAL_DOCS["local-solve"], **change}, "precondition:LatticeError")
            for change in (
                {"q": [["1", "1"], ["0", "9"]]},
                {"q": [["1", "0"], ["0", "1/3"]]},
                {"q": [["1", "0"], ["0", "0"]]},
                {"m_prime": "1/3"},
                {"a": [["1", "0"], ["0", "1"]]},
                {"m_prime": "3"},
                {"m_prime": "18"},
            )
        ],
        ("local-solve", {"p": 3, "q": [["1", "0"], ["0", "1"]], "a": [["1"]], "m_prime": "1"},
         "schema:bad-matrix"),
        (
            "measure-constant",
            {"instances": [{"algebra": {"type": "quadfield", "D": D}, "q": ["1", "0"], "a": ["1", "0"]}
                           for D in (5, 13)]},
            "precondition:DegreeBoundError",
        ),
        ("degree-bound", _matrix_factor({"type": "quadfield", "D": 5}, 1, [["1"]]), "schema:bad-entry"),
        ("degree-bound", _matrix_factor({"type": "quaternion", "a": -1, "b": -1}, 1, [["1"]]),
         "schema:bad-entry"),
        ("degree-bound", _matrix_factor({"type": "Q"}, 2, [["1"]]), "schema:bad-matrix"),
        ("hecke-classes", {"D": _SEMIPRIME, "count": 2}, "resource:budget"),
        ("classify-form", {"form": form_q("symmetric", [["1e200000"]])}, "schema:bad-rational"),
        # p = 2 passes the p check and reaches the lattice's own
        ("maximal-lattice", {**_LOCAL_DOCS["maximal-lattice"], "p": 2, "target_scale": 2},
         "precondition:LatticeError"),
        # a symmetric form over Q(sqrt 5) is no p-adic lattice's form
        ("maximal-lattice", {**_LOCAL_DOCS["maximal-lattice"], "form": {
            "kind": "symmetric", "base": {"type": "quadfield", "D": 5},
            "gram": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}},
         "precondition:LatticeError"),
        *[(verb, doc, body["error"]["code"]) for verb, doc, body in _PRECONDITION_BODIES],
    ],
)
def test_validate_agrees_with_verb(tmp_path, verb, doc, code):
    """`validate` answers exactly the error body the verb answers."""
    rc, out = run_cli(tmp_path, verb, doc)
    assert rc == 1
    assert out["error"]["code"] == code
    rc, checked = run_cli(tmp_path, "validate", doc, "--validate-verb", verb)
    assert rc == 1
    assert checked == {"valid": False, "errors": [out["error"]]}


@pytest.mark.parametrize("entry", ["1e200000", "2.5E20000", "-1e-200000"])
def test_exponent_rational_is_refused_at_once(tmp_path, entry):
    """A rational in exponent notation is refused before `Fraction` builds
    its power of ten: "1e200000" is a 200,001-digit integer."""
    start = time.perf_counter()
    code, out = run_cli(tmp_path, "classify-form", {"form": form_q("symmetric", [[entry]])})
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out["error"] == {"code": "schema:bad-rational",
                            "message": f"form.gram[0][0]: {entry!r} (exponent notation is not accepted)"}


def _inv_body(det_class, minus_places, signature):
    return {"invariants": {"base": "Q", "complete": True, "det_square_class": det_class, "dim": 2,
                           "hasse_minus_one_places": minus_places, "kind": "symmetric",
                           "signatures": [signature]}}


_SHAPED_ENTRIES = [7, "1.5", "-3", "1/2", "2/4", " 3", "+3", "1_0", "١٢", "1e5", 1.5, True, "1/0", [1], None]
_NOT_EXACT = _error_body("schema:not-exact", "{}: floats are not accepted")
_NOT_RATIONAL = _error_body("schema:bad-rational", "{}: expected int or fraction string")


def _at(body, where):
    """`body` with its message's path filled in."""
    if "error" not in body:
        return body
    return _error_body(body["error"]["code"], body["error"]["message"].format(where))


# one classify-form body per Gram entry kind: x in [[2, 1], [1, x]] (x at
# gram[1][1]) and in [[x, 1/3], [1/3, 5]] (x at gram[0][0], over d = 3)
_Q_PARSE_BODIES = [
    *zip(_SHAPED_ENTRIES, [
        _inv_body(13, [2, 13], [2, 0]), _inv_body(2, [], [2, 0]), _inv_body(-7, [], [1, 1]),
        _error_body("precondition:FormError", "singular forms have no invariants"),
        _error_body("precondition:FormError", "singular forms have no invariants"),
        _inv_body(5, [2, 5], [2, 0]), _inv_body(5, [2, 5], [2, 0]), _inv_body(19, [2, 19], [2, 0]),
        _inv_body(23, [], [2, 0]),
        _error_body("schema:bad-rational", "{}: '1e5' (exponent notation is not accepted)"),
        _NOT_EXACT, _NOT_EXACT, _error_body("schema:bad-rational", "{}: '1/0' (Fraction(1, 0))"),
        _NOT_RATIONAL, _NOT_RATIONAL,
    ], ["gram[1][1]"] * len(_SHAPED_ENTRIES)),
    *zip(_SHAPED_ENTRIES, [
        _inv_body(314, [2, 157], [2, 0]), _inv_body(266, [2, 7], [2, 0]), _inv_body(-34, [2, 17], [1, 1]),
        _inv_body(86, [2, 43], [2, 0]), _inv_body(86, [2, 43], [2, 0]), _inv_body(134, [2, 67], [2, 0]),
        _inv_body(134, [2, 67], [2, 0]), _inv_body(449, [], [2, 0]), _inv_body(11, [], [2, 0]),
        _error_body("schema:bad-rational", "{}: '1e5' (exponent notation is not accepted)"),
        _NOT_EXACT, _NOT_EXACT, _error_body("schema:bad-rational", "{}: '1/0' (Fraction(1, 0))"),
        _NOT_RATIONAL, _NOT_RATIONAL,
    ], ["gram[0][0]"] * len(_SHAPED_ENTRIES)),
]
_NOT_OF_KIND = _error_body("invariant:gram", "form: invariant violation: gram matrix does not match the declared kind")


@pytest.mark.parametrize(
    "form, want",
    [
        *[(form_q("symmetric", [[2, 1], [1, x]] if at == "gram[1][1]" else [[x, "1/3"], ["1/3", 5]]),
           _at(body, "form." + at)) for x, body, at in _Q_PARSE_BODIES],
        (form_q("symmetric", [[1, 2], [3]]), _error_body("schema:bad-matrix", "form.gram: must be square")),
        (form_q("symmetric", [[1, 2], [3, 4]]), _NOT_OF_KIND),
        (form_q("skew", [[0, 1], [1, 0]]), _NOT_OF_KIND),
        (form_q("skew", [[1, 0], [0, -1]]), _NOT_OF_KIND),
        (form_q("skew", [[0, "1/2"], ["-1/2", 0]]),
         {"invariants": {"base": "Q", "complete": True, "dim": 2, "kind": "skew"}}),
    ],
)
def test_rational_gram_parse_contract(capsys, monkeypatch, form, want):
    """The classify-form body of a rational Gram, byte for byte, for every
    kind of JSON entry (an int, decimal and fraction strings, the strings
    that int() and the Fraction parser read differently, exponents, floats,
    bools, a zero denominator, a list and null), a non-square Gram, and
    Grams that are not symmetric or not skew."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"form": form})))
    code = main(["classify-form", "-"])
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert code == (0 if "invariants" in want else 1)


# what a split on "/" gets wrong ("3/-7", "3/0"), what int() and the
# Fraction parser read differently ("٣", "²", "1_000", " 5", "+4"),
# empty and sign-only strings, and an integer past int()'s digit limit
_RATIONAL_CORPUS = ["3/-7", "3/0", "+4", " 5", "1_000", "٣", "²", "-0", "--3", "3 /7", "", "-",
                    "12", "-45", "7/21", "-6/4", "9" * 5000, "1e5"]


@pytest.mark.parametrize("text", _RATIONAL_CORPUS)
def test_rational_strings_read_as_fraction_reads_them(text):
    """`_rat` reads an ASCII decimal integer without the Fraction parser;
    on every string it accepts what `Fraction(str)` accepts, with the same
    value, and answers the rest `schema:bad-rational`, exponent notation
    included."""
    try:
        want = None if "e" in text else Fraction(text)
    except (ValueError, ZeroDivisionError):
        want = None
    if want is None:
        with pytest.raises(InputError) as exc:
            _rat(text, "v")
        assert exc.value.code == "schema:bad-rational"
        if "e" in text:
            assert "exponent notation" in str(exc.value)
    else:
        got = _rat(text, "v")
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize(
    "verb, field, value",
    [
        ("local-solve", "p", 3),
        ("maximal-lattice", "p", 3),
        ("local-solve", "precision", 6),
        ("maximal-lattice", "target_scale", 0),
        ("hecke-classes", "prime_cap", 100),
    ],
)
def test_integer_fields_accept_decimal_strings(tmp_path, verb, field, value):
    """An integer field given as a decimal string answers what the integer
    answers, under the verb and under `validate`."""
    doc = _LOCAL_DOCS.get(verb, {"D": 5, "count": 3})
    as_int = run_cli(tmp_path, verb, {**doc, field: value})
    assert as_int[0] == 0
    assert run_cli(tmp_path, verb, {**doc, field: str(value)}) == as_int
    rc, out = run_cli(tmp_path, "validate", {**doc, field: str(value)}, "--validate-verb", verb)
    assert (rc, out) == (0, {"valid": True, "errors": []})


@pytest.mark.parametrize("tag", ["bogus", 3, [1]])
def test_bad_involution_tag_is_one_code(tmp_path, tag):
    """A quadratic field's involution tag outside the known ones answers the
    same `precondition:algebra` body in a `quadfield` instance and in a
    `general` factor, under the verb and under `validate`."""
    coords = {"q": ["1", "0"], "a": ["1", "0"]}
    docs = [
        {"instance": {"algebra": {"type": "quadfield", "D": 5, "involution": tag}, **coords}},
        {"instance": {"algebra": {"type": "general",
                                  "factors": [{"kind": "quadfield", "D": 5, "involution": tag}]},
                      **coords}},
    ]
    want = {"error": {"code": "precondition:algebra", "message": f"instance: unknown involution {tag}"}}
    for doc in docs:
        assert run_cli(tmp_path, "degree-bound", doc) == (1, want)
        rc, out = run_cli(tmp_path, "validate", doc, "--validate-verb", "degree-bound")
        assert (rc, out) == (1, {"valid": False, "errors": [want["error"]]})


def test_matrix_factor_over_a_field_serializes_flat_coordinates(tmp_path):
    """M_1(Q(sqrt5)) with its conjugator written as Q-coordinates answers,
    and b is the flat list of its rational coordinates."""
    doc = _matrix_factor({"type": "quadfield", "D": 5}, 1, [[["1", "0"]]])
    code, out = run_cli(tmp_path, "degree-bound", doc)
    assert code == 0
    assert len(out["b"]) == 2 and [str(Fraction(c)) for c in out["b"]] == out["b"]
    assert run_cli(tmp_path, "validate", doc, "--validate-verb", "degree-bound") == (
        0, {"valid": True, "errors": []}
    )


@pytest.mark.parametrize(
    "base, dim",
    [({"type": "Q"}, 1), ({"type": "quadfield", "D": -3}, 2), ({"type": "quaternion", "a": -1, "b": -3}, 4)],
)
def test_matrix_factor_element_is_serialized_as_rationals(base, dim):
    """One matrix factor over Q serializes as a matrix of rationals, over
    any other base as the flat list of its Q-coordinates."""
    inst = parse_instance(_matrix_factor(base, 2, None)["instance"])
    x = (inst.algebra.factors[0].from_qcoords([Fraction(k, 3) for k in range(4 * dim)]),)
    want = [str(Fraction(k, 3)) for k in range(4 * dim)]
    got = serialize_element(inst, x)
    assert got == (want if dim > 1 else [want[:2], want[2:]])


# The degree-bound requests that the reference records as oracle fallbacks
# and that now take a specialized route: the dyadic split-matrix requests
# glue at 2, and the Q(i) requests absorb their unit +-i with the twist 2.
_REROUTED = {
    **{f"solve-{k:03d}": "ideal-algorithm" for k in (24, 25, 27)},
    **{f"solve-{k:03d}": "lattice-glue" for k in (45, 53, 54, 58, 59)},
}


def test_solve_pool_matches_reference(tmp_path):
    """Every solve-pool request but the slowest answers the exit code, and a
    degree-bound request the norm_b, recorded in the reference, and the
    method and oracle count too, except for the rerouted requests, which
    take the method of `_REROUTED` and explore nothing.  No degree-bound
    request falls back to the oracle.  Left out, at seconds each: the n = 4
    maximal lattices at p = 7 and 11."""
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    requests = json.loads((data / "solve.inputs.json").read_text())["requests"]
    reference = json.loads((data / "solve.reference.json").read_text())
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    sent, mismatched, methods = 0, [], []
    for req in requests:
        want = reference[req["id"]]
        if req["stratum"] in ("maximal-n4-p7", "maximal-n4-p11"):
            continue
        if req["id"] in _REROUTED:
            want = {"exit": want["exit"], "method": _REROUTED[req["id"]], "norm_b": want["norm_b"]}
        sent += 1
        inp.write_text(json.dumps(req["input"]))
        got = {"exit": main([req["verb"], str(inp), "-o", str(out), *req["args"]])}
        if req["verb"] == "degree-bound":
            res = json.loads(out.read_text())
            got.update(method=res.get("method"), norm_b=res.get("norm_b"))
            methods.append(got["method"])
            if "explored" in res.get("notes", {}):
                got["explored"] = res["notes"]["explored"]
        if got != want:
            mismatched.append(req["id"])
    assert sent == 92
    assert mismatched == []
    assert len(methods) == 64 and "oracle-fallback" not in methods


def _solve_pool_digests(tmp_path, verbs, pinned):
    """The exit code and sha256 of the output bytes of every solve-pool
    request of `verbs`, and the digests pinned in `data/<pinned>`."""
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    requests = json.loads((data / "solve.inputs.json").read_text())["requests"]
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    got = {}
    for req in requests:
        if req["verb"] in verbs:
            inp.write_text(json.dumps(req["input"]))
            code = main([req["verb"], str(inp), "-o", str(out), *req["args"]])
            got[req["id"]] = {"exit": code, "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}
    return got, json.loads((Path(__file__).parent / "data" / pinned).read_text())


def test_lattice_pool_responses_are_pinned(tmp_path):
    """Every maximal-lattice and local-solve request of the solve pool, the
    n = 4 lattices at p = 7 and 11 included, answers the exit code and the
    sha256 of the output bytes in `data/solve_lattice_sha256.json`,
    recorded when the superlattice scan still tested every projective
    point.  A scan that picks another maximal lattice fails here."""
    got, pinned = _solve_pool_digests(tmp_path, ("maximal-lattice", "local-solve"), "solve_lattice_sha256.json")
    assert len(got) == 32
    assert got == pinned


def test_degree_bound_pool_responses_are_pinned(tmp_path):
    """Every degree-bound request of the solve pool answers the exit code
    and the sha256 of the output bytes in
    `data/solve_degree_bound_sha256.json`, recorded before the ideal
    algorithm and the Hecke decision shared one square-root routine: the
    same b, value and notes, byte for byte."""
    got, pinned = _solve_pool_digests(tmp_path, ("degree-bound",), "solve_degree_bound_sha256.json")
    assert len(got) == 64
    assert got == pinned


def test_pool_inputs_validate(tmp_path):
    """Every request of the benchmark pools passes `validate` with its
    verb and flags."""
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    rejected = []
    for path in sorted(data.glob("*.inputs.json")):
        for req in json.loads(path.read_text())["requests"]:
            rc, out = run_cli(tmp_path, "validate", req["input"], "--validate-verb", req["verb"], *req["args"])
            if (rc, out) != (0, {"valid": True, "errors": []}):
                rejected.append(req["id"])
    assert rejected == []


@pytest.mark.parametrize(
    "script, args",
    [
        ("hecke_separation.py", ["10", "--count", "6", "--confirm-height", "4"]),
        ("measure_constants.py", ["--fields", "5", "10", "--count", "4", "--matrix"]),
    ],
)
def test_experiment_script_runs(script, args):
    """The scripts under scripts/ import the library directly; each runs to
    a clean exit on a small input."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), *args],
        capture_output=True, cwd=root, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr + proc.stdout


@pytest.mark.parametrize(
    "kind, base, gram, lower",
    [
        pytest.param("symmetric", {"type": "Q"}, [["1", "2"], ["2", "5"]], "3", id="symmetric"),
        pytest.param(
            "hermitian",
            {"type": "quadfield", "D": -1},
            [[["1", "0"], ["1", "2"]], [["-7", "-2"], ["3", "0"]]],
            ["1", "-2"],
            id="hermitian",
        ),
        pytest.param(
            "quat-skew-hermitian",
            {"type": "quaternion", "a": "-1", "b": "-1"},
            [[["0", "1", "0", "0"], ["1", "1", "0", "0"]], [["-1", "1", "0", "0"], ["0", "0", "1", "0"]]],
            ["-1", "1", "0", "1"],
            id="quat-skew-hermitian",
        ),
    ],
)
def test_gram_broken_in_one_lower_entry_is_refused(tmp_path, kind, base, gram, lower):
    """The kind is checked on the upper triangle only, where the condition
    at (i, j) is the involution of the one at (j, i): a Gram of the kind
    classifies, and the same Gram with its (1, 0) entry changed alone is
    `invariant:gram`."""
    form = {"kind": kind, "base": base, "gram": gram}
    code, out = run_cli(tmp_path, "classify-form", {"form": form})
    assert code == 0 and out["invariants"]["kind"] == kind
    broken = {**form, "gram": [gram[0], [lower, gram[1][1]]]}
    code, out = run_cli(tmp_path, "classify-form", {"form": broken})
    assert code == 1 and out["error"]["code"] == "invariant:gram"


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    """The parser is built once; each call still reads its own flags: a
    call with `-o file --height 0` and then one with neither write where
    and what each asked for."""
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    inp.write_text(json.dumps({"D": 5, "count": 2}))
    assert main(["hecke-classes", str(inp), "-o", str(out), "--height", "0"]) == 0
    first = json.loads(out.read_text())
    assert "negatives_confirmed_at_height" not in first
    capsys.readouterr()
    assert main(["hecke-classes", str(inp)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["negatives_confirmed_at_height"] == {"height": 3, "confirmed": True}
    assert {k: v for k, v in second.items() if k != "negatives_confirmed_at_height"} == first
    assert json.loads(out.read_text()) == first
