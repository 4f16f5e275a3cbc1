"""Batch command-line surface: JSON in, JSON out, exact values only.

Exit codes: 0 = verified positive result, 2 = computed mathematical
negative (e.g. "not isometric"), 1 = error (schema violation, precondition
failure, resource cap).  Output is byte-identical for identical input:
keys are sorted and every numeric value is an exact integer or a fraction
string, never a float.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .algebras import (
    AlgebraError,
    AlgebraWithInvolution,
    OrderR,
    QuaternionRing,
    SimpleFactor,
    _freeze,
)
from .degree_bound import (
    BoundInstance,
    DegreeBoundError,
    OracleBudgetError,
    brute_force_oracle,
    check_measure_constant,
    matrix_instance,
    measure_constant,
    quadfield_instance,
    rational_instance,
    solve,
)
from .exact import REAL_PLACE, ExactError, valuation
from .forms import (
    EtalePairRing,
    FormError,
    GramForm,
    fourth_power_isometric,
    invariants,
    isometric,
)
from .lattices_local import (
    PRECISION,
    LatticeError,
    PadicLattice,
    check_completion,
    check_local_solve,
    check_prime,
    complete_after_check,
    is_maximal,
    scale,
    solve_after_check,
)
from .linalg import QQ, RationalRing, det, frac, mat
from .quadfield import QuadField, QuadFieldError, ResourceError
from .hecke_classes import (
    PRIME_CAP,
    HeckeError,
    exhaustive_witness_search,
    generate_classes,
)


class InputError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _rat(v, where: str) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise InputError("schema:not-exact", f"{where}: floats are not accepted")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        # "1e200000" would build a 200,001-digit integer; without exponents
        # every parsed integer is bounded by the length of the string
        if "e" in v or "E" in v:
            raise InputError("schema:bad-rational", f"{where}: {v!r} (exponent notation is not accepted)")
        try:
            # an ASCII decimal integer skips the Fraction string parser
            if v.isascii() and v.removeprefix("-").isdigit():
                return Fraction(int(v))
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("schema:bad-rational", f"{where}: {v!r} ({exc})") from None
    raise InputError("schema:bad-rational", f"{where}: expected int or fraction string")


def _int(v, where: str, least: int | None = None) -> int:
    """An integer field: a JSON integer or a decimal string of one, at
    least `least` when that is given; `schema:bad-field` otherwise."""
    if isinstance(v, str):
        try:
            v = int(v)
        except ValueError:
            pass
    if not isinstance(v, int) or isinstance(v, bool) or (least is not None and v < least):
        bound = "" if least is None else f" >= {least}"
        raise InputError("schema:bad-field", f"{where} must be an integer{bound}")
    return v


def _coords(v, n: int, where: str) -> list[Fraction]:
    """The n rational coordinates of an algebra element."""
    if not isinstance(v, list) or len(v) != n:
        raise InputError("schema:bad-instance", f"{where}: expected a list of {n} rationals")
    return [_rat(c, where) for c in v]


def _entry(v, ring, where: str):
    """A matrix entry over `ring`: a rational over Q, else the list of the
    entry's Q-coordinates."""
    if isinstance(ring, RationalRing):
        return _rat(v, where)
    if not isinstance(v, list) or len(v) != ring.dim_q:
        raise InputError(
            "schema:bad-entry", f"{where}: entries over {ring!r} are lists of {ring.dim_q} rationals"
        )
    return ring.from_qcoords([_rat(x, where) for x in v])


def _matrix(v, where: str, n: int | None = None, ring=QQ):
    """A nonempty square matrix over `ring` (of rationals by default); n x n
    when `n` is given."""
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise InputError("schema:bad-matrix", f"{where}: expected a list of rows")
    if any(len(r) != len(v) for r in v):
        raise InputError("schema:bad-matrix", f"{where}: matrix must be square")
    if n is not None and len(v) != n:
        raise InputError("schema:bad-matrix", f"{where}: expected a {n} x {n} matrix")
    return [[_entry(x, ring, where) for x in row] for row in v]


def _serialize_matrix(m) -> list:
    return [[str(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# Form (de)serialization


def _quadfield(doc: dict, where: str) -> QuadField:
    """Q(sqrt D) for the field `D` of the object `doc` at `where`: the one
    reader of D, in a form base, an algebra, an instance and hecke-classes."""
    if "D" not in doc:
        raise InputError("schema:missing-field", f"{where}: missing 'D'")
    try:
        return QuadField(_int(doc["D"], where + ".D"))
    except QuadFieldError as exc:
        raise InputError("schema:bad-field", f"{where}: {exc}") from None


def _quaternion(doc: dict, where: str) -> QuaternionRing:
    """(a, b / Q) for the fields `a` and `b` of the object `doc` at `where`."""
    a = _rat(doc.get("a"), where + ".a")
    b = _rat(doc.get("b"), where + ".b")
    try:
        return QuaternionRing(RationalRing(), a, b)
    except AlgebraError as exc:
        raise InputError("schema:bad-field", f"{where}: {exc}") from None


def parse_base(doc, where: str):
    if not isinstance(doc, dict) or "type" not in doc:
        raise InputError("schema:bad-base", f"{where}: base needs a 'type'")
    t = doc["type"]
    if t == "Q":
        return RationalRing()
    if t == "quadfield":
        return _quadfield(doc, where)
    if t == "quaternion":
        return _quaternion(doc, where)
    if t == "etale-pair":
        return EtalePairRing()
    raise InputError("schema:bad-base", f"{where}: unknown base type {t!r}")


def parse_form(doc, where: str = "form") -> GramForm:
    if not isinstance(doc, dict):
        raise InputError("schema:bad-form", f"{where}: expected an object")
    for key in ("kind", "base", "gram"):
        if key not in doc:
            raise InputError("schema:missing-field", f"{where}: missing {key!r}")
    ring = parse_base(doc["base"], where + ".base")
    rows = doc["gram"]
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise InputError("schema:bad-matrix", f"{where}.gram: expected rows")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("schema:bad-matrix", f"{where}.gram: must be square")
    try:
        gram = [[_entry(x, ring, where) for x in row] for row in rows]
    except InputError:
        # parse again with each entry's path, which only an error names
        gram = [[_entry(rows[i][j], ring, f"{where}.gram[{i}][{j}]") for j in range(n)] for i in range(n)]
    try:
        return GramForm(doc["kind"], ring, gram)
    except FormError as exc:
        raise InputError("invariant:gram", f"{where}: invariant violation: {exc}") from None


def serialize_invariants(inv) -> dict:
    out: dict = {"kind": inv.kind, "base": inv.base, "dim": inv.dim, "complete": inv.complete}
    if inv.det_class is not None:
        out["det_square_class"] = inv.det_class
    if inv.det_element is not None:
        if hasattr(inv.det_element, "x"):
            out["det_element"] = [str(inv.det_element.x), str(inv.det_element.y)]
        else:
            out["det_element"] = str(frac(inv.det_element))
    if inv.det_is_norm is not None:
        out["det_is_norm"] = inv.det_is_norm
    if inv.hasse is not None:
        out["hasse_minus_one_places"] = ["oo" if v == REAL_PLACE else v for v in inv.hasse_minus_places()]
    if inv.signatures is not None:
        out["signatures"] = [list(s) for s in inv.signatures]
    return out


# ---------------------------------------------------------------------------
# Verb handlers.  Each parses and checks its whole input first, then returns
# the computation as a zero-argument callable giving (exit_code, payload):
# `main` calls it, `validate` drops it.


def cmd_classify_form(doc, args):
    f = parse_form(doc.get("form", doc))
    return lambda: (0, {"invariants": serialize_invariants(invariants(f))})


def _form_pair(doc) -> tuple[GramForm, GramForm]:
    return parse_form(doc["form1"], "form1"), parse_form(doc["form2"], "form2")


def cmd_isometric(doc, args):
    f1, f2 = _form_pair(doc)

    def run():
        dec = isometric(f1, f2)
        return (0 if dec else 2), {"isometric": bool(dec), "complete": dec.complete, "reason": dec.reason}

    return run


def cmd_fourth_power_check(doc, args):
    f1, f2 = _form_pair(doc)

    def run():
        ok, cert = fourth_power_isometric(f1, f2)
        return (0 if ok else 1), {"isometric_fourth_powers": ok, "certificate": cert}

    return run


def _prime(doc, odd: bool = False) -> int:
    """The `p` field; a p that is not prime, or 2 where the verb needs p
    odd, is `precondition:p`."""
    if "p" not in doc:
        raise InputError("schema:missing-field", "p must be an integer prime")
    p = _int(doc["p"], "p")
    try:
        check_prime(p, odd)
    except LatticeError as exc:
        raise InputError("precondition:p", str(exc)) from None
    return p


def cmd_maximal_lattice(doc, args):
    p = _prime(doc)
    form = parse_form(doc["form"], "form")
    basis = _matrix(doc["basis"], "basis")
    target = _int(doc.get("target_scale", 0), "target_scale")
    L = PadicLattice(p, basis, form)
    check_completion(L, target)

    def run():
        out = complete_after_check(L, target)
        return 0, {
            "basis": _serialize_matrix(out.basis),
            "gram": _serialize_matrix(out.gram()),
            "scale": scale(out),
            "maximal": is_maximal(out),
            "contains_input": out.contains(L),
        }

    return run


def cmd_local_solve(doc, args):
    p = _prime(doc, odd=True)
    precision = _int(doc.get("precision", PRECISION), "precision", least=1)
    q = _matrix(doc["q"], "q")
    a = _matrix(doc["a"], "a", len(q))
    m_prime = _rat(doc["m_prime"], "m_prime")
    qinv, s = check_local_solve(q, a, m_prime, p)

    def run():
        b = solve_after_check(q, a, m_prime, p, precision, qinv, s)
        return 0, {
            "b": _serialize_matrix(b),
            "value": str(m_prime),
            "local_norm_exponent_of_det": valuation(det(mat(b)), p),
        }

    return run


def _parse_general_algebra(alg, where: str):
    """The full factor-list algebra descriptor: kind tags, structure
    constants, involution tag plus conjugating element, swap pairs and
    gammas."""
    factors = []
    raw = alg.get("factors", [])
    if not isinstance(raw, list):
        raise InputError("schema:bad-input", f"{where}.factors: expected a list")
    if not raw:
        raise InputError("schema:bad-algebra", f"{where}.factors: expected at least one factor")
    for i, fd in enumerate(raw):
        w = f"{where}.factors[{i}]"
        if not isinstance(fd, dict):
            raise InputError("schema:bad-input", f"{w}: expected an object")
        kind = fd.get("kind")
        if kind == "rational":
            factors.append(SimpleFactor(RationalRing()))
        elif kind == "quadfield":
            involution = fd.get("involution", "identity")
            factors.append(SimpleFactor(_quadfield(fd, w), involution=involution))
        elif kind == "quaternion":
            factors.append(SimpleFactor(_quaternion(fd, w), involution="canonical"))
        elif kind == "matrix":
            base = parse_base(fd.get("base", {"type": "Q"}), w + ".base")
            if isinstance(base, EtalePairRing):
                raise InputError(
                    "schema:bad-algebra",
                    f"{w}: Q x Q is not simple; write it as two factors with swap_pairs",
                )
            n = _int(fd["n"], w + ".n", least=1)
            z = fd.get("z")
            zf = _freeze(_matrix(z, w + ".z", n, base)) if z is not None else None
            factors.append(
                SimpleFactor(base, matrix_size=n, involution="conjugate_transpose", z=zf)
            )
        else:
            raise InputError("schema:bad-algebra", f"{w}: unknown factor kind {kind!r}")
    swap_pairs = alg.get("swap_pairs", [])
    if not isinstance(swap_pairs, list) or not all(
        isinstance(p, list) and len(p) == 2
        and all(type(i) is int and 0 <= i < len(factors) for i in p)
        for p in swap_pairs
    ):
        raise InputError(
            "schema:bad-algebra", f"{where}.swap_pairs: expected pairs of factor indices"
        )
    # errors in this order: swap pairs, the gammas schema, then gamma count
    # and dagger-compatibility
    A = AlgebraWithInvolution(tuple(factors), tuple(tuple(p) for p in swap_pairs))
    gammas = alg.get("gammas", [1] * len(factors))
    if not isinstance(gammas, list):
        raise InputError("schema:bad-field", f"{where}.gammas: expected a list")
    return replace(A, gammas=tuple(_int(g, f"{where}.gammas", least=1) for g in gammas))


def _general_instance(doc, where: str) -> BoundInstance:
    try:
        A = _parse_general_algebra(doc["algebra"], where)
        n = A.dim_q
        basis_doc = doc.get("order_basis")
        if basis_doc is None:
            basis = None
        elif isinstance(basis_doc, list):
            basis = tuple(
                A.from_qcoords(_coords(row, n, f"{where}.order_basis")) for row in basis_doc
            )
        else:
            raise InputError("schema:bad-instance", f"{where}.order_basis: expected a list of rows")
        order = OrderR(A, basis)
        q = A.from_qcoords(_coords(doc["q"], n, f"{where}.q"))
        a = A.from_qcoords(_coords(doc["a"], n, f"{where}.a"))
        return BoundInstance(order, q, a)
    except (AlgebraError, QuadFieldError) as exc:
        raise InputError("precondition:algebra", f"{where}: {exc}") from None


def parse_instance(doc, where: str = "instance") -> BoundInstance:
    if not isinstance(doc, dict):
        raise InputError("schema:bad-input", f"{where}: expected an object")
    alg = doc.get("algebra")
    if not isinstance(alg, dict) or "type" not in alg:
        raise InputError("schema:bad-algebra", f"{where}: algebra needs a type")
    t = alg["type"]
    if t == "general":
        return _general_instance(doc, where)
    try:
        if t == "rational":
            return rational_instance(_rat(doc["q"], "q"), _rat(doc.get("a", 1), "a"))
        if t == "quadfield":
            F = _quadfield(alg, where)
            involution = alg.get("involution", "identity")
            q, a = doc["q"], doc["a"]
            return quadfield_instance(F, _coords(q, 2, "q"), _coords(a, 2, "a"), involution)
        if t == "matrix":
            n = _int(alg.get("n"), where + ".n", least=1)
            gamma = _int(alg.get("gamma", 1), where + ".gamma", least=1)
            return matrix_instance(n, _matrix(doc["q"], "q", n), _matrix(doc["a"], "a", n), gamma)
    except (KeyError, IndexError, TypeError) as exc:
        raise InputError("schema:bad-instance", f"{where}: {exc}") from None
    except (QuadFieldError, DegreeBoundError) as exc:
        raise InputError("precondition:instance", f"{where}: {exc}") from None
    except AlgebraError as exc:
        raise InputError("precondition:algebra", f"{where}: {exc}") from None
    raise InputError("schema:bad-algebra", f"{where}: unknown algebra type {t!r}")


def serialize_element(inst: BoundInstance, x) -> object:
    if len(inst.algebra.factors) == 1:
        f0 = inst.algebra.factors[0]
        if f0.matrix_size and isinstance(f0.ring, RationalRing):
            return _serialize_matrix(x[0])
        if isinstance(x[0], Fraction):
            return str(x[0])
    return [str(c) for c in inst.algebra.to_qcoords(x)]


def cmd_degree_bound(doc, args):
    inst = parse_instance(doc.get("instance", doc))
    cap = None if args.norm_cap is None else _rat(args.norm_cap, "--norm-cap")

    def run():
        res = solve(inst)
        payload = {
            "b": serialize_element(inst, res.b),
            "value": res.value,
            "norm_b": str(res.norm_b),
            "norm_q": str(res.norm_q),
            "rank_d": res.d,
            "achieved_ratio_squared": str(res.achieved_ratio_squared),
            "method": res.method,
            "notes": {k: v if isinstance(v, (bool, int, list)) else str(v) for k, v in res.notes.items()},
        }
        if cap is not None:
            oracle = brute_force_oracle(inst, cap)
            payload["oracle"] = {
                "cap": str(cap),
                "found": oracle is not None,
                "norm_b": str(oracle.norm_b) if oracle else None,
                "value": oracle.value if oracle else None,
            }
        return 0, payload

    return run


def cmd_hecke_classes(doc, args):
    field = _quadfield(doc, "hecke-classes")
    count = _int(doc["count"], "count", least=1)
    if args.height < 0:
        raise HeckeError("height must be >= 0")
    prime_cap = _int(doc.get("prime_cap", PRIME_CAP), "prime_cap", least=2)
    if not field.is_real:
        raise HeckeError("the construction needs a real quadratic field")

    def run():
        # generate_classes's norms make every pair inequivalent: the matrix is
        # the identity and no pair has a witness
        reps = generate_classes(field, count, prime_cap=prime_cap)
        n = len(reps)
        payload = {
            "representatives": [
                {"coords": [str(r.q.x), str(r.q.y)], "norm": str(r.q.norm()),
                 "source_prime": r.source_prime}
                for r in reps
            ],
            "pairwise_equivalent": [[i == j for j in range(n)] for i in range(n)],
            "witnesses": [],
        }
        if args.height:
            confirmed = all(
                exhaustive_witness_search(reps[i].q, reps[j].q, args.height) is None
                for i in range(n) for j in range(i + 1, n)
            )
            payload["negatives_confirmed_at_height"] = {"height": args.height, "confirmed": confirmed}
        return 0, payload

    return run


def cmd_measure_constant(doc, args):
    raw = doc.get("instances")
    if not isinstance(raw, list) or not raw:
        raise InputError("schema:missing-field", "instances must be a nonempty list")
    instances = [parse_instance(d, f"instances[{i}]") for i, d in enumerate(raw)]
    check_measure_constant(instances)
    return lambda: (0, measure_constant(instances).as_json_dict())


VERBS = {
    "classify-form": cmd_classify_form,
    "isometric": cmd_isometric,
    "fourth-power-check": cmd_fourth_power_check,
    "maximal-lattice": cmd_maximal_lattice,
    "local-solve": cmd_local_solve,
    "degree-bound": cmd_degree_bound,
    "hecke-classes": cmd_hecke_classes,
    "measure-constant": cmd_measure_constant,
}

_PRECONDITION = (
    AlgebraError, DegreeBoundError, ExactError, FormError, HeckeError, LatticeError, QuadFieldError
)
_RESOURCE = (ResourceError, OracleBudgetError)
_MAPPED = (InputError, KeyError, *_PRECONDITION, *_RESOURCE, ValueError)


def _error(exc: Exception) -> dict:
    """The `{"code", "message"}` body of a failure, the same under a verb
    and under `validate`.  `exc` is one of `_MAPPED`, a plain ValueError
    only for an int past the interpreter's digit limit; others raise again."""
    if isinstance(exc, InputError):
        return {"code": exc.code, "message": str(exc)}
    if isinstance(exc, KeyError):
        return {"code": "schema:missing-field", "message": f"missing {exc}"}
    if isinstance(exc, _RESOURCE):
        return {"code": "resource:budget", "message": str(exc)}
    if isinstance(exc, _PRECONDITION):
        return {"code": "precondition:" + type(exc).__name__, "message": str(exc)}
    if "integer string conversion" not in str(exc):
        raise exc
    return {"code": "resource:budget", "message": "an integer has more digits than the interpreter's limit "
            f"of {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())"}


def _emit(payload: dict, output: str, code: int) -> int:
    """Write `payload` to the `output` path ('-' for stdout) and return the
    exit code `code`; an unwritable path answers `io:output` on stdout, an
    int too long to write `resource:budget`, each with exit 1 instead."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    except ValueError as exc:
        return _emit({"error": _error(exc)}, output, 1)
    if output and output != "-":
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _emit({"error": {"code": "io:output", "message": str(exc)}}, "-", 1)
    else:
        sys.stdout.write(text)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise `schema:bad-flag` instead of
    exiting 2, the code of a computed negative."""

    def error(self, message):
        raise InputError("schema:bad-flag", message)


# built once: each `parse_args` call returns a fresh namespace
_PARSER = _Parser(
    prog="polarith",
    description="Exact form classification, p-adic lattices, and bounded-norm solvers",
)
_PARSER.add_argument("verb", choices=list(VERBS) + ["validate"])
_PARSER.add_argument("input", nargs="?", help="input JSON file ('-' for stdin)")
_PARSER.add_argument("--validate-verb", help="verb whose schema `validate` checks")
_PARSER.add_argument("-o", "--output", default="-")
_PARSER.add_argument("--norm-cap", default=None)
_PARSER.add_argument("--height", type=int, default=3)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except InputError as exc:
        # `input` is optional, so parse_args binds it before any flag and
        # leaves a path after one over: gather positionals from anywhere
        try:
            args = _PARSER.parse_intermixed_args(argv)
        except InputError:
            return _emit({"error": _error(exc)}, "-", 1)

    try:
        if args.input in (None, "-"):
            doc = json.load(sys.stdin)
        else:
            with open(args.input) as fh:
                doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an int too long
        return _emit({"error": {"code": "io:input", "message": str(exc)}}, args.output, 1)
    if not isinstance(doc, dict):
        return _emit({"error": {"code": "schema:bad-input", "message": "input must be a JSON object"}},
                     args.output, 1)

    if args.verb != "validate":
        try:
            code, payload = VERBS[args.verb](doc, args)()
        except _MAPPED as exc:
            code, payload = 1, {"error": _error(exc)}
        return _emit(payload, args.output, code)

    verb = args.validate_verb or doc.get("verb")
    if verb is None:
        return _emit({"error": {"code": "schema:missing-field",
                                "message": "validate needs --validate-verb or a 'verb' field"}},
                     args.output, 1)
    errors = []
    try:
        if not isinstance(verb, str) or verb not in VERBS:
            raise InputError("schema:unknown-verb", f"unknown verb {verb!r}")
        VERBS[verb](doc, args)  # the parse-and-check step; the computation is dropped
    except _MAPPED as exc:
        errors.append(_error(exc))
    return _emit({"valid": not errors, "errors": errors}, args.output, 1 if errors else 0)


if __name__ == "__main__":
    sys.exit(main())
