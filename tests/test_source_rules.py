"""Rules on the source tree itself."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polarith"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Top-level definitions that no verb, script or acceptance criterion
# reaches, kept because each is the executable form of a paper lemma or the
# witness behind a complete-invariants claim.  README.md lists the same
# names under "Library API beyond the CLI".
LIBRARY_API = {
    "local_norm",
    "norm_times_inverse",
    "torus_conductor",
    "involution_to_form",
    "skew_standard_witness",
    "etale_pair_witness",
    "unit_case_parity",
}


def _sources(*tops: str) -> list[Path]:
    return [path for top in tops for path in sorted((ROOT / top).rglob("*.py"))]


def _name_references(paths) -> Counter:
    """How often each identifier is read or written in `paths` as a name
    `x` or an attribute `y.x`, f-string fields included on every Python
    version; the name a `def` or `class` statement defines is neither."""
    refs: Counter = Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
    return refs


def _top_level_definitions():
    """(module file name, node) for each top-level `def` and `class` in src/."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node


def test_every_top_level_definition_is_used():
    refs = _name_references(_sources("src", "scripts", "tests"))
    unused = [f"{name}:{node.name}" for name, node in _top_level_definitions() if refs[node.name] == 0]
    assert unused == []


def _overrides_external_hook(module: str, cls: str, method: str) -> bool:
    """Whether `method` overrides a method of a base class from outside the
    package (such as argparse's `error`), which that base's own code calls."""
    obj = getattr(importlib.import_module(f"polarith.{module[:-3]}"), cls)
    return any(method in vars(base) for base in obj.__mro__[1:] if not base.__module__.startswith("polarith"))


def _attribute_reads(node, function: str | None = None):
    """Each `x.name` under `node`, leaving out those read inside a function
    of the same name: methods that only call each other by that name, as a
    product's `sub` calls each factor's `sub`, are no use of it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    elif isinstance(node, ast.Attribute) and node.attr != function:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _attribute_reads(child, function)


def test_every_method_is_used():
    """A method (dunders aside) is reached as an attribute, `x.name`, so a
    name read nowhere as one marks dead code even when the same word
    occurs elsewhere as a variable or a parameter.  A read inside a
    function of the same name does not count.  An override of an outside
    base class's hook is reached through that base."""
    attrs = Counter(
        attr for path in _sources("src", "scripts", "tests") for attr in _attribute_reads(ast.parse(path.read_text()))
    )
    unused = [
        f"{name}:{cls.name}.{node.name}"
        for name, cls in _top_level_definitions()
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and attrs[node.name] == 0
        and not _overrides_external_hook(name, cls.name, node.name)
    ]
    assert unused == []


def test_code_only_tests_reach_is_listed_library_api():
    """A top-level definition that src/, scripts/ and the acceptance gate
    never reference, but other tests do, must have a listed purpose."""
    program = _name_references(_sources("src", "scripts") + [ACCEPTANCE])
    tests = _name_references([p for p in _sources("tests") if p != ACCEPTANCE])
    test_only = {
        node.name for _, node in _top_level_definitions() if program[node.name] == 0 and tests[node.name]
    }
    assert test_only == LIBRARY_API

    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library API beyond the CLI\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\* `(\w+)`", section, re.M)) == LIBRARY_API


def test_no_assert_statements():
    """Checks in src/ raise typed exceptions, because `python -O` strips
    assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_import_is_read():
    """Each name a src/ module imports is read in that module, so a helper
    that loses its last caller does not live on as a stale import."""
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line}:{name}" for name, line in imported.items() if name not in read]
    assert unread == []


def test_no_fraction_rebuilt_from_element_coordinates():
    """`e.x.numerator`, `e.y.denominator` and the like build a Fraction that
    a `QuadElem` already holds as the ints a, b and d; outside the class
    itself, src/ reads those ints."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        own = {
            id(node)
            for cls in tree.body
            if path.name == "quadfield.py" and isinstance(cls, ast.ClassDef) and cls.name == "QuadElem"
            for node in ast.walk(cls)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("numerator", "denominator")
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in ("x", "y")
            and id(node) not in own
        ]
    assert found == []


def test_sympy_imports_are_the_traced_names():
    """src/ takes from sympy only the functions that perfbench/spans.py
    wraps (`SYMPY_NAMES`), under their own names, so every sympy call
    shows up in the per-layer tracing."""
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in spans.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SYMPY_NAMES"]
    )
    assert set(traced) == {"factorint", "isprime", "primerange"}
    escaped = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                escaped += [f"{path.name}:{a.name}" for a in node.names if a.name.split(".")[0] == "sympy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
                escaped += [
                    f"{path.name}:{node.module}.{a.name}"
                    for a in node.names
                    if a.name not in traced or a.asname not in (None, a.name)
                ]
    assert escaped == []


def test_src_imports_only_the_standard_library():
    """Every import in src/ is relative or names a standard-library module,
    so starting the CLI loads no third-party package."""
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# Every integer literal >= 10^4 in src/ (10**k with k >= 4 included) is a
# search cap or budget; each sits at one of these (module, site) pairs,
# where the site is the top-level function or the module-level constant.
LARGE_LITERAL_SITES = {
    ("hecke_classes.py", "PRIME_CAP"),
    ("degree_bound.py", "brute_force_oracle"),  # the oracle budget
    ("quadfield.py", "MAX_CYCLE_STEPS"),  # the walk on reduced forms
    ("exact.py", "MILLER_RABIN_BOUNDS"),  # proven bounds, not a cap
    ("exact.py", "MAX_RHO_STEPS"),  # the factorint budget
}


def _is_large_literal(node) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value >= 10**4
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and all(isinstance(side, ast.Constant) and type(side.value) is int for side in (node.left, node.right))
        and node.left.value == 10
        and node.right.value >= 4
    )


def test_large_literals_sit_at_listed_caps():
    """A new hidden cap (a large loop guard, a box size) has to be listed
    here, so the inventory of the package's search limits stays complete."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                site = top.name
            elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
                site = top.targets[0].id
            else:
                site = f"line {top.lineno}"
            if any(_is_large_literal(node) for node in ast.walk(top)):
                sites.add((path.name, site))
    assert sites == LARGE_LITERAL_SITES


# `object.__new__` builds an instance past its class's constructor and the
# checks there; each use sits at one of these (module, top-level function)
# pairs.
OBJECT_NEW_SITES = {
    ("quadfield.py", "_elem"),  # the element fast path: ints already reduced
    ("lattices_local.py", "_first_superlattice"),  # the winner: L's prime and form, det p^(n-1) det N
}


def test_object_new_only_at_listed_sites():
    """Every class has one way in, its constructor: a new back door has to
    be listed here."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            site = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else f"line {top.lineno}"
            if any(
                isinstance(node, ast.Attribute)
                and node.attr == "__new__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
                for node in ast.walk(top)
            ):
                sites.add((path.name, site))
    assert sites == OBJECT_NEW_SITES


def test_readme_route_list_is_the_verified_methods():
    """The backticked names in the README's "Every `degree-bound` route
    (...)" bullet are exactly the method strings that `degree_bound` hands
    to `_verified`, so the route list cannot drift from the code."""
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"Every `degree-bound` route \(([^)]*)\)", readme)
    assert listed is not None
    methods = {
        node.args[1].value
        for node in ast.walk(ast.parse((PACKAGE / "degree_bound.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_verified"
        and isinstance(node.args[1], ast.Constant)
    }
    assert set(re.findall(r"`([^`]+)`", listed.group(1))) == methods


# The internal guards of `fourth_power_isometric` (five raises, two with one
# text), which no valid input reaches: ROADMAP item 2 replaces them with a
# certificate that can fail, or with none.
UNEXERCISED_INTERNAL_GUARDS = {
    "internal: fourth-power determinant must be a square",
    "internal: hasse invariant of a positive definite fourth power must be trivial",
    "internal: sum rule violated",
    "internal: fourth-power determinant must be a norm",
}


def _internal_messages():
    """The text of each `raise E("internal: ...")` in src/: the whole string,
    or of an f-string the literal text before its first field."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
                continue
            arg = node.exc.args[0]
            if isinstance(arg, ast.JoinedStr) and arg.values:
                arg = arg.values[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str) and arg.value.startswith("internal:"):
                yield arg.value


def test_every_internal_guard_is_exercised():
    """A guard on another routine's output stays only with a test that makes
    it fire, which names its message; this file's own list does not count."""
    tests = "".join(p.read_text() for p in _sources("tests") if p.name != Path(__file__).name)
    assert {m for m in _internal_messages() if m not in tests} == UNEXERCISED_INTERNAL_GUARDS
