"""Rules on the source tree itself."""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polarith"


def _name_references() -> Counter:
    """How often each identifier occurs in src/, scripts/ and tests/ as code
    (not in comments or strings), leaving out the name a `def` or `class`
    statement defines."""
    refs: Counter = Counter()
    for top in ("src", "scripts", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            prev = None
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME:
                    if prev not in ("def", "class"):
                        refs[tok.string] += 1
                    prev = tok.string
                elif tok.type not in (tokenize.NL, tokenize.COMMENT):
                    prev = None
    return refs


def test_every_top_level_definition_is_used():
    refs = _name_references()
    unused = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and refs[node.name] == 0
    ]
    assert unused == []


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
