#!/usr/bin/env python3
"""Lines of src/polarith that carry bytecode and that no test runs.

Runs pytest in this process under `sys.settrace` and `threading.settrace`,
tracing only frames whose code lives in src/polarith, and prints, module by
module, each line that the compiler gives an instruction and that never
produced a call or line event.  The standard library suffices
(`coverage` is not needed).

    python3 scripts/linetrace.py                 # the whole suite
    python3 scripts/linetrace.py tests/test_forms.py -k isometric

Extra arguments go to pytest unchanged.  Tests that start a child
interpreter (the console-script and experiment-script tests of
tests/test_cli.py) run, but their child processes are not traced: a line
that only they reach is listed as unreached.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polarith"


def bytecode_lines(path: Path) -> set[int]:
    """Each line number that an instruction of the module or of a code
    object nested in it is attributed to."""
    found: set[int] = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `pytest_args`; its exit code and, per module file
    name, the lines that ran."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    owned: dict[object, set[int] | None] = {}  # code -> its module's lines, None if not ours

    def local(frame, event, arg):
        if event == "line":
            owned[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        lines = owned.get(code, False)
        if lines is False:
            name = code.co_filename
            lines = ran.setdefault(Path(name).name, set()) if name.startswith(prefix) else None
            owned[code] = lines
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def ranges(lines: list[int]) -> str:
    """1, 2, 3, 5 -> "1-3, 5"."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


if __name__ == "__main__":
    args = sys.argv[1:] or [str(ROOT / "tests")]
    exit_code, ran = trace_suite(args)
    total = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(bytecode_lines(path) - ran.get(path.name, set()))
        total += len(missed)
        if missed:
            print(f"{path.name}: {len(missed)} unreached: {ranges(missed)}")
    print(f"total: {total} unreached lines in src/polarith (pytest exit {exit_code})")
    print("not traced: the child interpreters started by subprocess tests")
    sys.exit(exit_code)
