"""The pure helpers of scripts/linetrace.py, the line-trace tool."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "linetrace.py"
_spec = importlib.util.spec_from_file_location("linetrace", SCRIPT)
linetrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linetrace)


def test_ranges_joins_consecutive_lines():
    assert linetrace.ranges([1, 2, 3, 5]) == "1-3, 5"
    assert linetrace.ranges([7]) == "7" and linetrace.ranges([]) == ""


def test_bytecode_lines_reach_into_nested_functions(tmp_path):
    """The lines of the module body and of a function nested in a function
    carry bytecode; a comment and a blank line do not."""
    module = tmp_path / "m.py"
    module.write_text(
        "x = 1\n"  # 1
        "\n"  # 2
        "def outer():\n"  # 3
        "    # a comment\n"  # 4
        "    def inner():\n"  # 5
        "        return 2\n"  # 6
        "    return inner\n"  # 7
    )
    lines = linetrace.bytecode_lines(module)
    assert {1, 3, 5, 6, 7} <= lines and not lines & {2, 4}
