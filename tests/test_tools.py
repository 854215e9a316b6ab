"""Smoke tests for the scripts under `tools/`."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SRC_LINES = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def test_src_lines_totals_are_the_sums_of_the_modules():
    out = subprocess.run(
        [sys.executable, str(SRC_LINES)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0].split() == ["module", "physical", "code"]
    modules = [line.split() for line in out[1:-1]]
    assert {name for name, _, _ in modules} >= {"__init__.py", "cli.py", "harness.py"}
    total = out[-1].split()
    assert total[0] == "total"
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in modules)
    assert all(0 < int(code) <= int(physical) for _, physical, code in modules)


def test_src_lines_leaves_out_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SRC_LINES)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = '''"""Module
docstring."""

# a comment
def f(x):  # a trailing comment
    """One line."""
    text = """not a
    docstring"""
    return x, text
'''
    assert tool.count(source) == (9, 4)
