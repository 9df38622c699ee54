"""No true division in the package.

``/`` on two ints gives a float, which would leave exact arithmetic
silently; every quotient goes through ``linalg.exact_div`` instead.  This
test parses each module, and the tests' oracles in ``oracles.py``, and
fails on any ``/`` or ``/=``.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "quatlie").glob("*.py")) + [TESTS / "oracles.py"]


def true_divisions(source: str) -> list[int]:
    """Line numbers of every ``/`` and ``/=`` in ``source``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


def test_true_divisions_are_found():
    assert true_divisions("a = b / c\nd //= 2\nd /= e\n") == [1, 3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_true_division(path):
    assert true_divisions(path.read_text(encoding="utf-8")) == [], path.name
