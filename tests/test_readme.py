"""The README's library example runs, and says what it computes.

The ```python block of README.md is run line by line in one namespace.
A line ``expression  # value ...`` whose comment starts with a Python
literal states that value: the expression is evaluated and compared with
it.  The block must state the three values below.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def stated_values(block: str) -> list:
    """(expression, literal) of each line whose comment starts with a literal."""
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        words = comment.split()
        if not words:
            continue
        try:
            value = ast.literal_eval(words[0].rstrip(","))
        except (ValueError, SyntaxError):
            continue
        stated.append((code.strip(), value))
    return stated


def test_readme_library_example_states_what_it_computes():
    block = library_example()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    stated = stated_values(block)
    assert [value for _, value in stated] == [35, 11, True]
    for expression, value in stated:
        assert eval(expression, namespace) == value, expression
    # the J-bracket identity [J e_1, J f_1] = -h_1, exactly
    assert stated[2][0].startswith("bracket_grouped(")
