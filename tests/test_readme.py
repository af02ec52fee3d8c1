"""The README's library quickstart, run as written.

Each comment that starts with a value is what the interpreter prints for its
line, up to an optional ": note". The test runs the block statement by
statement and holds each such comment to the computed value: its text to the
repr, and its number to the value, floats by equality, arrays by
np.array_equal.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
# a comment that shows a value: a number, a tuple or an array, then an optional ": note"
SHOWN = re.compile(r"^# (?P<value>(?:[-(\d]|array\().*?)(?:: .*)?$")


def quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_prints_what_its_comments_show():
    source = quickstart()
    comments = {
        token.start[0]: token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            value = eval(ast.unparse(statement.targets[0]), namespace) if isinstance(statement, ast.Assign) else None
        match = SHOWN.match(comments.get(statement.end_lineno, ""))
        if match is None:
            continue
        shown = match["value"]
        assert repr(value) == shown, f"line {statement.end_lineno}: prints {value!r}, README shows {shown}"
        expected = eval(shown, {"array": np.array})
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, expected)
        else:
            assert value == expected
        checked.append(shown)
    assert len(checked) == 6, checked
