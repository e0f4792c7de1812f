"""README's Python examples run as written and show what they state.

The ```python blocks run in order, in one namespace.  A comment on an
expression's line, or on the comment-only line under it, states its
value when it starts with one: a ``Fraction(...)``, a tuple or list, or
a float such as ``1.7320508...``, whose repr must start with the digits
before the dots.  Any other comment is prose and is not checked.
"""

import ast
import io
import re
import tokenize
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
TRUNCATED = re.compile(r"(-?\d+\.\d+)\.\.\.")


class ReprPrefix:
    """Equal to a float whose repr starts with ``digits``."""

    def __init__(self, digits: str):
        self.digits = digits

    def __eq__(self, other):
        return isinstance(other, float) and repr(other).startswith(self.digits)

    def __repr__(self):
        return f"{self.digits}..."


def stated_value(comment: str):
    """The value a comment states, as an object to compare with ==, or
    None when the comment is prose."""
    text = comment.lstrip("#").strip()
    if text.startswith("Fraction("):
        end = text.index(")") + 1
    elif text[:1] in "([":
        depth = 0
        for end, ch in enumerate(text, 1):
            depth += (ch in "([") - (ch in ")]")
            if depth == 0:
                break
    elif TRUNCATED.match(text):
        end = TRUNCATED.match(text).end()
    else:
        return None
    source = TRUNCATED.sub(r"ReprPrefix('\1')", text[:end])
    return eval(source, {"Fraction": Fraction, "ReprPrefix": ReprPrefix})


def statements_and_comments(source: str):
    """(statement, the comment that states its value or None) for each
    top-level statement of ``source``."""
    comments = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            own_line = not tok.line[:tok.start[1]].strip()
            comments[tok.start[0]] = (tok.string, own_line)
    for stmt in ast.parse(source).body:
        comment = comments.get(stmt.end_lineno)
        if comment is None:
            comment = comments.get(stmt.end_lineno + 1)
            if comment is not None and not comment[1]:
                comment = None
        yield stmt, None if comment is None else comment[0]


def test_readme_python_examples_show_what_they_state():
    blocks = BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    namespace = {}
    checked = 0
    for block in blocks:
        for stmt, comment in statements_and_comments(block):
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), namespace)
            expected = None if comment is None else stated_value(comment)
            if expected is not None:
                assert value == expected, (ast.unparse(stmt), comment)
                checked += 1
    # tau, s_p(2), h_stat(2) and the search's tau of the quick start;
    # the four delta values, alpha and the argmin's tau of the table
    assert checked == 7
