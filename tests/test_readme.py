"""The README's quick start runs and gives the results its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    lines = block.splitlines()
    namespace: dict = {}
    results = []  # (comment, value) of each bare expression, in order
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if isinstance(stmt, ast.Expr):
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            results.append((comment, eval(code, namespace)))
        else:
            exec(code, namespace)
    vstar, values = results
    assert vstar == ("-> 5", 5)
    assert values == ("(0, 1, 2, 3, 3, 4, 5, 5, 5, 5)", (0, 1, 2, 3, 3, 4, 5, 5, 5, 5))
