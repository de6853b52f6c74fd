"""README's `python` blocks run as written, and every `# -> value` comment
on an expression matches the value it computes, by prefix with a trailing
`...` dropped (`# -> 2.3936...` accepts 2.39366...)."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_values_match_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    checked = 0
    for block in blocks:
        lines, namespace = block.splitlines(), {}
        for stmt in ast.parse(block).body:
            shown = re.search(r"#\s*->\s*(\S+)", lines[stmt.end_lineno - 1])
            if shown is None:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            assert isinstance(stmt, ast.Expr), f"README line {stmt.lineno}: `# ->` needs an expression"
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            want = shown.group(1).removesuffix("...")
            assert str(value).startswith(want), f"README line {stmt.lineno}: {value} is not {want}..."
            checked += 1
    assert checked >= 3
