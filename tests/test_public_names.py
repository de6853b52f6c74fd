"""Every module-level name in src/gexpect has a reader outside tests/.

A reader is a use of the name in a library module other than its own
definition and the package's re-export, or, for a public name, a mention
in README.md or in the benchmark scripts (perfbench/*.py, which wrap
bindings by name); a private name needs a reader in the library. Code
that only the tests read belongs in tests/.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defined(stmt) -> list:
    """The names a top-level statement binds, imports aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return names


def _used(stmt) -> set:
    """Names loaded, read as attributes or imported within a statement."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unread_names(root: Path = ROOT) -> list:
    # __init__.py only re-exports
    library = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((root / "src" / "gexpect").glob("*.py")) if p.stem != "__init__"}
    uses = [(stmt, _used(stmt)) for tree in library.values() for stmt in tree.body]
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in [root / "README.md", *sorted((root / "perfbench").glob("*.py"))])
    return [f"{module}.{name}" for module, tree in library.items() for stmt in tree.body
            for name in _defined(stmt)
            if not any(name in used for other, used in uses if other is not stmt)
            and (name.startswith("_") or not re.search(rf"\b{re.escape(name)}\b", text))]


def test_every_public_name_in_the_library_has_a_reader_outside_tests():
    assert [n for n in unread_names() if not n.split(".")[1].startswith("_")] == []


def test_every_private_name_in_the_library_has_a_reader_in_it():
    assert [n for n in unread_names() if n.split(".")[1].startswith("_")] == []
