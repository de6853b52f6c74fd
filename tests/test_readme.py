"""README's `python` blocks run as written, and every `# -> value` comment
on an expression matches the value it computes, by prefix with a trailing
`...` dropped (`# -> 2.3936...` accepts 2.39366...). The names that README
and the library's module docstrings cite name something that exists, so a
rename cannot leave a stale copy behind. README's config-file example
parses through the run's own parser to the values it names."""

import ast
import importlib
import json
import re
from pathlib import Path

from gexpect import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = sorted(p.stem for p in (ROOT / "src" / "gexpect").glob("*.py"))


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


def test_readme_config_example_parses_to_the_values_it_names(tmp_path):
    # the documented file format is the one the run reads
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1 and len(blocks[0].splitlines()) == 3
    cfgfile = tmp_path / "experiment.cfg"
    cfgfile.write_text(blocks[0], encoding="utf-8")
    cfg = cli.parse_args(["run", "--config", str(cfgfile)])
    assert cfg.scenarios == ("symmetry-identity", "diag-not-indep")
    assert (cfg.sigma_high_sq, cfg.h) == (9.0, 0.2)


def _resolves(module: str, path: str) -> bool:
    """Whether the dotted path names an attribute of gexpect.<module>."""
    obj = importlib.import_module(f"gexpect.{module}")
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def stale_references(readme: str, docstrings: dict) -> list:
    """The cited names that name nothing: every `module.name` in README's
    backticks whose module is one of the library's (a call's `()` dropped),
    unless it is a per-layer metric of BENCHMARK.json (`pde.cell_steps`; a
    trailing `.*` stands for every metric under it), and every ``name`` in
    a module docstring that is not an attribute of that module, or, when
    dotted from a library module (``pde._solve``), of that one."""
    metrics = [m["name"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    stale = []
    for ref in re.findall(r"`([a-z_]+\.[A-Za-z_][\w.]*(?:\.\*)?)(?:\(\))?`", readme):
        module, _, path = ref.partition(".")
        if module not in MODULES or ref in metrics:
            continue
        if ref.endswith(".*"):
            if not any(m.startswith(ref[:-1]) for m in metrics):
                stale.append(f"README: {ref}")
        elif not _resolves(module, path):
            stale.append(f"README: {ref}")
    for module, doc in docstrings.items():
        for name in re.findall(r"``([^`]+)``", doc):
            path = name.removesuffix("()")
            first, _, rest = path.partition(".")
            ok = _resolves(first, rest) if first in MODULES and rest else _resolves(module, path)
            if not ok:
                stale.append(f"{module}: ``{name}``")
    return stale


def _module_docstrings() -> dict:
    return {m: ast.get_docstring(ast.parse((ROOT / "src" / "gexpect" / f"{m}.py")
                                           .read_text(encoding="utf-8"))) or ""
            for m in MODULES}


def test_cited_names_exist():
    assert stale_references(README.read_text(encoding="utf-8"), _module_docstrings()) == []


def test_a_stale_citation_is_caught():
    docs = {"pde": "served by ``_walk_box``", "expectation": "see ``pde._walk_box``"}
    assert stale_references("`pde._walk_box` and `pde.nothing.*`", docs) == [
        "README: pde._walk_box", "README: pde.nothing.*",
        "pde: ``_walk_box``", "expectation: ``pde._walk_box``"]
