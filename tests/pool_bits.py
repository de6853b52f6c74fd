"""Compare the benchmark pools and the default catalog report between two
source trees, bit for bit.

    python tests/pool_bits.py OLD_SRC NEW_SRC [--seeds 0-10]

Each SRC is a directory holding a ``gexpect`` package (a checkout's
``src``). For each tree, a child process runs every case of the
``gnormal`` and ``sequential`` pools of ``perfbench/cases.py`` (read from
this checkout, not changed) at each seed, and ``python -W error -m gexpect
run --scenario all`` writes the default catalog CSV. The script prints, per
pool and then per law of the pool (the first word of a case's label:
``hull``, ``box-4``, ``interval``...), how many of the calls' values and
error estimates moved, the largest move relative to 1 + |value| and the
largest value move relative to the old plus the new error estimate, and
whether the two CSVs are the same bytes. It also prints one line per
module of the ``gexpect`` package: whether its code is unchanged (the same
AST once docstrings are removed) and its code lines in each tree, counted
by ``tokenize`` as the lines that hold a token other than a comment, a
docstring or a layout token. It exits 0 when no value moved, else 1,
whatever the code lines say. Pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
POOLS = ("gnormal", "sequential")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _dump(seeds) -> dict:
    """{pool: [[law, [value, error estimate] as hex floats, or the error
    raised]]}, every case of every seed in order, law the first word of the
    case's label; runs in the child."""
    import cases

    out = {}
    for pool in POOLS:
        rows = out[pool] = []
        for seed in seeds:
            for case in cases.WORKLOAD_CASES[pool](seed):
                try:
                    res = case.call()
                    got = [float(res.value).hex(), float(res.error_estimate).hex()]
                except Exception as exc:  # a refusal is a result to compare too
                    got = f"{type(exc).__name__}: {exc}"
                rows.append([case.label.split()[0], got])
    return out


def _run(src: Path, seeds, tmp: Path) -> tuple:
    """(pool results, catalog CSV bytes) of the tree at src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(PERFBENCH)])}
    pools = subprocess.run([sys.executable, __file__, "--child", f"{seeds[0]}-{seeds[-1]}"],
                           env=env, check=True, capture_output=True, text=True).stdout
    csv = tmp / "report.csv"
    subprocess.run([sys.executable, "-W", "error", "-m", "gexpect", "run", "--scenario", "all",
                    "--out", str(csv)], env=env, check=True, capture_output=True)
    return json.loads(pools), csv.read_bytes()


def _moves(pairs) -> str:
    """The line "N of M calls moved" over the (old, new) results; if any
    moved, with the largest move / (1 + |value|) and the largest |value
    move| / (old + new estimate)."""
    moved, worst, vs_estimates = 0, 0.0, 0.0
    for a, b in pairs:
        if a == b:
            continue
        moved += 1
        if isinstance(a, str) or isinstance(b, str):
            worst = vs_estimates = math.inf
            continue
        (x, ex), (y, ey) = map(float.fromhex, a), map(float.fromhex, b)
        worst = max(worst, abs(y - x) / (1.0 + abs(x)), abs(ey - ex) / (1.0 + abs(ex)))
        if y != x:
            vs_estimates = max(vs_estimates, abs(y - x) / (ex + ey) if ex + ey else math.inf)
    line = f"{moved} of {len(pairs)} calls moved"
    return line + (f", largest move {worst:.3g} of 1 + |value| and {vs_estimates:.3g} of the "
                   "two estimates" if moved else "")


def _code(path: Path) -> tuple:
    """(the module's AST dumped without its docstrings, its code lines)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    docs = set()
    for node in ast.walk(tree):  # a node's children are queued before it is seen
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.add((node.body[0].lineno, node.body[0].col_offset))
            node.body = node.body[1:]
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout and not (tok.type == tokenize.STRING and tok.start in docs):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return ast.dump(tree), len(lines)


def _code_report(old: Path, new: Path) -> list:
    """One line per module of the gexpect package in either tree: whether its
    code is unchanged, and its code lines old -> new."""
    out = []
    names = sorted({p.name for src in (old, new) for p in (src / "gexpect").glob("*.py")})
    for name in names:
        a, b = ((src / "gexpect" / name) for src in (old, new))
        if not (a.exists() and b.exists()):
            out.append(f"{name}: only in the {'new' if b.exists() else 'old'} tree")
            continue
        (tree_a, lines_a), (tree_b, lines_b) = _code(a), _code(b)
        state = "code unchanged" if tree_a == tree_b else "code changed"
        out.append(f"{name}: {state}, {lines_a} -> {lines_b} code lines")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, nargs="?")
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--seeds", default="0-10", help="a seed or a range lo-hi (default 0-10)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        json.dump(_dump(_seeds(args.child)), sys.stdout)
        return 0
    if args.new is None:
        parser.error("give the OLD and NEW src directories")
    seeds = _seeds(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        (old, old_csv), (new, new_csv) = (_run(src.resolve(), seeds, Path(tmp))
                                          for src in (args.old, args.new))
    same = True
    for pool in POOLS:
        laws = [law for law, _ in old[pool]]
        pairs = [(a, b) for (_, a), (_, b) in zip(old[pool], new[pool], strict=True)]
        same &= all(a == b for a, b in pairs)
        print(f"{pool} over seeds {args.seeds}: {_moves(pairs)}")
        for law in sorted(set(laws)):
            print(f"  {law}: {_moves([p for p, at in zip(pairs, laws) if at == law])}")
    digests = [hashlib.sha256(b).hexdigest()[:12] for b in (old_csv, new_csv)]
    same &= old_csv == new_csv
    print(f"catalog CSV: {'identical' if old_csv == new_csv else 'differs'} "
          f"(sha256 {digests[0]}... and {digests[1]}...)")
    for line in _code_report(args.old.resolve(), args.new.resolve()):
        print(line)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
