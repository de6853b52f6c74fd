"""Compare the benchmark pools and the default catalog report between two
source trees, bit for bit.

    python tests/pool_bits.py OLD_SRC NEW_SRC [--seeds 0-10]

Each SRC is a directory holding a ``gexpect`` package (a checkout's
``src``). For each tree, a child process runs every case of the
``gnormal`` and ``sequential`` pools of ``perfbench/cases.py`` (read from
this checkout, not changed) at each seed, and ``python -W error -m gexpect
run --scenario all`` writes the default catalog CSV. The script prints, per
pool, how many of the calls' values and error estimates moved and the
largest move relative to 1 + |value|, and whether the two CSVs are the same
bytes. It exits 0 when nothing moved, else 1. Pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
POOLS = ("gnormal", "sequential")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _dump(seeds) -> dict:
    """{pool: [[value, error estimate] as hex floats, or the error raised]},
    every case of every seed in order; runs in the child."""
    import cases

    out = {}
    for pool in POOLS:
        rows = out[pool] = []
        for seed in seeds:
            for case in cases.WORKLOAD_CASES[pool](seed):
                try:
                    res = case.call()
                except Exception as exc:  # a refusal is a result to compare too
                    rows.append(f"{type(exc).__name__}: {exc}")
                    continue
                rows.append([float(res.value).hex(), float(res.error_estimate).hex()])
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


def _moves(old: list, new: list) -> tuple:
    """(calls whose value or estimate moved, largest move / (1 + |value|))."""
    moved, worst = 0, 0.0
    for a, b in zip(old, new, strict=True):
        if a == b:
            continue
        moved += 1
        if isinstance(a, str) or isinstance(b, str):
            worst = float("inf")
            continue
        for x, y in zip(map(float.fromhex, a), map(float.fromhex, b)):
            worst = max(worst, abs(y - x) / (1.0 + abs(x)))
    return moved, worst


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
        moved, worst = _moves(old[pool], new[pool])
        same &= moved == 0
        print(f"{pool}: {moved} of {len(old[pool])} calls moved over seeds {args.seeds}, "
              f"largest move {worst:.3g} of 1 + |value|")
    digests = [hashlib.sha256(b).hexdigest()[:12] for b in (old_csv, new_csv)]
    same &= old_csv == new_csv
    print(f"catalog CSV: {'identical' if old_csv == new_csv else 'differs'} "
          f"(sha256 {digests[0]}... and {digests[1]}...)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
