#!/usr/bin/env python3
"""Do two sets of benchmark runs agree within the benchmark's own bounds?

    python3 benchmarks/e2e/agree.py SET_A SET_B

Each SET is a directory of ``run.py --out`` files.  For every workload and
end-to-end metric this prints each set's median and quartiles (Python's
``statistics.quantiles(values, n=4)``) and how far set B's median lies from
set A's, as a share of A's.  It exits 0 only if every such share is below
the metric's ``bound`` in BENCHMARK.json, 1 otherwise, and 2 on bad usage.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(directory: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the metric's value in each ``--out`` file."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(directory.glob("*.json")):
        for workload, result in json.loads(path.read_text())["workloads"].items():
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def agree(a: dict, b: dict, bounds: dict[str, float]) -> tuple[list[str], bool]:
    """Report lines, and whether every shared bounded metric agrees."""
    lines = [f"{'workload':14s} {'metric':18s} {'A q1/median/q3':>32s} "
             f"{'B q1/median/q3':>32s} {'diff':>7s} {'bound':>6s}"]
    ok = True
    for key in sorted(set(a) | set(b)):
        workload, name = key
        if name not in bounds:
            continue
        if key not in a or key not in b:
            lines.append(f"{workload:14s} {name:18s} missing from set "
                         f"{'A' if key not in a else 'B'}")
            ok = False
            continue
        qa, qb = quartiles(a[key]), quartiles(b[key])
        diff = abs(qb[1] - qa[1]) / abs(qa[1])
        passed = diff < bounds[name]
        ok &= passed
        fmt = "{:10.4g} {:10.4g} {:10.4g}".format
        lines.append(f"{workload:14s} {name:18s} {fmt(*qa)} {fmt(*qb)} "
                     f"{diff:7.2%} {bounds[name]:6.1%}"
                     f"{'' if passed else '  DISAGREE'}")
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"]
              for m in json.loads(SPEC.read_text())["end_to_end"]}
    a, b = (load(Path(p)) for p in argv)
    if not a or not b:
        print("error: a set holds no run.py --out files", file=sys.stderr)
        return 2
    lines, ok = agree(a, b, bounds)
    print("\n".join(lines))
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
