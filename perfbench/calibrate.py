"""Fixed reference job that measures how fast the host runs right now.

    python perfbench/calibrate.py

It does the kind of work a hodge-degen job does, with code of its own
and never any code of the program under test: a fresh interpreter
imports numpy (if installed) and the stdlib modules the CLI uses, then
runs a fraction-free integer elimination with gcd reduction on sparse
dict rows, and a Fraction back-substitution, on one fixed matrix.  The
work is the same on every run, so its wall and CPU time change only
with the host: run.py divides the program's timings by it (see
run.py, ``host_factor``).  It prints a checksum, which run.py checks.
"""

from __future__ import annotations

import argparse  # noqa: F401  (imported as the CLI does)
import json
from fractions import Fraction
from math import gcd

try:
    import numpy  # noqa: F401
except ImportError:
    pass

ROWS, COLS = 40, 64  # shape of the fixed matrix


def matrix() -> list[dict[int, int]]:
    """A fixed sparse integer matrix from a linear congruential generator."""
    x = 12345
    rows = []
    for _ in range(ROWS):
        row = {}
        for j in range(COLS):
            x = (1103515245 * x + 12345) % 2**31
            if x % 3 == 0:
                row[j] = (x >> 8) % 19 - 9
        rows.append({j: v for j, v in row.items() if v})
    return rows


def reduce_row(r: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in r.values():
        g = gcd(g, v)
    return {j: v // g for j, v in r.items()} if g > 1 else r


def echelon(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    pivots: list[tuple[int, dict[int, int]]] = []
    for row in rows:
        r = dict(row)
        for pc, p in pivots:
            a = r.get(pc)
            if a:
                b = p[pc]
                r = {j: b * r.get(j, 0) - a * p.get(j, 0) for j in set(r) | set(p)}
                r = reduce_row({j: v for j, v in r.items() if v})
        if r:
            pivots.append((min(r), r))
    return pivots


def back_substitute(pivots: list[tuple[int, dict[int, int]]]) -> list[dict[int, Fraction]]:
    reduced: list[tuple[int, dict[int, Fraction]]] = []
    for pc, row in reversed(pivots):
        r = {j: Fraction(v, row[pc]) for j, v in row.items()}
        for qc, q in reduced:
            f = r.get(qc)
            if f:
                for j, v in q.items():
                    r[j] = r.get(j, Fraction(0)) - f * v
        reduced.append((pc, {j: v for j, v in r.items() if v}))
    return [r for _, r in reduced]


def main() -> None:
    reduced = back_substitute(echelon(matrix()))
    checksum = sum(len(r) for r in reduced) + sum(abs(v.numerator) % 1000 for r in reduced for v in r.values())
    print(json.dumps({"rank": len(reduced), "checksum": checksum}))


if __name__ == "__main__":
    main()
