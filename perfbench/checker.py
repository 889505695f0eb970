"""Known-answer checker for hodge-degen CLI reports.

The checker never imports hodge_degen and never trusts a report's own
``status`` alone: every expected value is derived here, from the closed
formulas of the paper or from mpmath, and compared with the report's
``data``.  A job fails when the CLI exits nonzero, prints unparsable
JSON, lists a different set of checks than expected, marks any check
other than ``pass``, or disagrees with a known answer.

Each job kind has a table ``{check name: [(data key, predicate), ...]}``;
the benchmark self-test perturbs each key in turn to show that every
predicate can fail.  The predicate ``None`` marks the one cross-field
check: the seeded pairing matrix must have the reported determinant.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache
from itertools import combinations

MEMBRANE_TOL = 1e-8  # membrane vs closed form, as stated by the paper's criterion
ORACLE_TOL = 1e-6  # raw 2D quadrature vs closed form
CLOSED_FORM_TOL = 1e-12  # the closed form itself vs mpmath
FEQ_TOL = 1e-12  # dilogarithm functional-equation residual
DET_REL_TOL = 1e-6  # pairing determinant vs -L, relative to L
MATRIX_DET_REL_TOL = 1e-9  # reported determinant vs the determinant of the reported matrix
FEQ_SAMPLES = 1000
TABLE_ROWS = 6


@cache
def closed_form() -> complex:
    """-pi^2/6 - 6i Im Li2(-mu), mu = exp(i pi/3), from mpmath."""
    import mpmath

    mu = mpmath.exp(1j * mpmath.pi / 3)
    li2 = mpmath.polylog(2, -mu)
    return complex(-mpmath.pi**2 / 6 - 6j * mpmath.im(li2))


@cache
def limit_L() -> float:
    """L = 6 Cl2(2 pi/3), from mpmath."""
    import mpmath

    return float(6 * mpmath.clsin(2, 2 * mpmath.pi / 3))


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _det(rows: list[list[complex]]) -> complex:
    """Determinant by Gaussian elimination with partial pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1 + 0j
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0:
            return 0j
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def _rel(x: complex, target: complex) -> float:
    return abs(x - target) / abs(target)


def kernel_dim(d: int) -> int:
    return 1 + (d - 1) * math.comb(d, 2)


def _kernel_basis_vectors(d: int) -> list[dict[str, Fraction]]:
    """The distinguished kernel basis in canonical coordinates, from its
    defining formula: sum_i l_i, then d*e_ijl - l_j + l_i for pairs i < j
    in lex order and 1 <= l <= d-1."""
    out = [{f"l_{i}": Fraction(1) for i in range(1, d + 1)}]
    for i, j in combinations(range(1, d + 1), 2):
        for l in range(1, d):
            out.append({f"e_{i}_{j}_{l}": Fraction(d), f"l_{j}": Fraction(-1), f"l_{i}": Fraction(1)})
    return out


def _row_in_B_ok(row: dict, d: int) -> bool:
    """sum_k in_B[k] * B_k equals the row's residue class exactly."""
    coeffs = row.get("in_B")
    if coeffs is None or len(coeffs) != kernel_dim(d):
        return False
    acc: dict[str, Fraction] = {}
    for c, b in zip(coeffs, _kernel_basis_vectors(d)):
        c = Fraction(c)
        for g, v in b.items():
            acc[g] = acc.get(g, Fraction(0)) + c * v
    cls = row["class"]
    if cls["d"] != d:
        return False
    target = {r["gen"]: Fraction(r["val"]) for r in cls["coords"]}
    keys = set(acc) | set(target)
    return all(acc.get(g, 0) == target.get(g, 0) for g in keys)


def basis_table(d: int) -> dict:
    pairs = math.comb(d, 2)
    kdim = kernel_dim(d)
    return {
        f"presentation dimension d={d}": [
            ("generators", lambda v: v == d + d * pairs),
            ("relations", lambda v: v == pairs),
            ("dim", lambda v: 2 * v == d * (2 + (d - 1) ** 2)),
        ],
        f"component pairing rank d={d}": [("rank", lambda v: v == d - 1)],
        f"kernel dimension d={d}": [
            ("kernel_dim", lambda v: v == kdim),
            ("expected", lambda v: v == kdim),
        ],
        f"kernel basis spans d={d}": [
            ("basis_size", lambda v: v == kdim),
            ("stacked_rank", lambda v: v == kdim),
        ],
    }


def sing_table(d: int, family: str) -> dict:
    if family == "delta":
        return {
            f"delta residues vanish d={d}": [("cycles", lambda v: v == d * math.comb(d, 3))],
            f"delta span rank d={d}": [("rank", lambda v: v == 0)],
        }
    kdim = kernel_dim(d)
    rows = min(TABLE_ROWS, d * math.comb(d, 3) + d * d)
    return {
        f"span rank d={d} family=both": [
            ("rank", lambda v: v == kdim),
            ("expected", lambda v: v == kdim),
            ("spanning", lambda v: v is True),
        ],
        f"explicit combination d={d}": [],
        f"sample residue table d={d}": [
            ("rows", lambda v: len(v) == rows and all(_row_in_B_ok(r, d) for r in v)),
        ],
    }


def aj_table() -> dict:
    C = closed_form()
    return {
        "tempered arrangement certified": [],
        "closed form vs membrane": [
            ("closed_form", lambda v: abs(_c(v) - C) < CLOSED_FORM_TOL),
            ("membrane", lambda v: abs(_c(v) + C) < MEMBRANE_TOL),
        ],
        "non-triviality": [("im", lambda v: abs(v - C.imag) < CLOSED_FORM_TOL and v > 4.0)],
        "dilogarithm functional equations": [
            ("samples", lambda v: v == FEQ_SAMPLES),
            ("max_residual", lambda v: 0 <= v < FEQ_TOL),
        ],
        "quadrature oracle": [("quadrature", lambda v: abs(_c(v) + C) < ORACLE_TOL)],
    }


def pairing_table() -> dict:
    L = limit_L()
    return {
        "structural determinant (zero tails)": [
            ("det", lambda v: _rel(_c(v), -L) < DET_REL_TOL),
            ("L", lambda v: _rel(v, L) < CLOSED_FORM_TOL),
        ],
        "seeded limit matrix": [
            ("det", lambda v: _rel(_c(v), -L) < DET_REL_TOL),
            ("L", lambda v: _rel(v, L) < CLOSED_FORM_TOL),
            ("verdict", lambda v: v == "independent"),
            ("matrix", None),
        ],
    }


def _matrix_det_ok(data: dict) -> bool:
    """The reported determinant is the determinant of the reported 20 x 20 matrix."""
    m = [[_c(x) for x in row] for row in data["matrix"]]
    return len(m) == 20 and all(len(r) == 20 for r in m) and _rel(_det(m), _c(data["det"])) < MATRIX_DET_REL_TOL


def table_for(argv: list[str]) -> tuple[str, dict]:
    """(command, check table) for a CLI argument list."""
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if cmd == "basis":
        return cmd, basis_table(int(opts["--d"]))
    if cmd == "sing":
        return cmd, sing_table(int(opts["--d"]), opts.get("--family", "all"))
    if cmd == "aj":
        return cmd, aj_table()
    if cmd == "pairing":
        return cmd, pairing_table()
    raise ValueError(f"no known answers for {cmd!r}")


def failures(argv: list[str], returncode: int, stdout: str) -> list[str]:
    """Reasons the job failed; empty when every known answer matches."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["unparsable JSON"]
    if not isinstance(doc, dict):
        return ["not a report object"]
    command, table = table_for(argv)
    reasons = []
    if doc.get("command") != command:
        reasons.append(f"command {doc.get('command')!r}")
    checks = doc.get("checks", [])
    names = [c.get("name") for c in checks]
    if names != list(table):
        reasons.append(f"checks {names} != {list(table)}")
        return reasons
    for c in checks:
        if c.get("status") != "pass":
            reasons.append(f"{c['name']}: status {c.get('status')!r}")
        data = c.get("data", {})
        for key, ok in table[c["name"]]:
            try:
                good = key in data and (ok(data[key]) if ok else _matrix_det_ok(data))
            except (TypeError, ValueError, KeyError, ZeroDivisionError):
                good = False
            if not good:
                reasons.append(f"{c['name']}: {key}")
    return reasons
