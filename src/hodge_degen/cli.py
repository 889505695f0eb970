"""Command-line verification suites.

One subcommand per headline computation: ``basis`` (presentation and
kernel of the component pairing), ``sing`` (residue classes and their
span), ``aj`` (the period closed form against quadrature), ``pairing``
(the limit matrix determinant), and ``verify-all``.  Reports render as
markdown or deterministic JSON; exit status 0 means every check passed,
1 a failed check, 2 a usage error.

The ranks that ``basis`` and ``sing`` state are proved by short exact
witnesses (see :mod:`hodge_degen.degeneration` and
:func:`hodge_degen.cycles.span_rank`); each check names its witness and
the witness size.  Only when a witness fails is the rank computed by
elimination, so a failing report still states the true rank.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from . import degeneration
from . import limits as limits_mod
from . import periods
from .arrangement import sweep_vertices, tempered_arrangement, validate_general_position
from .cycles import express_in_B, family_cycles, singularity_at_zero, span_rank
from .exactlin import QMatrix, cyclo_embed, rank

TOOL = "hodge-degen"

USAGE_ERROR = 2


@dataclass
class Check:
    name: str
    anchor: str
    status: str
    data: dict = field(default_factory=dict)
    elapsed_ms: int = 0


@dataclass
class Report:
    """Checks in order.  Under ``timing`` each check carries the wall time
    since the previous check (or the start), which is the time spent
    computing it; otherwise no time appears and the JSON is deterministic."""

    command: str
    timing: bool = False
    checks: list[Check] = field(default_factory=list)
    elapsed_ms: int = 0
    started: float = field(default_factory=time.monotonic)
    _mark: float = field(init=False, repr=False)

    def __post_init__(self):
        self._mark = self.started

    def _append(self, name: str, anchor: str, status: str, data: dict) -> None:
        now = time.monotonic()
        self.checks.append(Check(name, anchor, status, data, int((now - self._mark) * 1000)))
        self._mark = now

    def add(self, name: str, anchor: str, ok: bool, **data) -> bool:
        self._append(name, anchor, "pass" if ok else "fail", data)
        return ok

    def skip(self, name: str, anchor: str, **data):
        self._append(name, anchor, "skipped", data)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "tool": TOOL,
            "version": __version__,
            "command": self.command,
            "checks": [
                {"name": c.name, "anchor": c.anchor, "status": c.status, "data": c.data}
                | ({"elapsed_ms": c.elapsed_ms} if self.timing else {})
                for c in self.checks
            ],
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(doc, indent=2, sort_keys=False)

    def to_markdown(self) -> str:
        lines = [f"# {TOOL} {self.command}", ""]
        width = max((len(c.name) for c in self.checks), default=4)
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[c.status]
            lines.append(f"- [{mark}] {c.name:<{width}}  ({c.anchor})")
            for k, v in c.data.items():
                text = str(v)
                if len(text) > 160:
                    text = text[:157] + "..."
                lines.append(f"    - {k}: {text}")
        lines.append("")
        lines.append(f"result: {'pass' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _emit(report: Report, fmt: str) -> int:
    report.elapsed_ms = int((time.monotonic() - report.started) * 1000) if report.timing else 0
    print(report.to_json() if fmt == "json" else report.to_markdown())
    return 0 if report.ok else 1


def _witnessed(kind: str, size: int) -> dict:
    return {"witness": kind, "witness_size": size}


def _eliminated(m: QMatrix) -> tuple[int, dict]:
    """Rank by elimination, for an input whose witness failed."""
    return rank(m), _witnessed("elimination", m.rows * m.cols)


def run_basis(report: Report, d: int) -> None:
    gens, relations, dim = degeneration.presentation(d)
    pairs = d * (d - 1) // 2
    if degeneration.relation_block_holds(d, gens, relations):
        relation_rank, witness = len(relations), _witnessed("signed identity block", len(relations))
    else:
        relation_rank, witness = _eliminated(QMatrix([[rel.get(g, 0) for g in gens] for rel in relations]))
    report.add(
        f"presentation dimension d={d}",
        "H2 presentation of the degenerate fiber",
        dim == d + d * pairs - pairs
        and 2 * dim == d * (2 + (d - 1) ** 2)
        and dim == len(gens) - relation_rank,
        generators=len(gens),
        relations=len(relations),
        dim=dim,
        relation_rank=relation_rank,
        **witness,
    )
    cols = degeneration.phi_columns(d)
    if degeneration.phi_rank_holds(d, cols):
        rk, witness = d - 1, _witnessed("zero row sum + unit differences", d - 1)
    else:
        rk, witness = _eliminated(QMatrix([[col.get(c, 0) for col in cols.values()] for c in range(1, d + 1)]))
    report.add(
        f"component pairing rank d={d}",
        "intersection matrix against components",
        rk == d - 1,
        rank=rk,
        **witness,
    )
    kdim = len(cols) - rk
    report.add(
        f"kernel dimension d={d}",
        "Hodge classes killed by the pairing",
        kdim == degeneration.kernel_dim(d),
        kernel_dim=kdim,
        expected=degeneration.kernel_dim(d),
    )
    basis = degeneration.hodge_kernel_basis(d)
    if degeneration.spans_kernel(d, basis):
        stacked_rank, witness = kdim, _witnessed("membership + diagonal certificate", len(basis))
    else:
        stacked_rank, witness = _eliminated(
            QMatrix([b.vector() for b in basis] + list(degeneration.kernel_of_phi(d)))
        )
    report.add(
        f"kernel basis spans d={d}",
        "distinguished kernel basis",
        len(basis) == kdim and stacked_rank == kdim,
        basis_size=len(basis),
        stacked_rank=stacked_rank,
        **witness,
    )


def cmd_basis(args, report: Report) -> None:
    run_basis(report, args.d)


def single_family_rank(d: int, family: str) -> int:
    """Rank of the residue classes of one family, in closed form.

    gamma: for fixed l < d the class of gamma(i<j<k; l) is the coboundary
    e^{ij}_l + e^{jk}_l - e^{ik}_l of the triangle ijk of the complete
    graph K_d, and triangle coboundaries span C(d,2) - (d-1) = C(d-1,2)
    dimensions; the classes with l = d are minus the sum over l < d, so
    the rank is (d-1) C(d-1,2).  lambda: every row and column sum of the
    d x d array lambda(i; l) is sum_i l_i, and these 2(d-1) relations are
    all, so the rank is d^2 - 2(d-1) = (d-1)^2 + 1.
    """
    if family == "gamma":
        return (d - 1) * ((d - 1) * (d - 2) // 2)
    return (d - 1) ** 2 + 1


def run_sing(report: Report, d: int, family: str) -> None:
    if family in ("gamma", "delta", "both", "all") and d < 3:
        raise SystemExit("sing needs --d >= 3 for triple-index families")
    fam = "both" if family == "all" else family
    if fam == "delta":
        classes = [singularity_at_zero(c, d) for c in family_cycles(d, "delta")]
        report.add(
            f"delta residues vanish d={d}",
            "swapped-family cycles are regular at the degenerate fiber",
            all(cl.is_zero() for cl in classes),
            cycles=len(classes),
        )
        nonzero = [cl.vector() for cl in classes if not cl.is_zero()]
        if nonzero:
            delta_rank, witness = _eliminated(QMatrix(nonzero))
        else:
            delta_rank, witness = 0, _witnessed("all classes zero", len(classes))
        report.add(
            f"delta span rank d={d}",
            "no singularity classes from the swapped family",
            delta_rank == 0,
            rank=delta_rank,
            **witness,
        )
        return
    res = span_rank(d, fam)
    if fam == "both":
        anchor, ok, extra = "residue classes span the pairing kernel", res.spanning, {}
    else:
        # a single family cannot span the kernel; its rank has a closed form
        family_rank = single_family_rank(d, fam)
        anchor = "single-family residue rank matches its closed form"
        ok, extra = res.rank == family_rank, {"family_rank": family_rank}
    report.add(
        f"span rank d={d} family={fam}",
        anchor,
        ok,
        rank=res.rank,
        expected=res.expected,
        spanning=res.spanning,
        **extra,
        **_witnessed(res.witness, res.witness_size),
    )
    if fam == "both":
        report.add(
            f"explicit combination d={d}",
            "kernel basis realized by explicit cycle combinations",
            res.combination_verified,
        )
        table = []
        for c, cls in res.residues[:6]:
            coeffs = express_in_B(cls, d)
            table.append(
                {
                    "cycle": c.to_json_dict(),
                    "class": json.loads(cls.to_json()),
                    "in_B": [str(x) for x in coeffs] if coeffs is not None else None,
                }
            )
        report.add(
            f"sample residue table d={d}",
            "residue classes in kernel-basis coordinates",
            all(row["in_B"] is not None for row in table),
            rows=table,
        )


def cmd_sing(args, report: Report) -> None:
    run_sing(report, args.d, args.family)


def run_aj(report: Report, with_oracle: bool, digits: int) -> None:
    arr = tempered_arrangement()
    report.add(
        "tempered arrangement certified",
        "distinguished d=4 arrangement in general position",
        validate_general_position(arr).ok,
    )
    verts = [
        (cyclo_embed(x), cyclo_embed(y)) for x, y in sweep_vertices(arr, 4, 1, 2, 3)
    ]
    closed = periods.aj_closed_form()
    membrane = periods.membrane_integral(verts)
    diff = abs(membrane + closed)
    fmt = f"{{0:.{digits}g}}"
    report.add(
        "closed form vs membrane",
        "limit Abel-Jacobi value of the distinguished cycle",
        diff < 1e-6,
        closed_form=[closed.real, closed.imag],
        membrane=[membrane.real, membrane.imag],
        abs_diff=float(fmt.format(diff)),
    )
    report.add(
        "non-triviality",
        "imaginary part of the limit invariant",
        abs(closed.imag) > 4.0,
        im=closed.imag,
    )
    feq = periods.check_functional_equations(1000, 0)
    report.add(
        "dilogarithm functional equations",
        "transformation identities at sampled points",
        feq.max_residual < 1e-12,
        samples=feq.samples,
        max_residual=feq.max_residual,
    )
    if with_oracle:
        oracle = periods.membrane_quadrature(verts)
        odiff = abs(oracle - membrane)
        report.add(
            "quadrature oracle",
            "raw 2D quadrature over the same membrane",
            odiff < 1e-6,
            quadrature=[oracle.real, oracle.imag],
            abs_diff=float(fmt.format(odiff)),
        )
    else:
        report.skip("quadrature oracle", "raw 2D quadrature over the same membrane")


def cmd_aj(args, report: Report) -> None:
    run_aj(report, args.oracle, args.digits)


def run_pairing(report: Report, seed: int, L: float | None) -> None:
    if L is None:
        L = 6.0 * periods.clausen(2.0 * periods.PI / 3.0)
    if L == 0:
        raise SystemExit("--L must be nonzero")
    frame = limits_mod.Frame()
    ts = limits_mod.default_t_sequence()
    # relative for |L| < 1, so a tiny L cannot pass vacuously
    det_tol = 1e-3 * min(1.0, abs(L))
    res0 = limits_mod.independence_matrix(frame, L, seed=None, t_sequence=ts)
    report.add(
        "structural determinant (zero tails)",
        "block-triangular limit matrix",
        abs(res0.det + L) < det_tol,
        det=[res0.det.real, res0.det.imag],
        L=L,
        max_residual=res0.max_residual,
    )
    res = limits_mod.independence_matrix(frame, L, seed=seed, t_sequence=ts)
    report.add(
        "seeded limit matrix",
        "pairing limits with generic holomorphic tails",
        res.verdict == "independent" and abs(res.det + L) < det_tol,
        **res.to_json_dict(ts),
        max_residual=res.max_residual,
    )


def cmd_pairing(args, report: Report) -> None:
    run_pairing(report, args.seed, args.L)


def cmd_verify_all(args, report: Report) -> None:
    for d in range(2, 9):
        run_basis(report, d)
    for d in range(3, 7):
        run_sing(report, d, "all")
        run_sing(report, d, "delta")
    run_aj(report, True, 12)
    run_pairing(report, args.seed, None)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=TOOL, description=__doc__)
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    # the report flags are accepted before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("md", "json"), default=argparse.SUPPRESS)
    common.add_argument("--timing", action="store_true", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    def positive_d(value):
        d = int(value)
        if d < 2:
            raise argparse.ArgumentTypeError("d must be >= 2")
        return d

    def positive_digits(value):
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("digits must be >= 1")
        return n

    def finite_L(value):
        x = float(value)
        # the frame conjugation doubles L
        if not math.isfinite(2 * x):
            raise argparse.ArgumentTypeError("L must be finite (and so must 2*L)")
        return x

    b = sub.add_parser("basis", parents=[common], help="presentation and kernel checks")
    b.add_argument("--d", type=positive_d, required=True)
    b.set_defaults(func=cmd_basis)

    s = sub.add_parser("sing", parents=[common], help="residue classes and span rank")
    s.add_argument("--d", type=positive_d, required=True)
    s.add_argument("--family", choices=("gamma", "lambda", "delta", "all"), default="all")
    s.set_defaults(func=cmd_sing)

    a = sub.add_parser("aj", parents=[common], help="period closed form and functional equations")
    a.add_argument("--oracle", action="store_true", help="also run the 2D quadrature oracle")
    a.add_argument("--digits", type=positive_digits, default=12, help="report precision (display only)")
    a.set_defaults(func=cmd_aj)

    q = sub.add_parser("pairing", parents=[common], help="limit matrix determinant")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--L", type=finite_L, default=None, help="limit invariant; defaults to the period value")
    q.set_defaults(func=cmd_pairing)

    v = sub.add_parser("verify-all", parents=[common], help="run every suite")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify_all)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    report = Report(args.command, args.timing)
    try:
        args.func(args, report)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(f"error: {e.code}", file=sys.stderr)
            return USAGE_ERROR
        raise
    return _emit(report, args.format)


if __name__ == "__main__":
    sys.exit(main())
