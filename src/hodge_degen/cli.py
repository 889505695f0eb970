"""Command-line verification suites.

One subcommand per headline computation: ``basis`` (presentation and
kernel of the component pairing), ``sing`` (residue classes and their
span), ``aj`` (the period closed form against quadrature), ``pairing``
(the limit matrix determinant), and ``verify-all``.  Reports render as
markdown or deterministic JSON; exit status 0 means every check passed,
1 a failed check, 2 a usage error.

The ranks that ``basis`` and ``sing`` state are proved by short exact
witnesses where one exists (see :mod:`hodge_degen.degeneration` and
:func:`hodge_degen.cycles.span_rank`); each check names its witness and
the witness size.  The single families gamma and lambda have no witness
yet: their rank is computed by elimination and checked against its
closed form.  Elsewhere the rank is eliminated only when a witness
fails, so a failing report still states the true rank.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from . import degeneration
from . import limits as limits_mod
from . import periods
from .arrangement import sweep_vertices, tempered_arrangement, validate_general_position
from .cycles import express_in_B, span_rank
from .exactlin import QMatrix, cyclo_embed, rank

TOOL = "hodge-degen"

USAGE_ERROR = 2

# significant digits of the abs_diff values of the aj report
ABS_DIFF_DIGITS = 12

# structural bound on |det + L| of the limit matrix
DET_TOL = 1e-3


class Check:
    def __init__(self, name: str, anchor: str, status: str, data: dict, elapsed_ms: int):
        self.name = name
        self.anchor = anchor
        self.status = status
        self.data = data
        self.elapsed_ms = elapsed_ms


class Report:
    """Checks in order.  Under ``timing`` each check carries the wall time
    since the previous check (or the start), which is the time spent
    computing it; otherwise no time appears and the JSON is deterministic."""

    def __init__(self, command: str, timing: bool = False):
        self.command = command
        self.timing = timing
        self.checks: list[Check] = []
        self.elapsed_ms = 0
        self.started = self._mark = time.monotonic()

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
            for k, v in (c.data | ({"elapsed_ms": c.elapsed_ms} if self.timing else {})).items():
                text = str(v)
                if len(text) > 160:
                    text = text[:157] + "..."
                lines.append(f"    - {k}: {text}")
        lines.append("")
        lines.append(f"result: {'pass' if self.ok else 'FAIL'}")
        if self.timing:
            lines.append(f"elapsed_ms: {self.elapsed_ms}")
        return "\n".join(lines)


def _emit(report: Report, fmt: str) -> int:
    report.elapsed_ms = int((time.monotonic() - report.started) * 1000) if report.timing else 0
    try:
        print(report.to_json() if fmt == "json" else report.to_markdown())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (say, `| head`): send the rest of the
        # output, and the flush at exit, to devnull instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.ok else 1


def _witnessed(kind: str, size: int) -> dict:
    return {"witness": kind, "witness_size": size}


def _eliminated(m: QMatrix) -> tuple[int, dict]:
    """Rank by elimination, for an input whose witness failed."""
    return rank(m), _witnessed("elimination", m.rows * m.cols)


def run_basis(report: Report, d: int) -> None:
    gens, relations, dim = degeneration.presentation(d)
    if degeneration.relation_block_holds(d, gens, relations):
        relation_rank, witness = len(relations), _witnessed("signed identity block", len(relations))
    else:
        relation_rank, witness = _eliminated(QMatrix([[rel.get(g, 0) for g in gens] for rel in relations]))
    report.add(
        f"presentation dimension d={d}",
        "H2 presentation of the degenerate fiber",
        2 * dim == d * (2 + (d - 1) ** 2) and dim == len(gens) - relation_rank,
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
        rk, witness = _eliminated(degeneration.phi_matrix(d))
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


def run_sing(report: Report, d: int, family: str) -> None:
    if family in ("gamma", "delta", "all") and d < 3:
        raise SystemExit("sing needs --d >= 3 for triple-index families")
    fam = "both" if family == "all" else family
    res = span_rank(d, fam)
    if fam == "delta":
        report.add(
            f"delta residues vanish d={d}",
            "swapped-family cycles are regular at the degenerate fiber",
            all(cl.is_zero() for _, cl in res.residues),
            cycles=len(res.residues),
        )
        report.add(
            f"delta span rank d={d}",
            "no singularity classes from the swapped family",
            res.rank == res.expected,
            rank=res.rank,
            **_witnessed(res.witness, res.witness_size),
        )
        return
    if fam == "both":
        anchor = "residue classes span the pairing kernel"
    else:
        # a single family cannot span the kernel; its rank has a closed form
        anchor = "single-family residue rank matches its closed form"
    report.add(
        f"span rank d={d} family={fam}",
        anchor,
        res.rank == res.expected,
        rank=res.rank,
        expected=res.expected,
        spanning=res.spanning,
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
                    "class": cls.to_json_dict(),
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


def run_aj(report: Report, with_oracle: bool) -> None:
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
    report.add(
        "closed form vs membrane",
        "limit Abel-Jacobi value of the distinguished cycle",
        diff < 1e-6,
        closed_form=[closed.real, closed.imag],
        membrane=[membrane.real, membrane.imag],
        abs_diff=float(f"{diff:.{ABS_DIFF_DIGITS}g}"),
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
            abs_diff=float(f"{odiff:.{ABS_DIFF_DIGITS}g}"),
        )
    else:
        report.skip("quadrature oracle", "raw 2D quadrature over the same membrane")


def cmd_aj(args, report: Report) -> None:
    run_aj(report, args.oracle)


def run_pairing(report: Report, seed: int) -> None:
    L = periods.aj_closed_form().imag
    frame = limits_mod.Frame()
    res0 = limits_mod.independence_matrix(frame, L, seed=None)
    report.add(
        "structural determinant (zero tails)",
        "block-triangular limit matrix",
        abs(res0.det + L) < DET_TOL,
        det=[res0.det.real, res0.det.imag],
        L=L,
        max_residual=res0.max_residual,
    )
    res = limits_mod.independence_matrix(frame, L, seed=seed)
    report.add(
        "seeded limit matrix",
        "pairing limits with generic holomorphic tails",
        res.verdict == "independent" and abs(res.det + L) < DET_TOL,
        **res.to_json_dict(),
        max_residual=res.max_residual,
    )


def cmd_pairing(args, report: Report) -> None:
    run_pairing(report, args.seed)


def cmd_verify_all(args, report: Report) -> None:
    for d in range(2, 9):
        run_basis(report, d)
    for d in range(3, 7):
        run_sing(report, d, "all")
        run_sing(report, d, "delta")
    run_aj(report, True)
    run_pairing(report, args.seed)


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

    b = sub.add_parser("basis", parents=[common], help="presentation and kernel checks")
    b.add_argument("--d", type=positive_d, required=True)
    b.set_defaults(func=cmd_basis)

    s = sub.add_parser("sing", parents=[common], help="residue classes and span rank")
    s.add_argument("--d", type=positive_d, required=True)
    s.add_argument("--family", choices=("gamma", "lambda", "delta", "all"), default="all")
    s.set_defaults(func=cmd_sing)

    a = sub.add_parser("aj", parents=[common], help="period closed form and functional equations")
    a.add_argument("--oracle", action="store_true", help="also run the 2D quadrature oracle")
    a.set_defaults(func=cmd_aj)

    q = sub.add_parser("pairing", parents=[common], help="limit matrix determinant")
    q.add_argument("--seed", type=int, default=0)
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
