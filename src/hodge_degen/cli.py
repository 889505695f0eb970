"""Command-line verification suites.

One subcommand per headline computation: ``basis`` (presentation and
kernel of the component pairing), ``sing`` (residue classes and their
span), ``aj`` (the period closed form, the membrane and the dilogarithm
functional equations; the 2D quadrature oracle runs only under
``--oracle``), ``pairing`` (the limit matrix determinant), and
``verify-all``.  Reports render as
markdown or deterministic, strict JSON; exit status 0 means every check
passed, 1 a failed check, 2 a usage error, 3 an internal error (an
exception that escaped a suite).

Every rank that ``basis`` and ``sing`` state is proved by a short exact
witness (see :mod:`hodge_degen.degeneration` and
:func:`hodge_degen.cycles.span_rank`); each rank check names its
witness and the witness size.  No rank is computed any other way: when
a witness fails, its check reports the rank as null, names the failed
clause under ``failed`` and fails, and so does every check derived from
that rank.  The general-position certificate of ``aj`` names its failed
clause under ``failed`` too, and a limit of ``pairing`` that does not
settle fails the check of its matrix with the message under ``error``.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import time

from . import __version__
from . import degeneration
from . import limits as limits_mod
from . import periods
from .arrangement import general_position_failure, sweep_vertices, tempered_arrangement
from .cycles import express_in_B, span_rank
from .exactlin import cyclo_embed

TOOL = "hodge-degen"

USAGE_ERROR = 2
INTERNAL_ERROR = 3

# significant digits of the abs_diff values of the aj report
ABS_DIFF_DIGITS = 12

# structural bound on |det + L| of the limit matrix
DET_TOL = 1e-3

# bound on |membrane + closed form| and |quadrature - membrane| in aj: the
# acceptance gate holds the membrane to 1e-8, the oracle asks for 1e-9 over
# its legs (periods._ORACLE_LEG_TOL), and perfbench/checker.py uses 1e-8
MEMBRANE_TOL = 1e-8


# the escapes of json.dumps other than \uXXXX
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _json_str(s: str) -> str:
    """s as a JSON string in ASCII, escaped as ``json.dumps`` escapes it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    out = []
    for c in s:
        code = ord(c)
        if c in _ESCAPES:
            out.append(_ESCAPES[c])
        elif 0x20 <= code < 0x7F:
            out.append(c)
        elif code < 0x10000:
            out.append(f"\\u{code:04x}")
        else:  # a surrogate pair
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _json(value, indent: str = "") -> str:
    """value as the text of ``json.dumps(value, indent=2)``, except that a
    non-finite float is written as the string the markdown report shows
    ("nan", "inf", "-inf"): strict JSON has no NaN or Infinity.  A key
    that is not a str, or a value of any other type, raises TypeError."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return text if math.isfinite(value) else f'"{text}"'
    inner = indent + "  "
    if isinstance(value, dict):
        items = []
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(f"{_json_str(k)}: {_json(v, inner)}")
        open_, close = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        open_, close = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return open_ + close
    return f"{open_}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{close}"


class Report:
    """The checks of one command, in order, kept as ``doc``: the document
    ``{"tool", "version", "command", "checks", "elapsed_ms"}`` that the
    JSON report prints and the markdown report renders.  A check is the
    dict ``{"name", "anchor", "status", "data"}``; under ``timing`` it also
    holds ``elapsed_ms``, the wall time since the previous check (or the
    start), which is the time spent computing it.  Otherwise no time
    appears and the JSON is deterministic."""

    def __init__(self, command: str, timing: bool = False):
        self.timing = timing
        self.doc = {"tool": TOOL, "version": __version__, "command": command, "checks": [], "elapsed_ms": 0}
        self.started = self._mark = time.monotonic()

    def add(self, name: str, anchor: str, ok: bool | None, **data) -> None:
        """Record a check that passed (ok), failed (not ok) or was skipped
        (ok is None)."""
        status = "skipped" if ok is None else "pass" if ok else "fail"
        check = {"name": name, "anchor": anchor, "status": status, "data": data}
        now = time.monotonic()
        if self.timing:
            check["elapsed_ms"] = int((now - self._mark) * 1000)
        self._mark = now
        self.doc["checks"].append(check)

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.doc["checks"])

    def to_markdown(self) -> str:
        checks = self.doc["checks"]
        lines = [f"# {TOOL} {self.doc['command']}", ""]
        width = max((len(c["name"]) for c in checks), default=4)
        for c in checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[c["status"]]
            lines.append(f"- [{mark}] {c['name']:<{width}}  ({c['anchor']})")
            timed = {"elapsed_ms": c["elapsed_ms"]} if "elapsed_ms" in c else {}
            for k, v in (c["data"] | timed).items():
                text = str(v)
                if len(text) > 160:
                    text = text[:157] + "..."
                lines.append(f"    - {k}: {text}")
        lines.append("")
        lines.append(f"result: {'pass' if self.ok else 'FAIL'}")
        if self.timing:
            lines.append(f"elapsed_ms: {self.doc['elapsed_ms']}")
        return "\n".join(lines)


def _emit(report: Report, fmt: str) -> int:
    if report.timing:
        report.doc["elapsed_ms"] = int((time.monotonic() - report.started) * 1000)
    try:
        print(_json(report.doc) if fmt == "json" else report.to_markdown())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (say, `| head`): send the rest of the
        # output, and the flush at exit, to devnull instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if report.ok else 1


def _witnessed(kind: str, size: int, failed: str | None = None) -> dict:
    """The witness fields of a rank check; ``failed`` names the clause of
    the witness that failed, and appears only then."""
    return {"witness": kind, "witness_size": size} | ({} if failed is None else {"failed": failed})


def _quotient(n: int, d: int) -> str:
    """The exact quotient n/d of ints, d > 0, as ``str(Fraction(n, d))``
    writes it: "2", "0", "-1/7"."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def run_basis(report: Report, d: int) -> None:
    gens, relations, dim = degeneration.presentation(d)
    failed = degeneration.relation_block_failure(d, gens, relations)
    relation_rank = len(relations) if failed is None else None
    report.add(
        f"presentation dimension d={d}",
        "H2 presentation of the degenerate fiber",
        relation_rank is not None and 2 * dim == d * (2 + (d - 1) ** 2) and dim == len(gens) - relation_rank,
        generators=len(gens),
        relations=len(relations),
        dim=dim,
        relation_rank=relation_rank,
        **_witnessed("signed identity block", len(relations), failed),
    )
    cols = degeneration.phi_columns(d)
    failed = degeneration.phi_rank_failure(d, cols)
    rk = d - 1 if failed is None else None
    report.add(
        f"component pairing rank d={d}",
        "intersection matrix against components",
        rk == d - 1,
        rank=rk,
        **_witnessed("zero row sum + unit differences", d - 1, failed),
    )
    kdim = None if rk is None else len(cols) - rk
    report.add(
        f"kernel dimension d={d}",
        "Hodge classes killed by the pairing",
        kdim == degeneration.kernel_dim(d),
        kernel_dim=kdim,
        expected=degeneration.kernel_dim(d),
    )
    basis = degeneration.hodge_kernel_basis(d)
    failed = degeneration.kernel_basis_failure(d, basis)
    stacked_rank = kdim if failed is None else None
    report.add(
        f"kernel basis spans d={d}",
        "distinguished kernel basis",
        stacked_rank == len(basis),
        basis_size=len(basis),
        stacked_rank=stacked_rank,
        **_witnessed("membership + diagonal certificate", len(basis), failed),
    )


def run_sing(report: Report, d: int, family: str) -> None:
    if family in ("gamma", "delta", "all") and d < 3:
        raise SystemExit(_usage_error("sing", "sing needs --d >= 3 for triple-index families"))
    fam = "both" if family == "all" else family
    rank, expected, failed, witness, witness_size, residues = span_rank(d, fam)
    if fam == "delta":
        report.add(
            f"delta residues vanish d={d}",
            "swapped-family cycles are regular at the degenerate fiber",
            failed is None,
            cycles=len(residues),
        )
        report.add(
            f"delta span rank d={d}",
            "no singularity classes from the swapped family",
            rank == expected,
            rank=rank,
            **_witnessed(witness, witness_size, failed),
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
        rank == expected,
        rank=rank,
        expected=expected,
        spanning=rank == degeneration.kernel_dim(d),
        **_witnessed(witness, witness_size, failed),
    )
    if fam == "both":
        report.add(
            f"explicit combination d={d}",
            "kernel basis realized by explicit cycle combinations",
            failed in (None, "membership"),
        )
        table = []
        for (kind, indices), cls in residues[:6]:
            # the coordinates of d * cls, written as coordinates of cls
            scaled = express_in_B(d, cls)
            table.append(
                {
                    "cycle": {"kind": kind, "indices": list(indices)},
                    "class": degeneration.class_json(d, cls),
                    "in_B": [_quotient(n, d) for n in scaled] if scaled is not None else None,
                }
            )
        report.add(
            f"sample residue table d={d}",
            "residue classes in kernel-basis coordinates",
            all(row["in_B"] is not None for row in table),
            rows=table,
        )


def run_aj(report: Report, with_oracle: bool) -> None:
    arr = tempered_arrangement()
    failed = general_position_failure(arr)
    report.add(
        "tempered arrangement certified",
        "distinguished d=4 arrangement in general position",
        failed is None,
        **({} if failed is None else {"failed": failed}),
    )
    verts = [(cyclo_embed(x, n), cyclo_embed(y, n)) for x, y, n in sweep_vertices(arr, 4, 1, 2, 3)]
    closed = periods.aj_closed_form()
    membrane = periods.membrane_integral(verts)
    diff = abs(membrane + closed)
    report.add(
        "closed form vs membrane",
        "limit Abel-Jacobi value of the distinguished cycle",
        diff < MEMBRANE_TOL,
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
    samples, max_residual = periods.check_functional_equations(1000, 0)
    mu_instances = periods.mu_instance_residuals()
    report.add(
        "dilogarithm functional equations",
        "transformation identities at sampled points",
        all(r < 1e-12 for r in (max_residual, *mu_instances.values())),
        samples=samples,
        max_residual=max_residual,
        mu_instances=mu_instances,
    )
    if with_oracle:
        oracle = periods.membrane_quadrature(verts)
        odiff = abs(oracle - membrane)
        report.add(
            "quadrature oracle",
            "raw 2D quadrature over the same membrane",
            odiff < MEMBRANE_TOL,
            quadrature=[oracle.real, oracle.imag],
            abs_diff=float(f"{odiff:.{ABS_DIFF_DIGITS}g}"),
        )
    else:
        report.add("quadrature oracle", "raw 2D quadrature over the same membrane", None)


def run_pairing(report: Report, seed: int) -> None:
    L = periods.aj_closed_form().imag
    for name, anchor, tails_seed in (
        ("structural determinant (zero tails)", "block-triangular limit matrix", None),
        ("seeded limit matrix", "pairing limits with generic holomorphic tails", seed),
    ):
        try:
            matrix, det, residual = limits_mod.independence_matrix(L, seed=tails_seed)
        except limits_mod.ExtrapolationError as e:
            # a limit that does not settle fails its check; the report still prints
            report.add(name, anchor, False, error=str(e))
            continue
        if tails_seed is None:
            report.add(name, anchor, abs(det + L) < DET_TOL, det=[det.real, det.imag], L=L, max_residual=residual)
            continue
        # the determinant witnesses independence when it is not small against L
        verdict = "independent" if abs(det) > 0.1 * abs(L) else "fail"
        report.add(
            name,
            anchor,
            verdict == "independent" and abs(det + L) < DET_TOL,
            matrix=[[[v.real, v.imag] for v in row] for row in matrix],
            det=[det.real, det.imag],
            L=L,
            verdict=verdict,
            t_sequence=[[t.real, t.imag] for t in limits_mod.T_SEQUENCE],
            max_residual=residual,
        )


def run_verify_all(report: Report, seed: int) -> None:
    for d in range(2, 9):
        run_basis(report, d)
    for d in range(3, 7):
        for family in ("all", "delta", "gamma", "lambda"):
            run_sing(report, d, family)
    run_aj(report, True)
    run_pairing(report, seed)


# The command line as one table.  An option maps its name to (value,
# default, help): value is bool for a flag, int for any integer, an int
# for the least integer accepted, or a tuple of choices; default None
# makes the option required.  The report options go before or after the
# subcommand, a subcommand's own options after it.  The handlers look the
# run_* functions up when called, so a patched or traced one is used.
REPORT_OPTIONS = {
    "--format": (("md", "json"), "md", "report format"),
    "--timing": (bool, False, "include wall time in the report"),
}
_D = {"--d": (2, None, "number of planes in each family")}
_SEED = {"--seed": (int, 0, "seed of the generic holomorphic tails")}
COMMANDS = {
    "basis": ("presentation and kernel checks", _D, lambda report, o: run_basis(report, o["d"])),
    "sing": (
        "residue classes and span rank",
        {**_D, "--family": (("gamma", "lambda", "delta", "all"), "all", "cycle family")},
        lambda report, o: run_sing(report, o["d"], o["family"]),
    ),
    "aj": (
        "period closed form and functional equations",
        {"--oracle": (bool, False, "also run the 2D quadrature oracle")},
        lambda report, o: run_aj(report, o["oracle"]),
    ),
    "pairing": ("limit matrix determinant", _SEED, lambda report, o: run_pairing(report, o["seed"])),
    "verify-all": ("run every suite", _SEED, lambda report, o: run_verify_all(report, o["seed"])),
}


def _options(command: str | None) -> dict:
    return {**REPORT_OPTIONS, **COMMANDS[command][1]} if command else REPORT_OPTIONS


def _spelled(name: str, value) -> str:
    """An option as written in the usage: --timing, --d D, --format {md,json}."""
    if value is bool:
        return name
    if isinstance(value, tuple):
        return f"{name} {{{','.join(value)}}}"
    return f"{name} {name[2:].upper()}"


def _usage(command: str | None) -> str:
    words = [TOOL, command] if command else [TOOL]
    words.append("[-h]")
    for name, (value, default, _) in _options(command).items():
        word = _spelled(name, value)
        words.append(word if default is None else f"[{word}]")
    if not command:
        words.append("{" + ",".join(COMMANDS) + "} ...")
    return "usage: " + " ".join(words)


def _help(command: str | None) -> str:
    if command:
        lines = [_usage(command), "", COMMANDS[command][0]]
    else:
        lines = [_usage(None), "", "commands:"]
        lines += [f"  {name:<12}{about}" for name, (about, _, _) in COMMANDS.items()]
    options = [("-h, --help", "show this help and exit")]
    for name, (value, default, about) in _options(command).items():
        if value is not bool:
            about += f", {_accepts(value)} " + ("(required)" if default is None else f"(default {default})")
        options.append((_spelled(name, value), about))
    width = max(len(spelled) for spelled, _ in options) + 2
    lines += ["", "options:"] + [f"  {spelled:<{width}}{about}" for spelled, about in options]
    lines += ["", "exit status: 0 when every check passes, 1 on a failed check, 2 on a usage error, 3 on an internal error"]
    return "\n".join(lines)


def _usage_error(command: str | None, message: str) -> int:
    print(_usage(command), f"{TOOL}: error: {message}", sep="\n", file=sys.stderr)
    return USAGE_ERROR


def _accepts(value) -> str:
    """What an option that takes a value accepts, in words."""
    if isinstance(value, tuple):
        return "one of " + ", ".join(value)
    return "an integer" if value is int else f"an integer >= {value}"


def _convert(value, text: str):
    """The option value written as text; ValueError if text writes none.
    An integer is an optional "-" and ASCII digits, nothing else: ``int``
    would also read "1_0", "+4", " 4" and full-width digits."""
    if isinstance(value, tuple):
        if text not in value:
            raise ValueError(text)
        return text
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    number = int(text)
    if value is not int and number < value:
        raise ValueError(text)
    return number


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """The subcommand and the value of each of its options, keyed by the
    option name without dashes, defaults filled in.  Options are written
    ``--name value`` or ``--name=value``, in full.  -h/--help prints the
    help of the subcommand given so far and exits 0; a malformed command
    line exits 2 after printing the usage and the error to stderr."""
    command = None
    given = {}

    def fail(message: str):
        raise SystemExit(_usage_error(command, message))

    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(0)
        options = _options(command)
        name, eq, text = arg.partition("=")
        if name not in options:
            if command is None and arg in COMMANDS:
                command = arg
            elif command is None and not arg.startswith("-"):
                fail(f"invalid command {arg!r} (choose from {', '.join(COMMANDS)})")
            else:
                fail(f"unrecognized argument {arg!r}")
            continue
        value = options[name][0]
        if value is bool:
            if eq:
                fail(f"argument {name} takes no value")
            given[name] = True
            continue
        if not eq:
            text = next(args, None)
            if text is None:
                fail(f"argument {name}: expected {_accepts(value)}")
        try:
            given[name] = _convert(value, text)
        except ValueError:
            fail(f"argument {name}: expected {_accepts(value)}, got {text!r}")
    if command is None:
        fail(f"a command is required (choose from {', '.join(COMMANDS)})")
    options = _options(command)
    for name, (_, default, _) in options.items():
        if default is None and name not in given:
            fail(f"argument {name} is required")
    return command, {name[2:]: given.get(name, default) for name, (_, default, _) in options.items()}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; argv defaults to sys.argv[1:].  Returns the
    exit status of the report: 0 pass, 1 a failed check.  A usage error
    raises SystemExit(2) after printing the usage and the error to
    stderr, and -h/--help SystemExit(0) after printing the help.  Any
    other exception propagates; :func:`run` turns it into exit status 3."""
    command, options = parse_args(sys.argv[1:] if argv is None else argv)
    report = Report(command, options["timing"])
    COMMANDS[command][2](report, options)
    return _emit(report, options["format"])


def run() -> int:
    """The process entry of ``python -m hodge_degen.cli`` and of the
    ``hodge-degen`` script: :func:`main` after freezing the start-up heap.
    An exception that escapes :func:`main` is an internal error: one line
    ``hodge-degen: internal error: <type>: <message>`` on stderr and exit
    status 3, no traceback.  ``SystemExit`` passes through.

    Interpreter shutdown runs full collections.  Frozen objects sit
    outside every generation, so shutdown skips the ~11,650 objects that
    importing the package tracks, memory the OS reclaims at exit anyway.
    Shutdown is otherwise unchanged.  :func:`main` itself changes no
    process-wide state, so callers in-process never freeze."""
    gc.freeze()
    try:
        return main()
    except Exception as e:
        print(f"{TOOL}: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(run())
