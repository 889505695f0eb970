"""Command line interface: exit codes, report schema, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import hodge_degen
from hodge_degen import arrangement, cycles, limits, periods
from hodge_degen.cli import main
from hodge_degen.degeneration import H2Class, reduce_raw
from hodge_degen.exactlin import CycloNumber, QMatrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_basis_pass(self, capsys):
        code, out = run(capsys, "basis", "--d", "4")
        assert code == 0
        assert "result: pass" in out

    def test_basis_d_too_small(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["basis", "--d", "1"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_pairing_has_no_L_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pairing", "--L", "2"])
        assert exc.value.code == 2

    def test_sing_needs_three_planes(self, capsys):
        code = main(["sing", "--d", "2"])
        assert code == 2


class TestReports:
    def test_json_schema(self, capsys):
        code, out = run(capsys, "--format", "json", "basis", "--d", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "hodge-degen"
        assert doc["command"] == "basis"
        assert set(doc) == {"tool", "version", "command", "checks", "elapsed_ms"}
        for check in doc["checks"]:
            assert set(check) == {"name", "anchor", "status", "data"}
            assert check["status"] in ("pass", "fail", "skipped")

    def test_json_deterministic(self, capsys):
        _, first = run(capsys, "--format", "json", "basis", "--d", "3")
        _, second = run(capsys, "--format", "json", "basis", "--d", "3")
        assert first == second

    def test_seeded_pairing_deterministic(self, capsys):
        _, first = run(capsys, "--format", "json", "pairing", "--seed", "5")
        _, second = run(capsys, "--format", "json", "pairing", "--seed", "5")
        assert first == second

    def test_elapsed_zero_without_timing(self, capsys):
        _, out = run(capsys, "--format", "json", "basis", "--d", "2")
        assert json.loads(out)["elapsed_ms"] == 0

    def test_per_check_time_under_timing(self, capsys):
        for argv in (["sing", "--d", "4"], ["aj"]):
            code, out = run(capsys, "--format", "json", "--timing", *argv)
            assert code == 0
            for check in json.loads(out)["checks"]:
                assert type(check["elapsed_ms"]) is int and check["elapsed_ms"] >= 0

    def test_no_per_check_time_without_timing(self, capsys):
        for argv in (["sing", "--d", "4"], ["aj"]):
            _, out = run(capsys, "--format", "json", *argv)
            assert all("elapsed_ms" not in c for c in json.loads(out)["checks"])

    def test_markdown_time_under_timing(self, capsys):
        # one elapsed_ms line per check and the total at the end; without
        # those lines the report is the one printed without --timing
        code, timed = run(capsys, "--timing", "basis", "--d", "4")
        assert code == 0
        lines = timed.splitlines()
        per_check = [k for k, line in enumerate(lines) if re.fullmatch(r"    - elapsed_ms: \d+", line)]
        assert len(per_check) == 4
        assert re.fullmatch(r"elapsed_ms: \d+", lines[-1])
        kept = [line for k, line in enumerate(lines[:-1]) if k not in per_check]
        assert "\n".join(kept) + "\n" == run(capsys, "basis", "--d", "4")[1]

    def test_markdown_includes_anchor(self, capsys):
        _, out = run(capsys, "basis", "--d", "2")
        assert "(H2 presentation of the degenerate fiber)" in out


class TestBasisCommand:
    def test_d4_values(self, capsys):
        _, out = run(capsys, "--format", "json", "basis", "--d", "4")
        doc = json.loads(out)
        by_name = {c["name"]: c["data"] for c in doc["checks"]}
        assert by_name["presentation dimension d=4"]["dim"] == 22
        assert by_name["presentation dimension d=4"]["relation_rank"] == 6
        assert by_name["kernel dimension d=4"]["kernel_dim"] == 19

    def test_d6_kernel(self, capsys):
        # report flags work after the subcommand too
        _, out = run(capsys, "basis", "--d", "6", "--format", "json")
        doc = json.loads(out)
        by_name = {c["name"]: c["data"] for c in doc["checks"]}
        assert by_name["kernel dimension d=6"]["kernel_dim"] == 1 + 5 * 15

    def test_dependent_relations_fail(self, capsys, monkeypatch):
        # a presentation that repeats a relation in place of another
        # presents a larger space than its claimed dim
        from hodge_degen import degeneration

        real = degeneration.presentation

        def duplicated(d):
            gens, relations, dim = real(d)
            relations[1] = relations[0]
            return gens, relations, dim

        monkeypatch.setattr(degeneration, "presentation", duplicated)
        code, out = run(capsys, "--format", "json", "basis", "--d", "4")
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["presentation dimension d=4"]
        assert check["status"] == "fail"
        assert check["data"]["relations"] == 6 and check["data"]["relation_rank"] == 5

    def test_witness_fields(self, capsys):
        _, out = run(capsys, "--format", "json", "basis", "--d", "4")
        by_name = {c["name"]: c["data"] for c in json.loads(out)["checks"]}
        witnesses = [(data.get("witness"), data.get("witness_size")) for data in by_name.values()]
        assert witnesses == [
            ("signed identity block", 6),
            ("zero row sum + unit differences", 3),
            (None, None),
            ("membership + diagonal certificate", 19),
        ]

    def test_broken_witness_reports_eliminated_rank(self, capsys, monkeypatch):
        # a sign slip keeps the relations independent but breaks the block:
        # the rank then comes from elimination and the check still passes
        from hodge_degen import degeneration

        real = degeneration.presentation

        def slipped(d):
            gens, relations, dim = real(d)
            relations[2] = {**relations[2], ("e", 1, 4, 4): 1}
            return gens, relations, dim

        monkeypatch.setattr(degeneration, "presentation", slipped)
        code, out = run(capsys, "--format", "json", "basis", "--d", "4")
        assert code == 0
        data = {c["name"]: c["data"] for c in json.loads(out)["checks"]}["presentation dimension d=4"]
        assert data["relation_rank"] == 6
        assert (data["witness"], data["witness_size"]) == ("elimination", 6 * 28)

    def test_missing_generator_fails(self, capsys, monkeypatch):
        # dropping a generator shrinks the presented space below its closed form
        from hodge_degen import degeneration

        real = degeneration.presentation

        def short(d):
            gens, relations, _ = real(d)
            gens = gens[1:]
            return gens, relations, len(gens) - len(relations)

        monkeypatch.setattr(degeneration, "presentation", short)
        code, out = run(capsys, "--format", "json", "basis", "--d", "4")
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["presentation dimension d=4"]
        assert check["status"] == "fail"
        assert check["data"]["generators"] == 27 and check["data"]["dim"] == 21

    def test_broken_phi_witness_reports_eliminated_rank(self, capsys, monkeypatch):
        from hodge_degen import degeneration

        monkeypatch.setattr(degeneration, "phi_rank_holds", lambda d, cols: False)
        code, out = run(capsys, "--format", "json", "basis", "--d", "4")
        assert code == 0
        data = {c["name"]: c["data"] for c in json.loads(out)["checks"]}["component pairing rank d=4"]
        assert (data["rank"], data["witness"], data["witness_size"]) == (3, "elimination", 4 * 22)

    def test_broken_kernel_basis_fails(self, capsys, monkeypatch):
        # the builder does not check its basis; the report must
        from hodge_degen import degeneration

        real = degeneration._kernel_basis

        def off_kernel(d):
            basis = list(real(d))
            basis[5] = basis[5] + H2Class(d, {("l", 1): 1})
            return tuple(basis)

        monkeypatch.setattr(degeneration, "_kernel_basis", off_kernel)
        code, out = run(capsys, "--format", "json", "basis", "--d", "4")
        assert code == 1
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert [c["status"] for c in checks.values()] == ["pass", "pass", "pass", "fail"]
        check = checks["kernel basis spans d=4"]
        assert check["data"]["stacked_rank"] == 20
        assert check["data"]["witness"] == "elimination"

    def test_flag_position_equivalent(self, capsys):
        _, first = run(capsys, "--format", "json", "basis", "--d", "3")
        _, second = run(capsys, "basis", "--d", "3", "--format", "json")
        assert first == second


class TestSingCommand:
    def test_d4_all_spans(self, capsys):
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "all")
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c["data"] for c in doc["checks"]}
        assert by_name["span rank d=4 family=both"]["rank"] == 19
        assert by_name["span rank d=4 family=both"]["spanning"] is True

    def test_d5_rank(self, capsys):
        _, out = run(capsys, "--format", "json", "sing", "--d", "5")
        doc = json.loads(out)
        by_name = {c["name"]: c["data"] for c in doc["checks"]}
        assert by_name["span rank d=5 family=both"]["rank"] == 41

    def test_delta_family(self, capsys):
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "delta")
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c["data"] for c in doc["checks"]}
        assert by_name["delta span rank d=4"]["rank"] == 0

    def test_delta_span_rank_can_fail(self, capsys, monkeypatch):
        # a nonzero residue must show up as a positive rank and a failed check
        from hodge_degen import cycles
        from hodge_degen.degeneration import H2Class

        fake = H2Class(4, {("e", 1, 2, 1): 1, ("l", 1): -1})
        monkeypatch.setattr(cycles, "singularity_at_zero", lambda c, d: fake)
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "delta")
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["delta span rank d=4"]
        assert check["status"] == "fail" and check["data"]["rank"] == 1

    def test_lambda_family_rank(self, capsys):
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "lambda")
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c["data"] for c in doc["checks"]}
        assert by_name["span rank d=4 family=lambda"]["rank"] == 10

    @pytest.mark.parametrize(
        "d,family", [(d, "lambda") for d in range(2, 9)] + [(d, "gamma") for d in range(3, 9)]
    )
    def test_single_family_rank_closed_form(self, d, family):
        # the rank comes from elimination, expected from the closed form
        from hodge_degen.cycles import span_rank

        res = span_rank(d, family)
        assert res.witness == "elimination"
        assert res.rank == res.expected

    def test_single_family_check_passes(self, capsys):
        code, out = run(capsys, "--format", "json", "sing", "--d", "5", "--family", "gamma")
        assert code == 0
        data = {c["name"]: c["data"] for c in json.loads(out)["checks"]}["span rank d=5 family=gamma"]
        assert data["rank"] == data["expected"] == 24
        assert "family_rank" not in data

    def test_single_family_rank_can_fail(self, capsys, monkeypatch):
        # one class too many (or too few) is no longer reported as a pass
        from hodge_degen import cli
        from hodge_degen.cycles import span_rank

        def off_by_one(d, family):
            res = span_rank(d, family)
            return res._replace(rank=res.rank + 1)

        monkeypatch.setattr(cli, "span_rank", off_by_one)
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "lambda")
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["span rank d=4 family=lambda"]
        assert check["status"] == "fail"
        assert check["data"]["rank"] == 11 and check["data"]["expected"] == 10

    def test_broken_kernel_basis_fails_residue_table(self, capsys, monkeypatch):
        # a basis element off the kernel: span_rank drops to elimination and
        # the residue table, which the basis cannot reassemble, fails with
        # exit 1 instead of a traceback
        from hodge_degen import degeneration

        real = degeneration._kernel_basis

        def off_kernel(d):
            basis = list(real(d))
            basis[5] = basis[5] + H2Class(d, {("l", 1): 1})
            return tuple(basis)

        monkeypatch.setattr(degeneration, "_kernel_basis", off_kernel)
        code, out = run(capsys, "--format", "json", "sing", "--d", "4")
        assert code == 1
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["span rank d=4 family=both"]["data"]["witness"] == "elimination"
        table = checks["sample residue table d=4"]
        assert table["status"] == "fail"
        assert any(row["in_B"] is None for row in table["data"]["rows"])


class TestAjCommand:
    def test_aj_without_oracle(self, capsys):
        code, out = run(capsys, "--format", "json", "aj")
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["quadrature oracle"]["status"] == "skipped"
        data = by_name["closed form vs membrane"]["data"]
        assert data["abs_diff"] < 1e-6
        assert data["closed_form"][0] == pytest.approx(-1.6449340668482264)

    def test_aj_with_oracle(self, capsys):
        code, out = run(capsys, "--format", "json", "aj", "--oracle")
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["quadrature oracle"]["status"] == "pass"
        data = by_name["quadrature oracle"]["data"]
        assert data["abs_diff"] < 1e-6
        assert len(data["quadrature"]) == 2

    def test_arrangement_check_can_fail(self, capsys, monkeypatch):
        from hodge_degen import cli
        from hodge_degen.arrangement import GeneralPositionReport

        violation = GeneralPositionReport(False, (("L", 1), ("M", 1), ("M", 2)), "three forms share a line")
        monkeypatch.setattr(cli, "validate_general_position", lambda arr: violation)
        code, out = run(capsys, "--format", "json", "aj")
        assert code == 1
        by_name = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert by_name["tempered arrangement certified"] == "fail"
        assert by_name["closed form vs membrane"] == "pass"


class TestPairingCommand:
    def test_default(self, capsys):
        code, out = run(capsys, "--format", "json", "pairing")
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c["data"] for c in doc["checks"]}
        seeded = by_name["seeded limit matrix"]
        assert seeded["verdict"] == "independent"
        assert seeded["det"][0] == pytest.approx(-4.0597664256, abs=1e-3)
        assert len(seeded["matrix"]) == 20

    def test_seed_changes_nothing_structural(self, capsys):
        for seed in ("0", "7"):
            code, out = run(capsys, "--format", "json", "pairing", "--seed", seed)
            assert code == 0
            doc = json.loads(out)
            by_name = {c["name"]: c["data"] for c in doc["checks"]}
            assert by_name["seeded limit matrix"]["verdict"] == "independent"

    def test_reports_max_residual(self, capsys):
        code, out = run(capsys, "--format", "json", "pairing", "--seed", "3")
        assert code == 0
        by_name = {c["name"]: c["data"] for c in json.loads(out)["checks"]}
        # zero tails are constant along t; seeded ones leave an extrapolation error
        assert by_name["structural determinant (zero tails)"]["max_residual"] < 1e-12
        assert 0 < by_name["seeded limit matrix"]["max_residual"] < 1e-3

    def test_det_bound(self, capsys, monkeypatch):
        # |det + L| = 2e-3 exceeds the structural bound 1e-3
        real = limits.independence_matrix

        def off_by_2e_3(frame, L, seed=None):
            return real(frame, L, seed=seed)._replace(det=complex(-L - 2e-3))

        monkeypatch.setattr(limits, "independence_matrix", off_by_2e_3)
        code, out = run(capsys, "--format", "json", "pairing")
        assert code == 1
        assert [c["status"] for c in json.loads(out)["checks"]] == ["fail", "fail"]

    def test_L_is_the_aj_invariant(self, capsys):
        # one source of L: the pairing value is the aj imaginary part, bit for bit
        _, out = run(capsys, "--format", "json", "pairing")
        L = json.loads(out)["checks"][0]["data"]["L"]
        _, out = run(capsys, "--format", "json", "aj")
        im = {c["name"]: c["data"] for c in json.loads(out)["checks"]}["non-triviality"]["im"]
        assert L.hex() == im.hex() == periods.aj_closed_form().imag.hex()


def test_report_path_runs_no_elimination(capsys, monkeypatch):
    # passing basis and sing reports rest on witnesses alone
    from hodge_degen import exactlin

    def refuse(rows):
        raise AssertionError("elimination on the report path")

    monkeypatch.setattr(exactlin, "_echelon", refuse)
    for d in range(2, 11):
        assert run(capsys, "--format", "json", "basis", "--d", str(d))[0] == 0
    for d in range(3, 9):
        for family in ("all", "delta"):
            assert run(capsys, "--format", "json", "sing", "--d", str(d), "--family", family)[0] == 0
    with pytest.raises(AssertionError):
        exactlin.rank(exactlin.QMatrix([[1]]))  # the patch is live


@pytest.mark.parametrize("d", range(3, 7))
def test_sing_builds_each_residue_once(d, capsys, monkeypatch):
    # span_rank builds the residues once, for every family; the reports
    # (the sample table, the delta checks) reuse them
    from hodge_degen import cycles

    calls = {}
    for name in ("singularity_at_zero", "family_cycles"):
        real = getattr(cycles, name)

        def counted(*args, name=name, real=real):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(cycles, name, counted)
    residues = {"all": d * math.comb(d, 3) + d * d, "delta": d * math.comb(d, 3)}
    for family, count in residues.items():
        calls.clear()
        assert run(capsys, "--format", "json", "sing", "--d", str(d), "--family", family)[0] == 0
        assert calls == {"singularity_at_zero": count, "family_cycles": 1}, family


@pytest.mark.parametrize("argv", [("basis", "--d", "5"), ("sing", "--d", "5", "--family", "all")])
def test_kernel_basis_checked_once_per_report(argv, capsys, monkeypatch):
    from hodge_degen import degeneration

    calls = []
    real = degeneration.spans_kernel

    def counted(d, basis):
        calls.append(d)
        return real(d, basis)

    monkeypatch.setattr(degeneration, "spans_kernel", counted)
    degeneration._kernel_basis.cache_clear()  # a first build counts too
    assert run(capsys, "--format", "json", *argv)[0] == 0
    assert calls == [5]


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hodge_degen.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_fresh(code):
    """Run code in a fresh interpreter that imports this checkout's package."""
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, timeout=120)


def test_closed_pipe_exits_quietly():
    # the reader stops after 10 bytes of a report larger than a pipe
    # buffer, as `| head -c 10` does: no traceback, and the exit status is
    # still the verdict's
    argv = [sys.executable, "-m", "hodge_degen.cli", "--format", "json", "verify-all"]
    with subprocess.Popen(argv, env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0) as p:
        assert p.stdout.read(10)
        p.stdout.close()
        _, err = p.communicate(timeout=120)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
    assert p.returncode == 0


def test_package_import_loads_no_submodule():
    # the package re-exports nothing; callers import the modules they use
    code = (
        "import sys\n"
        "import hodge_degen\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('hodge_degen.'))\n"
        "assert not loaded, loaded\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_cli_never_imports_numpy():
    # numpy is a test oracle only; no job of the CLI loads it
    code = (
        "import contextlib, io, sys\n"
        "import hodge_degen.cli as cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['basis', '--d', '2']), cli.main(['aj']),\n"
        "             cli.main(['pairing', '--seed', '0']), cli.main(['verify-all'])]\n"
        "assert codes == [0, 0, 0, 0], codes\n"
        "assert 'numpy' not in sys.modules, 'main'\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_every_layer_and_no_dataclasses():
    # the report classes are plain classes and named tuples: importing the
    # CLI pays for neither dataclasses nor what it pulls in (inspect, ast)
    code = (
        "import sys\n"
        "import hodge_degen.cli\n"
        "layers = ('exactlin', 'arrangement', 'degeneration', 'cycles',\n"
        "          'quadrature', 'periods', 'limits', 'cli')\n"
        "missing = [m for m in layers if 'hodge_degen.' + m not in sys.modules]\n"
        "assert not missing, missing\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def _named_tuples(value, path="data"):
    """Paths under value where a NamedTuple stands in for a plain value."""
    if hasattr(value, "_fields"):
        return [path]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _named_tuples(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _named_tuples(v, f"{path}[{i}]")]
    return []


def test_report_data_holds_no_named_tuple():
    # json.dumps would write a record as a bare list and markdown would show
    # its tuple repr; every report value must be built explicitly
    from hodge_degen import cli

    report = cli.Report("all")
    cli.run_basis(report, 4)
    for family in ("all", "delta", "gamma", "lambda"):
        cli.run_sing(report, 4, family)
    cli.run_aj(report, True)
    cli.run_pairing(report, 0)
    assert report.ok
    found = [f"{c.name}: {p}" for c in report.checks for p in _named_tuples(c.data)]
    assert not found, found


_FRAME = limits.Frame(dk=2)

# a maker of an instance of each immutable record or value class, and a field
IMMUTABLE = {
    "CycloNumber": (lambda: CycloNumber(1, 2), "a"),
    "QMatrix": (lambda: QMatrix([[1, 2]]), "entries"),
    "LinearForm": (lambda: arrangement.LinearForm([1, 0, 0, 0]), "coeffs"),
    "P3Point": (lambda: arrangement.P3Point([1, 0, 0, 1]), "coords"),
    "Arrangement": (arrangement.tempered_arrangement, "d"),
    "H2Class": (lambda: H2Class(3, {("l", 1): 1}), "coords"),
    "Precycle": (lambda: cycles.Precycle((1, 2), ("L", 2), ("L", 3)), "support"),
    "HigherCycle": (lambda: cycles.build_cycle("lambda", (1, 1)), "kind"),
    "SpanRankResult": (lambda: cycles.span_rank(3), "rank"),
    "ThreefoldBoundary": (lambda: cycles.threefold_boundary(1, 2, 3, 1), "side"),
    "GeneralPositionReport": (
        lambda: arrangement.validate_general_position(arrangement.tempered_arrangement()),
        "ok",
    ),
    "_EdgeLine": (lambda: periods._edge_through((1, 1), (2, 3)), "p"),
    "FunctionalEquationReport": (lambda: periods.check_functional_equations(10, 0), "samples"),
    "Frame": (lambda: _FRAME, "dk"),
    "PolyTail": (limits.PolyTail, "coeffs"),
    "EtaModel": (lambda: limits.EtaModel.build(_FRAME), "g"),
    "NormalFunctionModel": (lambda: limits.NormalFunctionModel.limit_type(1.0, _FRAME), "L"),
    "PairingLimit": (lambda: limits.PairingLimit(1j, (0.0,)), "value"),
    "IndependenceResult": (lambda: limits.independence_matrix(_FRAME, 1.0), "det"),
}


@pytest.mark.parametrize("name", IMMUTABLE)
def test_value_classes_stay_immutable(name):
    make, field = IMMUTABLE[name]
    obj = make()
    assert type(obj).__name__ == name
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert obj == make() and hash(obj) == hash(make())


def test_value_class_equality_and_repr():
    assert CycloNumber(1) != 1 and 1 != CycloNumber(1)
    assert CycloNumber(1) == CycloNumber(Fraction(2, 2), 0)
    assert CycloNumber(1) != QMatrix([[1]])
    x = H2Class(3, {("l", 1): 2, ("e", 1, 2, 1): 1})
    y = reduce_raw(3, {("e", 1, 2, 1): 1}) + H2Class(3, {("l", 1): 2})
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != H2Class(4, {("l", 1): 2, ("e", 1, 2, 1): 1})
    assert repr(QMatrix([[1]])) == "QMatrix(entries=((Fraction(1, 1),),))"
