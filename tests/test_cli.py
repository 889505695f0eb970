"""Command line interface: exit codes, report schema, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import hodge_degen
from hodge_degen.cli import main


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

    def test_pairing_zero_L(self, capsys):
        code = main(["pairing", "--L", "0"])
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "9e307", "-9e307"])
    def test_pairing_nonfinite_L(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pairing", f"--L={value}"])
        assert exc.value.code == 2
        assert "L must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_aj_digits_below_one(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["aj", "--digits", value])
        assert exc.value.code == 2
        assert "digits must be >= 1" in capsys.readouterr().err

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
        from hodge_degen import cli
        from hodge_degen.degeneration import H2Class

        fake = H2Class(4, {("e", 1, 2, 1): 1, ("l", 1): -1})
        monkeypatch.setattr(cli, "singularity_at_zero", lambda c, d: fake)
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
        "d,family", [(d, "lambda") for d in range(2, 8)] + [(d, "gamma") for d in range(3, 8)]
    )
    def test_single_family_rank_closed_form(self, d, family):
        from hodge_degen.cli import single_family_rank
        from hodge_degen.cycles import span_rank

        assert span_rank(d, family).rank == single_family_rank(d, family)

    def test_single_family_check_passes(self, capsys):
        code, out = run(capsys, "--format", "json", "sing", "--d", "5", "--family", "gamma")
        assert code == 0
        data = {c["name"]: c["data"] for c in json.loads(out)["checks"]}["span rank d=5 family=gamma"]
        assert data["rank"] == data["family_rank"] == 24

    def test_single_family_rank_can_fail(self, capsys, monkeypatch):
        # one class too many (or too few) is no longer reported as a pass
        from hodge_degen import cli
        from hodge_degen.cycles import span_rank

        def off_by_one(d, family):
            res = span_rank(d, family)
            return dataclasses.replace(res, rank=res.rank + 1)

        monkeypatch.setattr(cli, "span_rank", off_by_one)
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "lambda")
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["span rank d=4 family=lambda"]
        assert check["status"] == "fail"
        assert check["data"]["rank"] == 11 and check["data"]["family_rank"] == 10


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

    def test_small_L(self, capsys):
        code, out = run(capsys, "--format", "json", "pairing", "--L", "1e-9")
        assert code == 0
        assert all(c["status"] == "pass" for c in json.loads(out)["checks"])

    def test_det_bound_relative_to_small_L(self, capsys, monkeypatch):
        # |det + L| = 2e-12 passes an absolute 1e-3 bound; relative to L it is 2e-3
        from hodge_degen import limits

        def off_by_2e_3(frame, L, seed=None, t_sequence=None):
            return limits.IndependenceResult(((0j,),), complex(-L * (1 + 2e-3)), L, "independent", 0.0)

        monkeypatch.setattr(limits, "independence_matrix", off_by_2e_3)
        code, out = run(capsys, "--format", "json", "pairing", "--L", "1e-9")
        assert code == 1
        assert [c["status"] for c in json.loads(out)["checks"]] == ["fail", "fail"]


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
    # the sample table reuses span_rank's residues instead of rebuilding them
    from hodge_degen import cli, cycles

    calls = {"singularity_at_zero": 0, "family_cycles": 0}
    for name, real in [(name, getattr(cycles, name)) for name in calls]:

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cycles, name, counted)
        monkeypatch.setattr(cli, name, counted)
    assert run(capsys, "--format", "json", "sing", "--d", str(d), "--family", "all")[0] == 0
    assert calls == {"singularity_at_zero": d * math.comb(d, 3) + d * d, "family_cycles": 1}


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(hodge_degen.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
