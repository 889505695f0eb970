"""Command line interface: exit codes, report schema, determinism."""

import hashlib
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
from hodge_degen.cli import COMMANDS, main
from hodge_degen.degeneration import H2Class, reduce_raw
from hodge_degen.exactlin import CycloNumber, QMatrix, _Frozen


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
        assert capsys.readouterr().err.splitlines()[1] == (
            "hodge-degen: error: sing needs --d >= 3 for triple-index families"
        )

    MALFORMED = {
        "no command": [],
        "unknown command": ["frobnicate"],
        "option of another command": ["pairing", "--L", "2"],
        "option of basis on aj": ["aj", "--d", "4"],
        "missing --d": ["basis"],
        "--d without a value": ["basis", "--d"],
        "--d not an integer": ["basis", "--d", "x"],
        "--d below 2": ["basis", "--d", "1"],
        "unknown family": ["sing", "--d", "4", "--family", "bogus"],
        "--seed not an integer": ["pairing", "--seed", "x"],
        "unknown format": ["--format", "xml", "basis", "--d", "3"],
        "prefix of an option": ["sing", "--d", "4", "--fam", "all"],
        "value for a flag": ["aj", "--oracle=yes"],
        "command option before the command": ["--d", "4", "basis"],
    }

    @pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED)
    def test_malformed_command_line_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: hodge-degen ")
        assert error.startswith("hodge-degen: error: ")

    def test_bad_value_message_names_the_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["basis", "--d", "x"])
        err = capsys.readouterr().err
        assert err.endswith("hodge-degen: error: argument --d: expected an integer >= 2, got 'x'\n")

    def test_option_value_after_equals(self, capsys):
        assert run(capsys, "--format=json", "basis", "--d=5") == run(capsys, "--format", "json", "basis", "--d", "5")

    @pytest.mark.parametrize(
        "argv", [("sing", "--d", "4", "--family", "delta"), ("aj", "--oracle"), ("pairing", "--seed", "1")]
    )
    def test_report_flags_before_or_after_the_command(self, argv, capsys):
        first = run(capsys, "--format", "json", *argv)
        assert first[0] == 0
        assert run(capsys, *argv, "--format", "json") == first
        assert run(capsys, argv[0], "--format=json", *argv[1:]) == first
        timed = [run(capsys, *argv, "--format", "json", "--timing")[1], run(capsys, "--timing", *argv, "--format=json")[1]]
        assert all("elapsed_ms" in check for out in timed for check in json.loads(out)["checks"])

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag] if command else [flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"usage: hodge-degen {command} " if command else "usage: hodge-degen [-h]")
        assert "--format {md,json}" in out


# sha256 of the --format json report of each job, pinned so that a change
# of the command line or of the records cannot move a byte; no report here
# holds a float, so the digests are the same on every supported Python
JSON_DIGESTS = {
    ("basis", "--d", "2"): "00298512b63a311b25ca439e75793f168f8c4729c1af663320cd027d4fd3cd35",
    ("basis", "--d", "3"): "2c51441b5a06734a4165ffc8b420ac03e4afcc11f2b0e119af756c62d2dcafd1",
    ("basis", "--d", "4"): "6e5af1225e09106dcdce744854dc9d7900d6078fd928a3481d0ec1f9bd516456",
    ("basis", "--d", "5"): "3e04687ea4ce5f86b7130e36c6670d0411211dd2dc804084665ac7e098e485fd",
    ("basis", "--d", "6"): "0ba4e749a46797772ca9f1186ca1f77515d6b81bbdbf1cd9bd47af844e4f91b4",
    ("basis", "--d", "7"): "511de14c37fe8adddb93d25d43ebb77cc669ec4a12318e8c9de3cc1e44a5d13a",
    ("basis", "--d", "8"): "7b301eae7655f1d864528f3cb58ccd07621d45d1a04d5882ee583bf2dd8f5acf",
    ("basis", "--d", "9"): "451cc58207d3b49f90bb753fbc0822875ff0efe6797768071d60f990b7dbdbe7",
    ("sing", "--d", "3", "--family", "all"): "b011d2208f5fc0b48715631e7dc3312bf8151554f5eca9b3b6503051dc45ffe3",
    ("sing", "--d", "3", "--family", "delta"): "386c36cd4d3e7cb4c01a1f481275085dcf76cb37feb3d95c864749f8c622957c",
    ("sing", "--d", "3", "--family", "gamma"): "423676549758fe169000e26ddb3f47401ad7617a8acddb76978c7b8d0735f928",
    ("sing", "--d", "3", "--family", "lambda"): "a62cd0a3095bdc43d51c58025c2b04d94559ebb1b13c240f1184fd8bdcf9d00c",
    ("sing", "--d", "4", "--family", "all"): "f072ea0eed714f7bd72b875d319409931e19021d7e26535848f2f8bc9baad29f",
    ("sing", "--d", "4", "--family", "delta"): "5df5fa99c516cbf8cc0e2ca15c635ba5b1b52964d83e11883dba8216672b4bce",
    ("sing", "--d", "4", "--family", "gamma"): "31f9a9ab6d02bf90157d73423714737c8a6b37958b6f9280da6c31cd1320bcc6",
    ("sing", "--d", "4", "--family", "lambda"): "34fa63b8971e7311001f1ffd847b76ba0f04388050f635e22553d90153ce2a5d",
    ("sing", "--d", "5", "--family", "all"): "58ec20c0a5e1880a1b3e2a862e1b0961a9e340e7d74171caed97c64e1c1ecfd3",
    ("sing", "--d", "5", "--family", "delta"): "571ad2d87e707bc1205254bc5711c530674f91a93c68a6874423e56e5dbc157f",
    ("sing", "--d", "5", "--family", "gamma"): "c1a5083d1df05b2a0f4e66b6e5a0c4c4e31127a815f56f1ebac01ce9a86a6be4",
    ("sing", "--d", "5", "--family", "lambda"): "492c5e7cd1dc963b1e0e4983ac25ea7a632dd6f6f093d82766b98415423382ef",
    ("sing", "--d", "6", "--family", "all"): "bfd944343be8a3fbf5164b7cbe373b5a1b22d2b42985332569fa6e10f339ab8c",
    ("sing", "--d", "6", "--family", "delta"): "84b39c9e5a51e53c4d3f63496253afcf3f641ccbaf17dc9cc38f670387d2c7c7",
    ("sing", "--d", "6", "--family", "gamma"): "5ea2528e28ccb6566177244b563ac80efcf523ebe94891907dafd28bff31ce42",
    ("sing", "--d", "6", "--family", "lambda"): "98d630ce99676666b32d67036de54f3b5cd374c403a8a2232328fe3b12b41277",
    ("sing", "--d", "7", "--family", "all"): "c197b75a74cab96bcc898a9b169bec3fd6887480df3f499732e8bb84d624c5b8",
    ("sing", "--d", "7", "--family", "delta"): "97231439d27067c494210dd62ddddd547463ad3d4404dfdfa9379328d60b7b43",
    ("sing", "--d", "7", "--family", "gamma"): "28eb29ef8f63bcfc72dae002559ef765cbb66e02964ae2b65890419448e26c2a",
    ("sing", "--d", "7", "--family", "lambda"): "9a3cbfda7b7fa99540c268b8a696e3651b7baf7ed66e1c0c69a89634571899dd",
}


@pytest.mark.parametrize("argv", JSON_DIGESTS, ids=" ".join)
def test_exact_reports_unchanged(argv, capsys):
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[argv]


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
        from hodge_degen.cycles import SpanRankResult, span_rank

        def off_by_one(d, family):
            res = span_rank(d, family)
            return SpanRankResult(
                res.rank + 1,
                res.expected,
                res.spanning,
                res.combination_verified,
                res.witness,
                res.witness_size,
                res.residues,
            )

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
            res = real(frame, L, seed=seed)
            return limits.IndependenceResult(res.matrix, complex(-L - 2e-3), res.L, res.verdict, res.max_residual)

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
    # passing reports rest on witnesses and closed forms alone; the one
    # report that eliminates is sing for the gamma or lambda family
    from hodge_degen import exactlin

    def refuse(rows):
        raise AssertionError("elimination on the report path")

    monkeypatch.setattr(exactlin, "_echelon", refuse)
    for d in range(2, 11):
        assert run(capsys, "--format", "json", "basis", "--d", str(d))[0] == 0
    for d in range(3, 9):
        for family in ("all", "delta"):
            assert run(capsys, "--format", "json", "sing", "--d", str(d), "--family", family)[0] == 0
    for argv in (["aj"], ["aj", "--oracle"], ["pairing", "--seed", "3"], ["verify-all"]):
        assert run(capsys, "--format", "json", *argv)[0] == 0, argv
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


def run_fresh(code, *flags):
    """Run code in a fresh interpreter, started with flags, that imports
    this checkout's package."""
    argv = [sys.executable, *flags, "-c", code]
    return subprocess.run(argv, env=fresh_env(), capture_output=True, text=True, timeout=120)


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


def test_cli_start_path_loads_every_layer_and_no_machinery():
    # the value classes are plain _Frozen slot classes, the command line
    # is read from a table and annotations take their types from
    # collections.abc: a job pays for neither dataclasses (inspect, ast),
    # typing nor argparse (gettext, locale, textwrap); -S keeps out site
    # hooks, which may load typing themselves
    code = (
        "import contextlib, io, sys\n"
        "import hodge_degen.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert hodge_degen.cli.main(['--format', 'json', 'basis', '--d', '2']) == 0\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'typing', 'argparse', 'gettext', 'locale', 'textwrap')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "layers = ('exactlin', 'arrangement', 'degeneration', 'cycles',\n"
        "          'quadrature', 'periods', 'limits', 'cli')\n"
        "missing = [m for m in layers if 'hodge_degen.' + m not in sys.modules]\n"
        "assert not missing, missing\n"
        "records = [f'{m}.{name}' for m in layers for name, obj in vars(sys.modules['hodge_degen.' + m]).items()\n"
        "           if isinstance(obj, type) and obj.__module__ == 'hodge_degen.' + m and hasattr(obj, '_fields')]\n"
        "assert not records, records\n"
    )
    proc = run_fresh(code, "-S")
    assert proc.returncode == 0, proc.stderr


def _records(value, path="data"):
    """Paths under value where a record (a named tuple or a _Frozen value
    class) stands in for a plain value."""
    if hasattr(value, "_fields") or isinstance(value, _Frozen):
        return [path]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _records(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _records(v, f"{path}[{i}]")]
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
    found = [f"{c.name}: {p}" for c in report.checks for p in _records(c.data)]
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
