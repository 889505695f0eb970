"""Command line interface: exit codes, report schema, determinism."""

import ast
import gc
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hodge_degen
from hodge_degen import cycles, degeneration, limits, periods
from hodge_degen.cli import COMMANDS, _json, main
from hodge_degen.degeneration import _combine, reduce_raw
from hodge_degen.exactlin import QMatrix
from oracle import dense, rank


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
        # int() reads each of these four, but an integer option is an
        # optional "-" and ASCII digits only
        "--d with an underscore": ["basis", "--d", "1_0"],
        "--d in full-width digits": ["basis", "--d", "\uff14"],
        "--d with a leading space": ["basis", "--d", " 4"],
        "--d with a plus sign": ["basis", "--d", "+4"],
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
        for text in ("x", "1_0", "\uff14", " 4", "+4"):
            with pytest.raises(SystemExit):
                main(["basis", "--d", text])
            err = capsys.readouterr().err
            assert err.endswith(f"hodge-degen: error: argument --d: expected an integer >= 2, got {text!r}\n")

    def test_negative_seed(self, capsys):
        # a "-" before the digits is still an integer, written either way
        first = run(capsys, "--format", "json", "pairing", "--seed", "-3")
        assert first[0] == 0
        assert run(capsys, "--format", "json", "pairing", "--seed=-3") == first

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
    ("sing", "--d", "3", "--family", "gamma"): "fb0c7a326afe77087481e552a2378a7b03db08315403e05e61593ed9cc73dcd6",
    ("sing", "--d", "3", "--family", "lambda"): "6e92570947d9c8b212b5cbbec75e4bb1ae77bf803092fc1e5bd1d6dc5e27c914",
    ("sing", "--d", "4", "--family", "all"): "f072ea0eed714f7bd72b875d319409931e19021d7e26535848f2f8bc9baad29f",
    ("sing", "--d", "4", "--family", "delta"): "5df5fa99c516cbf8cc0e2ca15c635ba5b1b52964d83e11883dba8216672b4bce",
    ("sing", "--d", "4", "--family", "gamma"): "4024fd291b37473f14b6cdcdd90a9261e6292d2a5831c09929e719dbee4c190f",
    ("sing", "--d", "4", "--family", "lambda"): "d8b5c511d11080c6fb51f904ab812a45eab5ebbb79fa90a71cdadf03d8ef056a",
    ("sing", "--d", "5", "--family", "all"): "58ec20c0a5e1880a1b3e2a862e1b0961a9e340e7d74171caed97c64e1c1ecfd3",
    ("sing", "--d", "5", "--family", "delta"): "571ad2d87e707bc1205254bc5711c530674f91a93c68a6874423e56e5dbc157f",
    ("sing", "--d", "5", "--family", "gamma"): "25c34b96b0a4761c34343bfb325ce796949c1dd9a55c1d327a866d8c857616fc",
    ("sing", "--d", "5", "--family", "lambda"): "6fba3893ae72aed248b99335eac9e1ef27847deddb8be7880c63f4db2c82d729",
    ("sing", "--d", "6", "--family", "all"): "bfd944343be8a3fbf5164b7cbe373b5a1b22d2b42985332569fa6e10f339ab8c",
    ("sing", "--d", "6", "--family", "delta"): "84b39c9e5a51e53c4d3f63496253afcf3f641ccbaf17dc9cc38f670387d2c7c7",
    ("sing", "--d", "6", "--family", "gamma"): "8de010e60e9caa60af659e8885ed843a19621983cdeaf08326b25707ff857a47",
    ("sing", "--d", "6", "--family", "lambda"): "2e445f879cd4f8fecd316f402047efc1f9ecab75802e5762e4c94e3c7c105d56",
    ("sing", "--d", "7", "--family", "all"): "c197b75a74cab96bcc898a9b169bec3fd6887480df3f499732e8bb84d624c5b8",
    ("sing", "--d", "7", "--family", "delta"): "97231439d27067c494210dd62ddddd547463ad3d4404dfdfa9379328d60b7b43",
    ("sing", "--d", "7", "--family", "gamma"): "4a5c7438c221a854da2409a6f3fcc56bc77f82e1dd03ab825b449a12de2fbdc2",
    ("sing", "--d", "7", "--family", "lambda"): "e382719f1ccb4ba42487608a0aa68310bb44edc6a771dc4f2256d76682263ef0",
}


@pytest.mark.parametrize("argv", JSON_DIGESTS, ids=" ".join)
def test_exact_reports_unchanged(argv, capsys):
    code, out = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[argv]


# sha256 of the default (markdown) report of each job, pinned as
# JSON_DIGESTS pins the JSON: both formats render the same checks, and a
# change of the renderer must not move a byte of either
MARKDOWN_DIGESTS = {
    ("basis", "--d", "2"): "2256d7ee4826b7600d49cbd67578df6d5abe091a493dc18b3a71d0273eefbe46",
    ("basis", "--d", "3"): "8440f6cf456ccda0e36bb498db3f94f90121e2cbf88273862ff2c90a917bde07",
    ("basis", "--d", "4"): "ea1a356a3b900a25f820b9281f4c8c9aacaaf33f98127fffbda895f0a56c5ce6",
    ("basis", "--d", "5"): "91b7bb00b5bfa9945196394433718724a5e8cc45909265de8c36f4f7b3128713",
    ("sing", "--d", "3", "--family", "all"): "6f8b6cf975500010781d99a66faf0bb9cefa3c13bfcaa16ae379ed6f26acb0b0",
    ("sing", "--d", "3", "--family", "delta"): "7bb96c78bbaa7efb5881c40e4f6caba9f1d4a9260283c9efa00c7f9853b7b719",
    ("sing", "--d", "3", "--family", "gamma"): "5aa65c62bb0f43ab282319065ec397e7182ae963c5acd383f476b06923890512",
    ("sing", "--d", "3", "--family", "lambda"): "cfc7c34b6172c651d9fb7d3ae3a0934234cd7efdf670b04a87ced3e5943ae998",
    ("sing", "--d", "4", "--family", "all"): "f9a55c070a3132f9a646bc368d933f229018489952183df1e734aa2810797bc5",
    ("sing", "--d", "4", "--family", "delta"): "f72b0806f9f00c07530f27f04bec0da4e479063a14acf1a1f4503b9dadb4f52a",
    ("sing", "--d", "4", "--family", "gamma"): "6c218f31aee2a8ffc346d84ff6d42af002393ce5df7dd71f422f9920bf80c624",
    ("sing", "--d", "4", "--family", "lambda"): "e54c9800a95ea8fbb1271d74936df2d54508d55c432b59ccb504ce83845ea930",
    ("sing", "--d", "5", "--family", "all"): "4f2aaf7fcfbd0656b968e6d4eb01b2ca45fa982f4719c9ec4c0593a61637a66b",
    ("sing", "--d", "5", "--family", "delta"): "db3635943a20e10f613a23cc7b96d04bfedb9534581b3856e7af307d817e1099",
    ("sing", "--d", "5", "--family", "gamma"): "f4eecee8348f041e978c236fdd7259d1c42a8de9ad5b51be5103bdef5c92fd50",
    ("sing", "--d", "5", "--family", "lambda"): "d19a98638e3b76582538b6db3a56b9e8c746dabf5c5babc37dc38ba4ba70fa21",
}


@pytest.mark.parametrize("argv", MARKDOWN_DIGESTS, ids=" ".join)
def test_markdown_reports_unchanged(argv, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MARKDOWN_DIGESTS[argv]


def test_markdown_marks_a_skipped_check(capsys):
    code, out = run(capsys, "aj")
    assert code == 0
    (line,) = [line for line in out.splitlines() if line.startswith("- [skip]")]
    assert line.startswith("- [skip] quadrature oracle ")
    assert line.endswith("(raw 2D quadrature over the same membrane)")
    assert out.endswith("\nresult: pass\n")


def test_markdown_marks_a_failed_check(capsys, monkeypatch):
    # a failed witness is marked FAIL with its failed clause under it, and
    # the result line turns to FAIL
    from hodge_degen import degeneration

    monkeypatch.setattr(degeneration, "phi_rank_failure", lambda d, cols: "row sums")
    code, out = run(capsys, "basis", "--d", "4")
    assert code == 1
    lines = out.splitlines()
    failed = [line.split("  (")[0].rstrip() for line in lines if line.startswith("- [FAIL] ")]
    assert failed == ["- [FAIL] component pairing rank d=4", "- [FAIL] kernel dimension d=4", "- [FAIL] kernel basis spans d=4"]
    assert "    - failed: row sums" in lines
    assert lines[-1] == "result: FAIL"


# every value a report may hold: str (control characters, non-ASCII and
# astral code points included), int (big ones included), finite float,
# bool, None, and dicts, lists and tuples of them
json_scalars = (
    st.text()
    | st.sampled_from(["", '"\\/', "\x00\x1f\x7f\b\f\n\r\t", "\u00e9\u2028\ufeff", "\U0001f600\U0010ffff"])
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans()
    | st.none()
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


class TestJsonWriter:
    @given(json_docs)
    @example({"a": [], "b": {}, "c": (), "d": [[{}]]})
    @example({"\U0001f600": "\ud83d", "k": [1.5e300, -0.0, 10**40, True, None]})
    @settings(max_examples=300, deadline=None)
    def test_writes_the_bytes_of_json_dumps(self, doc):
        assert _json(doc) == json.dumps(doc, indent=2)

    @given(json_docs, st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=100, deadline=None)
    def test_non_finite_float_becomes_its_string(self, doc, bad):
        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        text = _json({"doc": doc, "bad": [bad]})
        assert text == json.dumps({"doc": doc, "bad": [str(bad)]}, indent=2)
        assert json.loads(text, parse_constant=refuse)["bad"] == [str(bad)]

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
    def test_non_str_key_raises(self, key):
        with pytest.raises(TypeError):
            _json({"data": [{key: 1}]})

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", 1j])
    def test_unwritable_value_raises(self, value):
        with pytest.raises(TypeError):
            _json({"data": [value]})


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

    def test_verify_all_is_every_suite(self, capsys):
        # the checks of basis d = 2..8, of sing with each family at
        # d = 3..6, of aj --oracle and of pairing, in that order
        jobs = [["basis", "--d", str(d)] for d in range(2, 9)]
        families = ("all", "delta", "gamma", "lambda")
        jobs += [["sing", "--d", str(d), "--family", f] for d in range(3, 7) for f in families]
        jobs += [["aj", "--oracle"], ["pairing", "--seed", "0"]]
        want = []
        for argv in jobs:
            want += json.loads(run(capsys, "--format", "json", *argv)[1])["checks"]
        code, out = run(capsys, "--format", "json", "verify-all", "--seed", "0")
        assert code == 0
        assert json.loads(out)["checks"] == want

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
        assert check["data"]["relations"] == 6 and check["data"]["relation_rank"] is None
        assert check["data"]["failed"] == "block"

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

    def test_broken_relation_block_fails(self, capsys, monkeypatch):
        # a sign slip keeps the relations independent but breaks the block:
        # with no witness there is no rank, and the check fails
        from hodge_degen import degeneration

        real = degeneration.presentation

        def slipped(d):
            gens, relations, dim = real(d)
            relations[2] = {**relations[2], ("e", 1, 4, 4): 1}
            return gens, relations, dim

        monkeypatch.setattr(degeneration, "presentation", slipped)
        code, out = run(capsys, "--format", "json", "basis", "--d", "4")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert [c["status"] for c in checks.values()] == ["fail", "pass", "pass", "pass"]
        data = checks["presentation dimension d=4"]["data"]
        assert data["relation_rank"] is None
        assert (data["witness"], data["witness_size"], data["failed"]) == ("signed identity block", 6, "block")

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

    def test_broken_phi_witness_fails(self, capsys, monkeypatch):
        # the kernel dimension is derived from the pairing rank, and the
        # kernel basis witness rests on it: both fail with it
        from hodge_degen import degeneration

        monkeypatch.setattr(degeneration, "phi_rank_failure", lambda d, cols: "row sums")
        code, out = run(capsys, "--format", "json", "basis", "--d", "4")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert [c["status"] for c in checks.values()] == ["pass", "fail", "fail", "fail"]
        data = checks["component pairing rank d=4"]["data"]
        assert (data["rank"], data["witness"], data["failed"]) == (None, "zero row sum + unit differences", "row sums")
        assert checks["kernel dimension d=4"]["data"]["kernel_dim"] is None
        assert checks["kernel basis spans d=4"]["data"]["failed"] == "row sums"

    def test_broken_kernel_basis_fails(self, capsys, monkeypatch):
        # the builder does not check its basis; the report must
        from hodge_degen import degeneration

        real = degeneration._kernel_basis

        def off_kernel(d):
            basis = list(real(d))
            basis[5] = _combine(d, ((1, basis[5]), (1, reduce_raw(d, {("l", 1): 1}))))
            return tuple(basis)

        monkeypatch.setattr(degeneration, "_kernel_basis", off_kernel)
        code, out = run(capsys, "--format", "json", "basis", "--d", "4")
        assert code == 1
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert [c["status"] for c in checks.values()] == ["pass", "pass", "pass", "fail"]
        check = checks["kernel basis spans d=4"]
        assert check["data"]["stacked_rank"] is None
        assert check["data"]["witness"] == "membership + diagonal certificate"
        assert check["data"]["failed"] == "membership"

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

        fake = reduce_raw(4, {("e", 1, 2, 1): 1, ("l", 1): -1})
        monkeypatch.setattr(cycles, "singularity_at_zero", lambda d, c: fake)
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "delta")
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["delta span rank d=4"]
        assert check["status"] == "fail" and check["data"]["rank"] is None
        assert check["data"]["failed"] == "nonzero class delta(1;1,2,3)"

    def test_lambda_family_rank(self, capsys):
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "lambda")
        assert code == 0
        doc = json.loads(out)
        by_name = {c["name"]: c["data"] for c in doc["checks"]}
        assert by_name["span rank d=4 family=lambda"]["rank"] == 10

    @pytest.mark.parametrize(
        "d,family", [(d, "lambda") for d in range(2, 11)] + [(d, "gamma") for d in range(3, 11)]
    )
    def test_single_family_rank_closed_form(self, d, family):
        # the witness rank, the closed form and the oracle's elimination
        # rank of the classes agree
        from hodge_degen.cycles import span_rank

        rk, expected, failed, _, _, residues = span_rank(d, family)
        assert failed is None
        nonzero = [dense(d, cl) for _, cl in residues if cl]
        assert rk == expected == rank(QMatrix(nonzero))

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
            rk, *rest = span_rank(d, family)
            return rk + 1, *rest

        monkeypatch.setattr(cli, "span_rank", off_by_one)
        code, out = run(capsys, "--format", "json", "sing", "--d", "4", "--family", "lambda")
        assert code == 1
        check = {c["name"]: c for c in json.loads(out)["checks"]}["span rank d=4 family=lambda"]
        assert check["status"] == "fail"
        assert check["data"]["rank"] == 11 and check["data"]["expected"] == 10

    def test_broken_single_family_witness_fails(self, capsys, monkeypatch):
        # a flipped sign in the cocycle replay, and T dropped from the
        # lambda spanning set: each check fails and names its replay
        from hodge_degen import cycles

        real_cocycle, real_set = cycles.cocycle_combination, cycles.spanning_set
        monkeypatch.setattr(cycles, "cocycle_combination", lambda *a: [(-c, k) for c, k in real_cocycle(*a)])
        monkeypatch.setattr(cycles, "spanning_set", lambda d, family: (real_set(d, family)[0], None))
        for family, failed in (("gamma", "replay gamma(2,3,4;1)"), ("lambda", "replay lambda(5;1)")):
            code, out = run(capsys, "--format", "json", "sing", "--d", "5", "--family", family)
            assert code == 1
            (check,) = json.loads(out)["checks"]
            assert check["status"] == "fail"
            assert (check["data"]["rank"], check["data"]["failed"]) == (None, failed)

    def test_residue_table_writes_quotients_as_fractions(self):
        # the table writes each coordinate n/d of a class from the int n
        # that express_in_B gives for d times the class; the text is the
        # one str(Fraction(n, d)) prints
        from hodge_degen.cli import _quotient

        for d in range(2, 31):
            for n in range(-3 * d, 3 * d + 1):
                assert _quotient(n, d) == str(Fraction(n, d)), (n, d)

    def test_broken_kernel_basis_fails_residue_table(self, capsys, monkeypatch):
        # a basis element off the kernel fails the span witness, and the
        # residue table, which the basis cannot reassemble, fails with exit
        # 1 instead of a traceback
        from hodge_degen import degeneration

        real = degeneration._kernel_basis

        def off_kernel(d):
            basis = list(real(d))
            basis[5] = _combine(d, ((1, basis[5]), (1, reduce_raw(d, {("l", 1): 1}))))
            return tuple(basis)

        monkeypatch.setattr(degeneration, "_kernel_basis", off_kernel)
        code, out = run(capsys, "--format", "json", "sing", "--d", "4")
        assert code == 1
        assert capsys.readouterr().err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        span = checks["span rank d=4 family=both"]
        assert span["status"] == "fail" and span["data"]["rank"] is None
        assert span["data"]["failed"] == "kernel basis membership"
        table = checks["sample residue table d=4"]
        assert table["status"] == "fail"
        assert any(row["in_B"] is None for row in table["data"]["rows"])


def _shift_residues(monkeypatch, shift):
    """Every residue class plus shift(d, cycle)."""
    real = cycles.singularity_at_zero
    monkeypatch.setattr(cycles, "singularity_at_zero", lambda d, c: _combine(d, ((1, real(d, c)), (1, shift(d, c)))))


def _patch_result(monkeypatch, module, name, change):
    """module.name replaced by change(real, *args)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(real, *args))


def _flip_first(terms):
    (c, key), *rest = terms
    return [(-c, key), *rest]


def _slip_pair_sign(monkeypatch):
    _patch_result(monkeypatch, cycles, "pair_combination", lambda real, *a: _flip_first(real(*a)))


def _drop_basis_class(monkeypatch):
    _patch_result(monkeypatch, degeneration, "_kernel_basis", lambda real, d: real(d)[:-1])


def _gammas_off_kernel(monkeypatch):
    # l_1 times the boundary of the tetrahedron 1234 on the gammas with l = 2
    signs = {(1, 2, 3, 2): 1, (1, 2, 4, 2): -1, (1, 3, 4, 2): 1, (2, 3, 4, 2): -1}
    _shift_residues(monkeypatch, lambda d, c: reduce_raw(d, {("l", 1): signs.get(c[1], 0) if c[0] == "gamma" else 0}))


def _lambdas_lose_total(monkeypatch):
    # every lambda minus B_0 / d: the lambda column sums vanish
    def shift(d, c):
        return _combine(d, ((Fraction(-1, d), degeneration.hodge_kernel_basis(d)[0]),)) if c[0] == "lambda" else ()

    _shift_residues(monkeypatch, shift)


def _flip_cocycle_sign(monkeypatch):
    _patch_result(monkeypatch, cycles, "cocycle_combination", lambda real, *a: _flip_first(real(*a)))


def _drop_total(monkeypatch):
    _patch_result(monkeypatch, cycles, "spanning_set", lambda real, d, family: (real(d, family)[0], None))


def _drop_last_membership_replay(monkeypatch):
    _patch_result(monkeypatch, cycles, "membership_replays", lambda real, d, family: real(d, family)[:-1])


def _duplicate_owner(monkeypatch):
    def duplicated(real, d, family):
        owners, total = real(d, family)
        return [*owners, owners[0]], total

    _patch_result(monkeypatch, cycles, "spanning_set", duplicated)


def _nonzero_delta(monkeypatch):
    _shift_residues(monkeypatch, lambda d, c: reduce_raw(d, {("l", 1): int(c == ("delta", (2, 1, 2, 3)))}))


# Each mutation of the sing witnesses: the job, the failed clause of its
# rank check, and the status of every check of the report.
SING_MUTATIONS = {
    "pair sign slip": (_slip_pair_sign, 4, "all", "replay pair(1,2;1)", ("fail", "fail", "pass")),
    "basis class dropped": (_drop_basis_class, 4, "all", "kernel basis count", ("fail", "fail", "fail")),
    "gammas off the kernel": (_gammas_off_kernel, 5, "all", "membership", ("fail", "pass", "fail")),
    "lambdas lose the total": (_lambdas_lose_total, 5, "all", "replay total(1)", ("fail", "fail", "pass")),
    "cocycle sign flip": (_flip_cocycle_sign, 5, "gamma", "replay gamma(2,3,4;1)", ("fail",)),
    "lambda without T": (_drop_total, 4, "lambda", "replay lambda(4;1)", ("fail",)),
    "last membership replay dropped": (_drop_last_membership_replay, 4, "gamma", "no replay of gamma(2,3,4;4)", ("fail",)),
    "duplicated gamma owner": (_duplicate_owner, 5, "gamma", "diagonal certificate", ("fail",)),
    "duplicated lambda owner": (_duplicate_owner, 5, "lambda", "diagonal certificate", ("fail",)),
    "nonzero delta class": (_nonzero_delta, 4, "delta", "nonzero class delta(2;1,2,3)", ("fail", "fail")),
}


@pytest.mark.parametrize("mutation", SING_MUTATIONS.values(), ids=SING_MUTATIONS)
def test_sing_mutation_report(mutation, capsys, monkeypatch):
    # the failed clause, and the status of every check in report order
    patch, d, family, failed, statuses = mutation
    patch(monkeypatch)
    code, out = run(capsys, "--format", "json", "sing", "--d", str(d), "--family", family)
    checks = json.loads(out)["checks"]
    assert code == 1
    rank_check = checks[1] if family == "delta" else checks[0]
    assert (rank_check["data"]["rank"], rank_check["data"]["failed"]) == (None, failed)
    assert tuple(c["status"] for c in checks) == statuses


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

    def test_functional_equation_check_fails_on_nan(self, capsys, monkeypatch):
        # a NaN residual on one sample of 1,000 fails the check
        real = periods._residuals
        calls = []

        def one_nan(z):
            calls.append(z)
            return (math.nan, 0.0) if len(calls) == 500 else real(z)

        monkeypatch.setattr(periods, "_residuals", one_nan)
        code, out = run(capsys, "--format", "json", "aj")
        assert code == 1
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name["dilogarithm functional equations"]["status"] == "fail"
        assert by_name["dilogarithm functional equations"]["data"]["max_residual"] == "nan"
        assert by_name["closed form vs membrane"]["status"] == "pass"

    def test_mu_instances_reported(self, capsys):
        code, out = run(capsys, "--format", "json", "aj")
        assert code == 0
        data = {c["name"]: c["data"] for c in json.loads(out)["checks"]}["dilogarithm functional equations"]
        assert data["mu_instances"] == periods.mu_instance_residuals()
        assert list(data["mu_instances"]) == ["shift at -mu", "shift at -1/mu", "reflect at -mu", "reflect at -1/mu"]
        assert all(r < 1e-12 for r in data["mu_instances"].values())

    @pytest.mark.parametrize("bad", [1e-9, math.nan])
    def test_mu_instance_residual_fails_the_check(self, capsys, monkeypatch, bad):
        # one sixth-root instance off by more than the bound of acceptance
        # criterion 7 fails the check, though every sampled residual holds
        real = periods.mu_instance_residuals
        monkeypatch.setattr(periods, "mu_instance_residuals", lambda: {**real(), "reflect at -mu": bad})
        code, out = run(capsys, "--format", "json", "aj")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        check = checks["dilogarithm functional equations"]
        assert check["status"] == "fail"
        assert check["data"]["max_residual"] < 1e-12
        assert check["data"]["mu_instances"]["reflect at -mu"] == ("nan" if math.isnan(bad) else bad)
        assert [c["status"] for c in checks.values()] == ["pass", "pass", "pass", "fail", "skipped"]
        assert run(capsys, "aj")[0] == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_stay_strict_json(self, capsys, monkeypatch, bad):
        # a non-finite metric is written as the text of the markdown report,
        # not as the bare token NaN or Infinity, which strict parsers refuse
        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        monkeypatch.setattr(periods, "_residuals", lambda z: (bad, 0.0))
        code, out = run(capsys, "--format", "json", "aj")
        assert code == 1
        by_name = {c["name"]: c for c in json.loads(out, parse_constant=refuse)["checks"]}
        assert by_name["dilogarithm functional equations"]["data"]["max_residual"] == str(bad)
        code, out = run(capsys, "aj")
        assert code == 1
        assert f"    - max_residual: {bad}\n" in out

    def test_value_runs_no_quadrature(self, capsys, monkeypatch):
        # the membrane value is a closed form: with adaptive_quad refusing in
        # quadrature and in every module that binds it, aj passes every check
        # and skips only the oracle, which does integrate
        from hodge_degen import quadrature

        real = quadrature.adaptive_quad

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature on the aj value path")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] in ("hodge_degen", "oracle") and getattr(module, "adaptive_quad", None) is real:
                monkeypatch.setattr(module, "adaptive_quad", refuse)
        assert quadrature.adaptive_quad is refuse
        code, out = run(capsys, "--format", "json", "aj")
        assert code == 0
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert statuses.pop("quadrature oracle") == "skipped"
        assert statuses and set(statuses.values()) == {"pass"}
        with pytest.raises(AssertionError, match="quadrature on the aj value path"):
            periods.membrane_quadrature([(1 + 1j, 1 + 1j), (2 + 0.5j, 1.5 + 0j), (2 + 2j, 2 + 2j)])

    @pytest.mark.parametrize("scale", [1 + 1e-7, 1 - 1e-7])
    def test_membrane_off_in_its_7th_digit_fails(self, capsys, monkeypatch, scale):
        # every leg of the membrane scaled by 1 +- 1e-7 moves it by about
        # 4.4e-7, under the old bound of 1e-6; both checks that read the
        # membrane fail, and the rest still pass
        real = periods._leg_integral
        monkeypatch.setattr(periods, "_leg_integral", lambda *leg: scale * real(*leg))
        code, out = run(capsys, "--format", "json", "aj", "--oracle")
        assert code == 1
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        failed = {name for name, status in statuses.items() if status == "fail"}
        assert failed == {"closed form vs membrane", "quadrature oracle"}
        assert set(statuses.values()) == {"pass", "fail"}
        assert run(capsys, "aj")[0] == 1

    def test_arrangement_check_can_fail(self, capsys, monkeypatch):
        # a failed certificate fails its check and names the clause, as a
        # failed rank witness does; a passing check carries no data
        from hodge_degen import cli

        _, out = run(capsys, "--format", "json", "aj")
        assert json.loads(out)["checks"][0]["data"] == {}
        violation = "three forms share a line: L1, M1, M2"
        monkeypatch.setattr(cli, "general_position_failure", lambda arr: violation)
        code, out = run(capsys, "--format", "json", "aj")
        assert code == 1
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        check = by_name["tempered arrangement certified"]
        assert check["status"] == "fail" and check["data"] == {"failed": violation}
        assert by_name["closed form vs membrane"]["status"] == "pass"


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

    def test_seeded_fields(self, capsys):
        _, out = run(capsys, "--format", "json", "pairing")
        seeded = json.loads(out)["checks"][1]["data"]
        assert list(seeded) == ["matrix", "det", "L", "verdict", "t_sequence", "max_residual"]
        assert seeded["t_sequence"] == [[t.real, t.imag] for t in limits.T_SEQUENCE]
        assert all(isinstance(x, float) for row in seeded["matrix"] for v in row for x in v)

    def test_small_det_is_not_independent(self, capsys, monkeypatch):
        # |det| = 0.1 L is not above the verdict bound 0.1 |L|
        real = limits.independence_matrix

        def tenth_of_L(L, seed=None):
            matrix, _, max_residual = real(L, seed=seed)
            return matrix, complex(-0.1 * L), max_residual

        monkeypatch.setattr(limits, "independence_matrix", tenth_of_L)
        code, out = run(capsys, "--format", "json", "pairing")
        assert code == 1
        seeded = json.loads(out)["checks"][1]
        assert seeded["status"] == "fail" and seeded["data"]["verdict"] == "fail"

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

        def off_by_2e_3(L, seed=None):
            matrix, _, max_residual = real(L, seed=seed)
            return matrix, complex(-L - 2e-3), max_residual

        monkeypatch.setattr(limits, "independence_matrix", off_by_2e_3)
        code, out = run(capsys, "--format", "json", "pairing")
        assert code == 1
        assert [c["status"] for c in json.loads(out)["checks"]] == ["fail", "fail"]

    @pytest.mark.parametrize("settled", [0, 1 + limits.DEFAULT_DK])
    def test_unsettled_limit_is_a_failed_check(self, capsys, monkeypatch, settled):
        # an ExtrapolationError fails the check of its matrix, named as ever
        # and carrying the message, and the report still prints; ``settled``
        # rows extrapolate first, so 20 let the zero-tail matrix pass
        real, calls = limits._extrapolate, []
        message = "pairing limit not converging: residuals [1.0]"

        def unsettled(kind, samples):
            calls.append(kind)
            if len(calls) > settled:
                raise limits.ExtrapolationError(message)
            return real(kind, samples)

        monkeypatch.setattr(limits, "_extrapolate", unsettled)
        names = ["structural determinant (zero tails)", "seeded limit matrix"]
        code, out = run(capsys, "--format", "json", "pairing", "--seed", "3")
        assert code == 1
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == names
        failed = checks[1:] if settled else checks
        assert all(c["status"] == "fail" and c["data"] == {"error": message} for c in failed)
        assert settled == 0 or checks[0]["status"] == "pass"
        calls.clear()
        code, out = run(capsys, "pairing", "--seed", "3")
        assert code == 1
        assert f"    - error: {message}" in out.splitlines()
        assert out.endswith("\nresult: FAIL\n")

    def test_L_is_the_aj_invariant(self, capsys):
        # one source of L: the pairing value is the aj imaginary part, bit for bit
        _, out = run(capsys, "--format", "json", "pairing")
        L = json.loads(out)["checks"][0]["data"]["L"]
        _, out = run(capsys, "--format", "json", "aj")
        im = {c["name"]: c["data"] for c in json.loads(out)["checks"]}["non-triviality"]["im"]
        assert L.hex() == im.hex() == periods.aj_closed_form().imag.hex()


def test_report_path_runs_no_elimination():
    # every rank a report states rests on its witness alone: no module of
    # the package defines or imports an elimination routine, so a failed
    # witness cannot be papered over by a recomputed rank
    elimination = {"rank", "kernel_basis", "in_span", "_echelon"}
    package = os.path.dirname(hodge_degen.__file__)
    modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    assert "cycles.py" in modules and "exactlin.py" in modules
    found = []
    for name in modules:
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in elimination:
                found.append(f"{name}: defines {node.name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{name}: imports {a.name}" for a in node.names if a.name.split(".")[-1] in elimination]
        module = importlib.import_module(f"hodge_degen.{name[:-3]}")
        found += [f"{name}: binds {n}" for n in sorted(elimination) if hasattr(module, n)]
    assert not found, found


# Every function and method of the package that the report path never
# enters, with the reason it is kept.  Code with no report path must be
# listed here, so it shows up when it is added.
UNREACHED = {
    "cli.run": "process entry; the probe calls main() in-process",
    "cycles._label": "error path: names a cycle only when a witness fails",
    "cycles.threefold_boundary": "acceptance criterion 9",
    "limits.limit_of_pairing": "acceptance criterion 8",
    **{
        f"exactlin.QMatrix.{name}": "perfbench/tracer.py and the elimination oracle of the tests"
        for name in ("__init__", "rows", "cols", "mul_vector")
    },
}

# Run in a fresh interpreter: profiles every call from the package import
# on through the report jobs, then prints each package function (module
# level, or defined in a class of the package) whose code never ran.
REACHABILITY_PROBE = """
import contextlib, importlib, inspect, io, os, sys

entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
import hodge_degen
from hodge_degen import cli

JOBS = [
    ["--format", "json", "verify-all"],
    ["sing", "--d", "4", "--family", "gamma"],
    ["--format", "json", "sing", "--d", "4", "--family", "lambda"],
    ["--format", "json", "aj"],
    ["--format", "json", "basis", "--d", "2"],
    ["--help"],
    ["sing", "--help"],
    ["basis", "--d", "1"],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in JOBS:
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)


def functions(obj):
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f]
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    obj = inspect.unwrap(obj)  # lru_cache
    return [obj] if inspect.isfunction(obj) else []


package = os.path.dirname(hodge_degen.__file__)
for file in sorted(os.listdir(package)):
    if not file.endswith(".py") or file == "__init__.py":
        continue
    mod = importlib.import_module("hodge_degen." + file[:-3])
    for obj in vars(mod).values():
        owned = inspect.isclass(obj) and obj.__module__ == mod.__name__
        for fn in (f for m in (vars(obj).values() if owned else [obj]) for f in functions(m)):
            if fn.__module__ == mod.__name__ and fn.__code__ not in entered:
                print(file[:-3] + "." + fn.__qualname__)
"""


def test_package_is_its_report_path():
    # the report jobs of every subcommand but pairing (verify-all runs
    # it), a usage error and two help texts enter every package function
    # but the listed ones
    proc = run_fresh(REACHABILITY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.split()) == sorted(UNREACHED)


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
    real = degeneration.kernel_basis_failure

    def counted(d, basis):
        calls.append(d)
        return real(d, basis)

    monkeypatch.setattr(degeneration, "kernel_basis_failure", counted)
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


def run_module(*argv):
    """``python -m hodge_degen.cli argv`` in a fresh interpreter."""
    cmd = [sys.executable, "-m", "hodge_degen.cli", *argv]
    return subprocess.run(cmd, env=fresh_env(), capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [["basis", "--d", "2"], ["--help"], ["basis", "--d", "1"]], ids=" ".join)
def test_main_never_freezes_the_heap(argv, capsys):
    # gc.freeze is process-wide: only the process entry run() may call it,
    # so callers of main() in-process (tests, perfbench/tracer.py) keep
    # their collector as it was, on a report, on --help and on a usage error
    before = gc.get_freeze_count()
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [["basis", "--d", "2"], ["--help"]], ids=" ".join)
def test_run_freezes_the_start_up_heap(argv):
    # the freeze comes before parsing, so --help skips the shutdown scan too
    code = (
        "import contextlib, gc, io, sys\n"
        "import hodge_degen.cli as cli\n"
        f"sys.argv = ['hodge-degen', *{argv!r}]\n"
        "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        status = cli.run()\n"
        "    except SystemExit as e:\n"
        "        status = e.code\n"
        "assert status == 0, status\n"
        "assert gc.get_freeze_count() > 1000, gc.get_freeze_count()\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [["aj", "--oracle"], ["pairing", "--seed", "1"], ["basis", "--d", "4"]], ids=" ".join)
def test_process_entry_prints_the_in_process_report(argv, capsys):
    proc = run_module("--format", "json", *argv)
    assert (proc.returncode, proc.stdout) == run(capsys, "--format", "json", *argv)
    assert proc.stderr == ""


def test_process_entry_exit_statuses():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: hodge-degen [-h]")
    proc = run_module("basis", "--d", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("hodge-degen: error: ")


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
    # results are plain tuples, the command line is read from a table and
    # annotations take their types from collections.abc: a job pays for
    # neither dataclasses (inspect, ast), typing nor argparse (gettext,
    # locale, textwrap); -S keeps out site hooks, which may load typing
    # themselves
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


# the stdlib modules a job may load, beyond what the interpreter has loaded
# before it imports the package: a report is written without json, and
# fractions (which imports decimal) only once a scalar is not integral; a
# chart point of aj is integral, numerators over N(Z)
IMPORT_BUDGET = {
    ("--help",): set(),
    ("basis", "--d", "4"): set(),
    ("sing", "--d", "4", "--family", "delta"): set(),
    ("pairing", "--seed", "0"): set(),
    ("aj",): set(),
    ("aj", "--oracle"): set(),
    ("sing", "--d", "4", "--family", "all"): set(),
    ("sing", "--d", "4", "--family", "gamma"): set(),
    ("sing", "--d", "4", "--family", "lambda"): set(),
    ("verify-all",): set(),
}


@pytest.mark.parametrize("argv", IMPORT_BUDGET, ids=" ".join)
def test_job_imports_stay_in_budget(argv):
    report = [] if argv == ("--help",) else ["--format", "json"]
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import hodge_degen.cli as cli\n"
        f"sys.argv = ['hodge-degen', *{[*report, *argv]!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        status = cli.run()\n"
        "    except SystemExit as e:\n"
        "        status = e.code\n"
        "assert status == 0, status\n"
        "print(*(m for m in ('json', 'fractions', 'decimal') if m in sys.modules and m not in before))\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= IMPORT_BUDGET[argv], proc.stdout


def _records(value, path="data"):
    """Paths under value where a record (a named tuple or an instance of a
    package class) stands in for a plain value."""
    if hasattr(value, "_fields") or type(value).__module__.startswith("hodge_degen"):
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
    found = [f"{c['name']}: {p}" for c in report.doc["checks"] for p in _records(c["data"])]
    assert not found, found


# the classes the package defines, its exceptions aside: a result is handed
# on as plain data, so a new record class must be added here on purpose,
# as UNREACHED pins the code that no report enters
CLASSES = {"exactlin.QMatrix", "cli.Report"}

# Run in a fresh interpreter: prints every class statement of the package,
# at any depth, unless it binds a module-level exception class.
CLASS_PROBE = """
import ast, importlib, os
import hodge_degen

package = os.path.dirname(hodge_degen.__file__)
for file in sorted(os.listdir(package)):
    if not file.endswith(".py"):
        continue
    mod = importlib.import_module("hodge_degen." + file[:-3] if file != "__init__.py" else "hodge_degen")
    with open(os.path.join(package, file)) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            obj = getattr(mod, node.name, None)
            if not (isinstance(obj, type) and obj.__module__ == mod.__name__ and issubclass(obj, BaseException)):
                print(mod.__name__.split(".")[-1] + "." + node.name)
"""


def test_package_classes_are_pinned():
    proc = run_fresh(CLASS_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.split()) == sorted(CLASSES)
