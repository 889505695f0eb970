"""Self-test of the benchmark's checker and tracer.

    python3 perfbench/selftest.py

1. A genuine report of each job kind passes the known-answer checker.
2. For each job kind, every check's status, every data field the checker
   reads, the check list itself, the exit status and the JSON are
   tampered with one at a time; each tampered report must be counted as
   failed.  So every check of the checker can fail.
3. A pairing seed that the program cannot finish (see
   run.NONCONVERGING_PAIRING_SEEDS) is counted as failed.
4. Two traced runs of the same job give identical counts, and calls
   made through names that cli imported from exactlin are traced.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

import checker
import run
import tracer

JOBS = [
    ["basis", "--d", "4"],
    ["sing", "--d", "4", "--family", "all"],
    ["sing", "--d", "4", "--family", "delta"],
    ["aj", "--oracle"],
    ["pairing", "--seed", "1"],
]


def perturb(key: str, value):
    """A wrong value of the same shape."""
    if key == "rows":
        rows = copy.deepcopy(value)
        rows[0]["in_B"][1] = str(Fraction(rows[0]["in_B"][1]) + 1)
        return rows
    if key == "matrix":
        m = copy.deepcopy(value)
        m[0][0][0] *= 1.001
        return m
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 1.001 + 1e-3
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, list) and value and isinstance(value[0], float):
        return [value[0] * 1.001 + 1e-3] + value[1:]
    raise TypeError(f"no perturbation for {key}={value!r}")


def tampered_reports(job: list[str], doc: dict):
    """(expected failure reason, returncode, stdout) of every tampering of
    one report; the reason names the check of the checker that must fire."""
    yield "exit status 1", 1, json.dumps(doc)
    yield "unparsable JSON", 0, json.dumps(doc)[:-1]
    bad = copy.deepcopy(doc)
    del bad["checks"][-1]
    yield "checks [", 0, json.dumps(bad)
    _, table = checker.table_for(job)
    for i, check in enumerate(doc["checks"]):
        bad = copy.deepcopy(doc)
        bad["checks"][i]["status"] = "fail"
        yield f"{check['name']}: status", 0, json.dumps(bad)
        for key, _ in table[check["name"]]:
            bad = copy.deepcopy(doc)
            bad["checks"][i]["data"][key] = perturb(key, check["data"][key])
            yield f"{check['name']}: {key}", 0, json.dumps(bad)


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    problems = []
    cases = 0
    for job in JOBS:
        p = run.Proc(run.cli_cmd(job), "selftest")
        why = checker.failures(job, p.returncode, p.stdout)
        cases += 1
        if why:
            problems.append(f"genuine report of {' '.join(job)} rejected: {why}")
            continue
        doc = json.loads(p.stdout)
        for reason, rc, text in tampered_reports(job, doc):
            cases += 1
            if not any(r.startswith(reason) for r in checker.failures(job, rc, text)):
                problems.append(f"{' '.join(job)}: tampering for {reason!r} not caught by that check")
        print(f"ok  {' '.join(job)}: genuine report passes, every tampering fails")

    seed = min(run.NONCONVERGING_PAIRING_SEEDS)
    job = ["pairing", "--seed", str(seed)]
    p = run.Proc(run.cli_cmd(job), "selftest")
    cases += 1
    if checker.failures(job, p.returncode, p.stdout):
        print(f"ok  {' '.join(job)}: counted as failed (exit {p.returncode}, known program defect)")
    else:
        problems.append(f"{' '.join(job)} passed; drop it from run.NONCONVERGING_PAIRING_SEEDS")

    job = ["basis", "--d", "4"]
    counts = []
    for _ in range(2):
        trace_file = run.OUT / "selftest-trace.json"
        run.Proc(run.python_cmd(str(run.HERE / "tracer.py"), str(trace_file), "--", *job), "selftest")
        doc = json.loads(trace_file.read_text())
        summary = tracer.summarize(doc["spans"], doc["counts"])
        counts.append({k: v for k, v in summary.items() if not k.endswith("_s")})
        names = {s[0] for s in doc["spans"]}
        parents = {(doc["spans"][s[3]][0], s[0]) for s in doc["spans"] if s[3] >= 0}
    cases += 1
    if counts[0] != counts[1]:
        problems.append(f"traced counts differ between runs: {counts}")
    elif ("cli.run_basis", "exactlin.rank") not in parents or "exactlin.QMatrix.mul_vector" not in names:
        problems.append("calls through names imported by cli are not traced")
    else:
        print(f"ok  traced {' '.join(job)} twice: identical counts {counts[0]}")

    for msg in problems:
        print(f"FAIL {msg}")
    print(f"{cases} cases, {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
