"""The benchmark's jobs, judged by the benchmark's own tools.

Every distinct job of the workloads in ``perfbench/run.py`` must meet the
known answers of ``perfbench/checker.py``, which derives them from closed
formulas and mpmath without importing the package; and a job traced by
``perfbench/tracer.py`` must print the report of the same job untraced.
perfbench/ is read, never written: its modules are imported without
caching their byte code, and traces go to a temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hodge_degen.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

sys.path.insert(0, str(PERFBENCH))
dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import checker  # noqa: E402
from run import WORKLOADS, workload_jobs  # noqa: E402

sys.dont_write_bytecode = dont_write_bytecode

# each job once: every lattice and residues job, and the periods jobs of
# workload seeds 0, 1 and 7, whose pairing seeds differ
BENCHMARK_JOBS = list(
    dict.fromkeys(
        tuple(job)
        for name in WORKLOADS
        for seed in ((0, 1, 7) if name == "periods" else (1,))
        for job in workload_jobs(name, seed)
    )
)

# the tracer rebinds the layer functions by name; verify-all runs every layer
TRACED_JOBS = [
    ("basis", "--d", "5"),
    ("sing", "--d", "5", "--family", "all"),
    ("sing", "--d", "5", "--family", "gamma"),
    ("sing", "--d", "5", "--family", "lambda"),
    ("sing", "--d", "5", "--family", "delta"),
    ("aj",),
    ("aj", "--oracle"),
    ("pairing", "--seed", "1"),
    ("verify-all", "--seed", "0"),
]


def report(capsys, job):
    """(exit status, JSON report) of a job run in this process."""
    status = main(["--format", "json", *job])
    return status, capsys.readouterr().out


@pytest.mark.parametrize("job", BENCHMARK_JOBS, ids=" ".join)
def test_benchmark_job_meets_the_known_answers(job, capsys):
    status, out = report(capsys, job)
    assert checker.failures(list(job), status, out) == []


@pytest.mark.parametrize("job", TRACED_JOBS, ids=" ".join)
def test_traced_job_prints_the_untraced_report(job, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, str(PERFBENCH / "tracer.py"), str(trace), "--", *job]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(trace.read_text())
    assert traced["rc"] == 0
    assert traced["stdout"] == report(capsys, job)[1]
