"""Time-to-verdict benchmark for the hodge-degen CLI.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (``src/hodge_degen`` must exist).
Each job is a fresh ``python -m hodge_degen.cli --format json ...``
process, one at a time, and every report is verified by ``checker.py``
against answers derived independently of the program.  A pass runs all
jobs of the workload once.

With ``--trace 0`` every job runs once, then the long jobs again until
``--seconds`` have gone, and the last stdout line holds the end-to-end
metrics: a pass's time is the sum of each job's median, and each timing
sample is divided by the runs of the fixed reference job
``calibrate.py`` next to it, so that it reads as seconds on the
reference host (see ``measure``).  With ``--trace 1`` it holds the
per-layer metrics of traced passes (see ``tracer.py``).  Each run also
writes its full record, with the environment, to ``perfbench/out/``.
The metrics and workloads are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checker
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 11

# Stream markers of measure(), next to the job indices.
SETUP, CALIBRATION = -1, -2
# What calibrate.py prints, and its median wall and CPU time on the
# reference host (2-vCPU Intel Xeon VM, Python 3, numpy installed).
# Normalised timings are seconds on that host.
CALIBRATION_OUTPUT = '{"rank": 40, "checksum": 477514}'
CALIBRATION_WALL_S = 0.33
CALIBRATION_CPU_S = 0.45

JOB_TIMEOUT_S = 120.0
PAIRING_SEEDS = 3

# `pairing --seed s` raises ExtrapolationError (exit 1) for these seeds in
# 0..299 in the code this benchmark was written against: a defect of the
# convergence test in limits.limit_of_pairing, not of the benchmark.  The periods workload
# draws its pairing seeds from the rest of 0..299, so that its timings
# measure completed verdicts; selftest.py shows the checker counts such a
# crash as a failed job.
NONCONVERGING_PAIRING_SEEDS = frozenset({10, 25, 38, 48, 91, 113, 168, 177, 195, 198, 232})
PAIRING_SEED_POOL = [s for s in range(300) if s not in NONCONVERGING_PAIRING_SEEDS]


WORKLOADS = ("lattice", "residues", "periods")


def workload_jobs(name: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one pass.  Only `periods` uses the seed."""
    if name == "lattice":
        return [["basis", "--d", str(d)] for d in range(2, 10)]
    if name == "residues":
        return [
            ["sing", "--d", str(d), "--family", fam] for d in range(3, 8) for fam in ("all", "delta")
        ]
    if name == "periods":
        seeds = random.Random(seed).sample(PAIRING_SEED_POOL, PAIRING_SEEDS)
        return [["aj", "--oracle"]] + [["pairing", "--seed", str(s)] for s in seeds]
    raise ValueError(f"unknown workload {name!r}")


def child_env() -> dict:
    """The caller's environment with src/ on the path.  Byte code is always
    cached, as for an installed package, whatever the caller's setting."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Proc:
    """Outcome of one child process, with its own rusage from wait4."""

    def __init__(self, cmd: list[str], tag: str):
        out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            watchdog = threading.Timer(JOB_TIMEOUT_S, p.kill)
            watchdog.start()
            status = None
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                watchdog.cancel()
                if status is None:  # interrupted: leave no child running
                    p.kill()
                    p.wait()
            self.wall_s = time.perf_counter() - start
        p.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.maxrss_mb = ru.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def cli_cmd(job: list[str]) -> list[str]:
    return python_cmd("-m", "hodge_degen.cli", "--format", "json", *job)


class Tally:
    """Attempted and failed jobs, with the first reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, job: list[str], returncode: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        why = checker.failures(job, returncode, stdout)
        if why:
            self.failed += 1
            if len(self.reasons) < 20:
                tail = stderr.strip().splitlines()[-1:] if stderr else []
                self.reasons.append(f"{' '.join(job)}: {'; '.join(why + tail)}")


def run_traced_pass(jobs: list[list[str]], tally: Tally) -> tuple[float, float, dict, list]:
    """Each job untraced, then at once traced, so that both see the same
    machine.  Returns (untraced wall, traced wall, layer metrics, spans)."""
    plain = traced = 0.0
    layers: dict = {}
    spans = []
    trace_file = OUT / "trace.json"
    for job in jobs:
        p = Proc(cli_cmd(job), "job")
        tally.record(job, p.returncode, p.stdout, p.stderr)
        plain += p.wall_s
        trace_file.unlink(missing_ok=True)
        p = Proc(python_cmd(str(HERE / "tracer.py"), str(trace_file), "--", *job), "traced")
        traced += p.wall_s
        if p.returncode != 0 or not trace_file.exists():
            tally.record(job, p.returncode or 1, "", p.stderr)
            continue
        doc = json.loads(trace_file.read_text())
        tally.record(job, doc["rc"], doc["stdout"], p.stderr)
        for k, v in tracer.summarize(doc["spans"], doc["counts"]).items():
            layers[k] = layers.get(k, 0) + v
        spans.append({"job": job, "spans": doc["spans"]})
    distinct_d = {job[job.index("--d") + 1] for job in jobs if "--d" in job}
    builds = layers.get("degeneration.kernel_basis_builds", 0)
    layers["degeneration.kernel_basis_builds_per_d"] = builds / len(distinct_d) if distinct_d else 0.0
    return plain, traced, layers, spans


def import_probe() -> dict:
    """Cumulative import time of hodge_degen (top-level entries) and numpy."""
    p = Proc(python_cmd("-X", "importtime", "-c", "import hodge_degen.cli"), "importtime")
    if p.returncode != 0:
        raise RuntimeError(f"import probe failed: {p.stderr.strip()[-500:]}")
    pkg = numpy = 0
    for line in p.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2]
        module = name.strip()
        if module == "numpy":
            numpy = cumulative
        if (module == "hodge_degen" or module.startswith("hodge_degen.")) and name == " " + module:
            pkg += cumulative  # top-level (not nested) hodge_degen entries
    return {"import.hodge_degen_s": pkg * 1e-6, "import.numpy_s": numpy * 1e-6}


def setup_sample() -> Proc:
    p = Proc(python_cmd("-m", "hodge_degen.cli", "--help"), "setup")
    if p.returncode != 0:
        raise RuntimeError(f"CLI does not start: {p.stderr.strip()[-500:]}")
    return p


def git_commit() -> str:
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def calibration_sample() -> Proc:
    """One run of calibrate.py, the fixed reference job."""
    p = Proc(python_cmd(str(HERE / "calibrate.py")), "calibrate")
    if p.returncode != 0 or p.stdout.strip() != CALIBRATION_OUTPUT:
        raise RuntimeError(f"calibrate.py misbehaved: {p.stdout.strip()!r} {p.stderr.strip()[-500:]}")
    return p


def measure(jobs, seconds: float, tally: Tally) -> tuple[dict, dict, dict]:
    """Run every job once, then more samples of the jobs that narrow the
    estimate of a pass most, while a job, the calibration run after it and
    the setup samples still due are expected (from their medians so far)
    to end within `seconds`.

    A run of calibrate.py comes first and after every job and every
    setup sample, so each sample has one calibration run just before and
    one just after it.  The host's speed drifts by tens of percent over
    seconds to minutes on a shared machine, and a job and the
    calibration runs next to it see nearly the same host; so each
    sample is divided by the mean of its two neighbours' times (wall by
    wall, CPU by CPU) and scaled to the reference host (CALIBRATION_*_S).

    A pass's time is estimated job by job, as the sum over jobs of each
    job's median normalised time.  setup_s samples are spread evenly
    over the run: sample k is taken before the first job that starts
    after k/SETUP_SAMPLES of `seconds`; any missing ones at the end.
    """
    start = time.perf_counter()
    stream: list[tuple[int, Proc]] = []  # (job index, or SETUP / CALIBRATION; process)

    def step(kind: int, p: Proc) -> None:
        stream.append((kind, p))
        stream.append((CALIBRATION, calibration_sample()))

    stream.append((CALIBRATION, calibration_sample()))
    n = n_setup = 0
    job_wall: list[list[float]] = [[] for _ in jobs]
    while True:
        elapsed = time.perf_counter() - start
        if n_setup < SETUP_SAMPLES and elapsed >= n_setup * seconds / SETUP_SAMPLES:
            step(SETUP, setup_sample())
            n_setup += 1
            continue
        if n < len(jobs):
            i = n
        else:
            calibration_wall = statistics.median(c.wall_s for kind, c in stream if kind == CALIBRATION)
            setup_wall = statistics.median(c.wall_s for kind, c in stream if kind == SETUP)
            left = seconds - elapsed - (SETUP_SAMPLES - n_setup) * (setup_wall + calibration_wall)
            cost = [statistics.median(w) + calibration_wall for w in job_wall]
            fits = [j for j in range(len(jobs)) if cost[j] <= left]
            if not fits:
                break
            # Sample where it narrows the pass estimate most per second
            # spent: a job's spread is taken as proportional to its time t,
            # so one more sample (n -> n+1) removes t^2 / (n (n+1)) of
            # variance.  Long jobs get most samples, each job at least one.
            def gain(j: int) -> float:
                t, k = cost[j] - calibration_wall, len(job_wall[j])
                return t * t / (k * (k + 1) * cost[j])

            i = max(fits, key=gain)
        p = Proc(cli_cmd(jobs[i]), "job")
        tally.record(jobs[i], p.returncode, p.stdout, p.stderr)
        job_wall[i].append(p.wall_s)
        step(i, p)
        n += 1
    while n_setup < SETUP_SAMPLES:
        step(SETUP, setup_sample())
        n_setup += 1

    # (wall, cpu, max RSS, normalised wall, normalised cpu) per sample
    samples: dict[int, list[tuple[float, ...]]] = {}
    for k in range(1, len(stream), 2):
        kind, p = stream[k]
        before, after = stream[k - 1][1], stream[k + 1][1]
        cal_wall = (before.wall_s + after.wall_s) / 2
        cal_cpu = (before.cpu_s + after.cpu_s) / 2
        samples.setdefault(kind, []).append(
            (
                p.wall_s,
                p.cpu_s,
                p.maxrss_mb,
                p.wall_s / cal_wall * CALIBRATION_WALL_S,
                p.cpu_s / cal_cpu * CALIBRATION_CPU_S,
            )
        )
    runs = [samples[i] for i in range(len(jobs))]
    setup = samples[SETUP]
    calibration = [(c.wall_s, c.cpu_s) for kind, c in stream if kind == CALIBRATION]

    def per_job(k: int) -> list[float]:
        return [statistics.median(r[k] for r in job_runs) for job_runs in runs]

    counts = sorted({len(r) for r in runs})
    per_job_note = f"over jobs of each job's median of {'-'.join(map(str, counts))} samples"
    norm_note = ", each normalised by the calibration runs next to it"
    setup_note = f"median of {len(setup)} samples"
    metrics = {
        "wall_s": (sum(per_job(3)), "s", "sum " + per_job_note + norm_note),
        "cpu_s": (sum(per_job(4)), "s", "sum " + per_job_note + norm_note),
        "setup_s": (statistics.median(r[3] for r in setup), "s", setup_note + norm_note),
        "peak_rss_mb": (max(per_job(2)), "MB", "max " + per_job_note),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio", "1 - fail_ratio"),
    }
    raw = {
        "raw_wall_s": (sum(per_job(0)), "s", "as wall_s, not normalised"),
        "raw_cpu_s": (sum(per_job(1)), "s", "as cpu_s, not normalised"),
        "raw_setup_s": (statistics.median(r[0] for r in setup), "s", "as setup_s, not normalised"),
        "calibration_wall_s": (
            statistics.median(c[0] for c in calibration),
            "s",
            f"median of {len(calibration)} calibrate.py runs (reference {CALIBRATION_WALL_S} s)",
        ),
        "calibration_cpu_s": (
            statistics.median(c[1] for c in calibration),
            "s",
            f"median of {len(calibration)} calibrate.py runs (reference {CALIBRATION_CPU_S} s)",
        ),
    }
    record = {
        "jobs_run": n,
        "samples_per_job": [len(r) for r in runs],
        "setup_samples": len(setup),
        "calibration_samples": len(calibration),
        "job_samples_wall_cpu_rss_normwall_normcpu": runs,
        "setup_samples_wall_cpu_rss_normwall_normcpu": setup,
        "calibration_samples_wall_cpu": calibration,
        "unnormalised": {k: v for k, (v, _, _) in raw.items()},
    }
    return metrics, record, raw


def measure_traced(jobs, seconds: float, tally: Tally) -> tuple[dict, dict, list]:
    """Import probes, then traced passes while another one still fits
    into `seconds`; at least one."""
    start = time.perf_counter()
    probes = [import_probe() for _ in range(SETUP_SAMPLES)]
    plain, traced, layer_runs, spans = [], [], [], []
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1] < seconds:
        untraced_wall, traced_wall, layers, pass_spans = run_traced_pass(jobs, tally)
        plain.append(untraced_wall)
        traced.append(traced_wall)
        layer_runs.append(layers)
        spans = spans or pass_spans
    metrics = {}
    for key in layer_runs[0]:
        values = [run[key] for run in layer_runs]
        is_time = key.endswith("_s")
        if not is_time and len(set(values)) > 1:
            print(f"warning: {key} differs between traced passes: {values}", file=sys.stderr)
        if is_time:
            metrics[key] = (statistics.median(values), "s", f"median of {len(values)} traced passes")
        else:
            metrics[key] = (values[0], "ratio" if key.endswith("_per_d") else "count", "per pass")
    for key in probes[0]:
        metrics[key] = (statistics.median(p[key] for p in probes), "s", f"median of {len(probes)} samples")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain),
        "ratio",
        f"medians of {len(traced)} traced / untraced passes",
    )
    samples = {
        "passes": len(traced),
        "import_samples": len(probes),
        "traced_wall_s": traced,
        "untraced_wall_s": plain,
        "import_probe_samples": probes,
    }
    return metrics, samples, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind through Proc, which kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "hodge_degen" / "cli.py").is_file():
        print(f"error: no hodge-degen sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    jobs = workload_jobs(args.workload, args.seed)
    setup_sample()  # warm-up: compiles the byte code once, untimed
    tally = Tally()
    extra: dict = {}
    if args.trace:
        metrics, samples, spans = measure_traced(jobs, args.seconds, tally)
        span_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        span_file.write_text(json.dumps(spans))
    else:
        metrics, samples, extra = measure(jobs, args.seconds, tally)
    env = environment(args)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = dict(result, env=env, jobs=jobs, samples=samples, failures=tally.reasons)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("env: " + json.dumps(env))
    if "passes" in samples:
        print(f"{samples['passes']} traced passes of {len(jobs)} jobs")
    else:
        print(f"{samples['jobs_run']} runs of {len(jobs)} jobs, samples per job: {samples['samples_per_job']}")
    for k, (v, u, note) in {**metrics, **extra}.items():
        print(f"{k:40s} {v:14.6g} {u:6s} {note}")
    fail_ratio = tally.failed / tally.attempted
    print(f"{'fail_ratio':40s} {fail_ratio:14.6g} {'ratio':6s} {tally.failed} of {tally.attempted} jobs failed")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
