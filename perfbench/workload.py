"""One workload in one process: set up, then run timed or traced jobs.

Started by run.py, which passes the CLOCK_MONOTONIC time at which it spawned
this process, so that setup_s counts interpreter start, imports, input files
and one warm-up job per job kind.  Jobs run one at a time through
``pcqg.cli.main(argv)`` in this process, with stdout captured; each report is
checked against the job's expected exit code and verdict.  The last stdout
line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import jobs as jobs_mod

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Outcome:
    ok: bool
    wall: float
    report_bytes: int
    dim: int  # algebra dimension from the report, 0 if it has none
    basis_n: int  # windowed basis size from the report, 0 if it has none
    problem: str = ""


def report_basis_n(report: dict) -> int:
    """The windowed basis size a report states, 0 if it states none.

    `dyn verify` gives basis_size; `irreps build` gives its bundle's window.
    """
    if "basis_size" in report:
        return report["basis_size"]
    axes = report.get("bundle", {}).get("window", {}).get("axes", ())
    return math.prod(ax["n_max"] - ax["n_min"] + 1 for ax in axes) if axes else 0


def verdict_problem(job, code, report):
    """Why a finished job's exit code or parsed report is wrong, or None."""
    if code != job.code:
        return f"exit code {code}, expected {job.code}"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    if report.get("passed") is not (code == 0):
        return f"passed={report.get('passed')!r} disagrees with exit code {code}"
    for key, want in job.fields.items():
        if report.get(key) != want:
            return f"{key}={report.get(key)!r}, expected {want!r}"
    if job.kind == "dyn reduce" and not max(report["oracle_residuals"]) < jobs_mod.ORACLE_TOL:
        return f"oracle residual {max(report['oracle_residuals'])!r} >= {jobs_mod.ORACLE_TOL}"
    return None


def run_job(cli, job) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except (Exception, SystemExit) as exc:
        wall = time.perf_counter() - start
        return Outcome(False, wall, 0, 0, 0, f"raised {type(exc).__name__}: {exc} {err.getvalue()}")
    wall = time.perf_counter() - start
    text = out.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    problem = verdict_problem(job, code, report)
    if problem is not None:
        return Outcome(False, wall, len(text.encode()), 0, 0, problem)
    return Outcome(True, wall, len(text.encode()), report.get("dim", 0), report_basis_n(report))


class Tally:
    """Outcomes of the jobs a phase ran."""

    def __init__(self):
        self.walls: list = []
        self.failed = 0
        self.problems: list = []
        self.max_n = 0
        self.max_d = 0
        self.report_bytes = 0

    def add(self, job, outcome: Outcome) -> None:
        self.walls.append(outcome.wall)
        self.report_bytes += outcome.report_bytes
        self.max_n = max(self.max_n, outcome.basis_n)
        self.max_d = max(self.max_d, outcome.dim)
        if not outcome.ok:
            self.failed += 1
            self.problems.append(f"{' '.join(job.argv)}: {outcome.problem}")


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile, inclusive of the extremes."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def environment(seed: int, tally: Tally, traced: dict) -> dict:
    """The machine and sizes behind a result.  Basis size n and algebra
    dimension d are the largest that the reports state, or that the traced
    round recorded; a run whose reports state no n gives null for it."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "max_basis_n": max(tally.max_n, traced.get("windowed.basis_size.max", 0)) or None,
        "max_algebra_d": max(tally.max_d, traced.get("fdpcqg.dim.max", 0)) or None,
    }


def set_up(workload, seed: int, workdir: str):
    """Imports, input files and one warm-up job per kind; returns cli, tally."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from pcqg import cli

    if workload.write_inputs is not None:
        with contextlib.redirect_stdout(io.StringIO()):
            workload.write_inputs(seed, workdir, cli.main)
    warm = Tally()
    for job in workload.warmup(workdir):
        warm.add(job, run_job(cli, job))
    return cli, warm


def timed_phase(cli, workload, seed: int, seconds: float, workdir: str) -> tuple:
    """Whole rounds until `seconds` have passed; returns (tally, elapsed)."""
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while True:
        for job in jobs_mod.round_jobs(workload, seed, index, workdir):
            tally.add(job, run_job(cli, job))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return tally, elapsed


def end_to_end(workload, tally: Tally, elapsed: float) -> dict:
    walls = tally.walls
    return {
        "jobs_per_s": {"value": len(walls) / elapsed, "unit": "jobs/s"},
        "job_s.p50": {"value": statistics.median(walls), "unit": "s"},
        "job_s.tail": {"value": percentile(walls, workload.tail_pct), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def traced_phase(cli, workload, seed: int, workdir: str) -> tuple:
    """Round 0 traced, then the same jobs untraced; returns (tally, metrics)."""
    from spans import Tracer

    round0 = jobs_mod.round_jobs(workload, seed, 0, workdir)
    tally = Tally()
    with Tracer() as tracer:
        for i, job in enumerate(round0):
            tracer.job = i
            tally.add(job, run_job(cli, job))
    traced_s = sum(tally.walls)
    tracer.counts["cli.report_bytes"] = tally.report_bytes
    for job in round0:
        tally.add(job, run_job(cli, job))
    metrics = tracer.per_layer(
        (m["name"], m["unit"]) for m in SPEC["per_layer"] if not m["name"].startswith("trace.")
    )
    metrics["trace.overhead_ratio"] = {
        "value": (sum(tally.walls) - traced_s) / traced_s,
        "unit": "ratio",
    }
    # job wall minus the layer spans called from cli.main
    metrics["trace.unattributed_s"] = {
        "value": traced_s - tracer.seconds_under("cli.main"),
        "unit": "s",
    }
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = jobs_mod.WORKLOADS[args.workload]
    workdir = str(ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cli, warm = set_up(workload, args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        if warm.failed:
            print("\n".join(warm.problems), file=sys.stderr)
            return 1
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        traced = {}
        if args.trace:
            tally, metrics = traced_phase(cli, workload, args.seed, workdir)
            traced = {name: metric["value"] for name, metric in metrics.items()}
        else:
            tally, elapsed = timed_phase(cli, workload, args.seed, args.seconds, workdir)
            metrics = end_to_end(workload, tally, elapsed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))
    result = {
        "setup_s": setup_s,
        "attempted": len(tally.walls),
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "tail_pct": workload.tail_pct,
        "metrics": metrics,
        "env": environment(args.seed, tally, traced),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
