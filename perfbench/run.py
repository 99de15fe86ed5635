"""pcqg benchmark: seeded workloads of CLI report jobs, one process each.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/``.  Each workload runs in a fresh process (workload.py) as one client
in a closed loop: the next job starts when the previous one has finished.
BLAS threads are pinned to the number of usable cores.

--trace 0 prints the end-to-end metrics: setup_s is the median over
SETUP_REPEATS fresh processes, half of them started before and half after
the one that goes on to run jobs, so that they sample the machine over the
whole run; the other metrics come from that one's timed phase.  --trace 1 prints the per-layer metrics
of a separate traced run.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only when
every job produced its expected exit code and verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 9
# Every run, with all of its processes, ends well inside three minutes.
DEADLINE_S = 170.0


def blas_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PCQG_THREADS"):
        env[var] = threads
    return env


def spawn(args, extra: list, deadline: float) -> dict:
    """Run workload.py in a fresh process; its last stdout line as a dict."""
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload_name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra,
    ]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=blas_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args.workload_name} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, deadline: float) -> dict:
    if args.trace:
        return spawn(args, [], deadline)
    def setup_only() -> float:
        return spawn(args, ["--setup-only"], deadline)["setup_s"]

    setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
    result = spawn(args, [], deadline)
    setups += [result["setup_s"]] + [setup_only() for _ in range(SETUP_REPEATS // 2)]
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def describe(name: str, result: dict) -> str:
    m = result["metrics"]
    parts = [f"{key} {v['value']:.6g} {v['unit']}" for key, v in sorted(m.items())]
    attempted, failed = result["attempted"], result["failed"]
    parts.append(f"job_fail_ratio {failed / attempted:.6g} fraction ({failed} of {attempted})")
    if "job_s.tail" in m:
        beyond = round(attempted * (1 - result["tail_pct"] / 100))
        parts.append(f"job_s.tail is p{result['tail_pct']:g} ({beyond} jobs beyond it)")
    return f"# {name}: " + "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pcqg" / "cli.py").is_file():
        print(f"error: no pcqg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    results = {}
    for name in names:
        args.workload_name = name
        try:
            results[name] = run_workload(args, start + DEADLINE_S * len(names))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"# {name} env {json.dumps(results[name]['env'], sort_keys=True)}")
        print(describe(name, results[name]))
        for problem in results[name]["problems"]:
            print(f"# {name} failed job: {problem}")

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
