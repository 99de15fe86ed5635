"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The two full-command tests run every workload for one round each, traced
and untraced, and take about a minute on two cores.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(tmp_root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_every_metric_with_its_unit(trace, section):
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(jobs.WORKLOADS)
    proc = _command(ROOT, "--workload", "all", "--seed", "7", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    want = {f"{w}.{m['name']}": m["unit"] for w in names for m in SPEC[section]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == want
    envs = {
        line[2:].split(" env ", 1)[0]: json.loads(line.split(" env ", 1)[1])
        for line in proc.stdout.splitlines()[:-1]
        if " env " in line
    }
    assert sorted(envs) == sorted(names)
    for env in envs.values():
        assert {"nproc", "python", "numpy", "blas", "blas_threads", "seed"} <= set(env)
    # the largest window-25 verify and pair6 reports state n and d; in the
    # traced round the tracer also records the n of the rewriter's bundles
    assert envs["windowed_battery"]["max_basis_n"] == 625
    assert envs["finite_strand"]["max_algebra_d"] == 36
    assert envs["finite_strand"]["max_basis_n"] is None
    assert envs["rewriter_oracle"]["max_basis_n"] == (169 if trace else None)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, "--workload", "rewriter_oracle", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _in_process(monkeypatch, round_jobs):
    """run.main with the workload process replaced by an in-process call."""
    fake = jobs.Workload("rewriter_oracle", lambda rng, workdir: list(round_jobs), jobs.rewriter_warmup, 95)
    monkeypatch.setitem(jobs.WORKLOADS, "rewriter_oracle", fake)

    def run_here(args, deadline):
        out = io.StringIO()
        with redirect_stdout(out):
            code = workload.main([
                "--workload", args.workload_name, "--seed", str(args.seed),
                "--seconds", "0", "--t0", "0",
            ])
        assert code == 0
        return json.loads(out.getvalue().strip().splitlines()[-1])

    monkeypatch.setattr(run, "run_workload", run_here)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "rewriter_oracle", "--seed", "3", "--seconds", "0", "--trace", "0"])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_wrong_expected_verdict_counts_as_failed_and_exits_nonzero(monkeypatch):
    good = jobs.Job(("csets", "classify", "--c", "-2.5"))
    code, result = _in_process(monkeypatch, [good, good])
    assert code == 0 and result["failed"] == 0 and result["correct"] is True

    wrong = jobs.Job(("csets", "classify", "--c", "-2.5"), fields={"count": -1})
    code, result = _in_process(monkeypatch, [good, wrong])
    assert code == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_verdict_checks_exit_code_and_passed_flag():
    job = jobs.Job(("fdqg", "check", "raum.json"), code=1, fields={"failed_axioms": ["D2"]})
    report = {"passed": False, "failed_axioms": ["D2"]}
    assert workload.verdict_problem(job, 1, report) is None
    assert "exit code" in workload.verdict_problem(job, 0, report)
    assert "JSON" in workload.verdict_problem(job, 1, None)
    assert "disagrees" in workload.verdict_problem(job, 1, {"passed": True, "failed_axioms": ["D2"]})
    assert "failed_axioms" in workload.verdict_problem(job, 1, {"passed": False, "failed_axioms": []})


def test_same_seed_gives_same_inputs_and_another_seed_other_inputs(tmp_path):
    for name in ("windowed_battery", "rewriter_oracle"):
        w = jobs.WORKLOADS[name]
        first = jobs.round_jobs(w, 5, 0, "work")
        assert first and first == jobs.round_jobs(w, 5, 0, "work")
        assert first != jobs.round_jobs(w, 6, 0, "work")

    sys.path.insert(0, str(ROOT / "src"))
    from pcqg import cli

    def generated(seed, where):
        with redirect_stdout(io.StringIO()):
            jobs.write_finite_inputs(seed, str(where), cli.main)
        return [p.read_text() for p in sorted((where / "generated").iterdir())]

    first = generated(5, tmp_path / "a")
    assert first == generated(5, tmp_path / "b")
    assert first != generated(6, tmp_path / "c")


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import pcqg.cli
    import pcqg.dynsu2
    import pcqg.windowed
    from spans import Tracer

    before = (pcqg.windowed.relation_residual, pcqg.dynsu2.relation_residual, pcqg.cli.main)
    matmul = pcqg.windowed.WindowedOperator.__dict__["__matmul__"]
    with Tracer() as tracer:
        assert pcqg.dynsu2.relation_residual is not before[1]
        with redirect_stdout(io.StringIO()):
            assert pcqg.cli.main(["dyn", "verify", "--window", "7"]) == 0
    assert (pcqg.windowed.relation_residual, pcqg.dynsu2.relation_residual, pcqg.cli.main) == before
    assert pcqg.windowed.WindowedOperator.__dict__["__matmul__"] is matmul
    stats = tracer.span_stats()
    assert stats["cli.main"]["calls"] == 1
    assert stats["windowed.relation_residual"]["calls"] == 22
    assert 0 < stats["cli.main"]["self_s"] < stats["cli.main"]["s"]
    layers = tracer.seconds_under("cli.main")
    assert layers == pytest.approx(stats["cli.main"]["s"] - stats["cli.main"]["self_s"])


def test_every_per_layer_name_is_a_span_statistic_or_a_counter():
    from collections import Counter

    from spans import metric_value

    for m in SPEC["per_layer"]:
        if not m["name"].startswith("trace."):
            assert metric_value(m["name"], Counter(), {}) == 0
    with pytest.raises(ValueError):
        metric_value("windowed.matmul.p99", Counter(), {})
    with pytest.raises(ValueError):
        metric_value("windowed.no_such_function.s", Counter(), {})
