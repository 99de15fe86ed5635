"""CLI contract: exit codes, JSON report shape, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcqg import cli, dynsu2
from pcqg.cli import main
from pcqg.fdpcqg import (
    CESARO_ITERATIONS,
    CESARO_STALL,
    CESARO_WINDOW,
    symmetric_groupoid,
    transitive_groupoid,
)
from pcqg.words import RuleSet

GENS = ("alpha", "beta", "gamma", "delta")
ORT = ["ort_row_1", "ort_row_2", "ort_row_cross", "ort_col_1", "ort_col_2", "ort_col_cross"]


def _family(prefix):
    return [f"{prefix}_{g}" for g in GENS]


DEFINING_LABELS = ORT + _family("id2") + _family("slide")
FULL_LABELS = ORT + _family("id2") + _family("adjoint") + _family("slide") + _family("extcom")
ANTIPODE_LABELS = [
    f"S[{name}]" for name in ORT + _family("id2") + _family("extcom")
] + ["antipode_square", "antipode_block"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


def test_csets_classify(capsys):
    code, rep = _run_json(capsys, ["csets", "classify", "--q", "0.5", "--c", "-2.5"])
    assert code == 0
    assert rep["count"] == 3
    kinds = sorted(r["kind"] for r in rep["rows"])
    assert kinds == ["minus_series", "plus_series", "trivial"]
    assert rep["config"]["q"] == 0.5


def test_csets_classify_csv(capsys):
    code, out = _run(
        capsys, ["csets", "classify", "--q", "0.5", "--c", "-2.5", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,")
    assert len(lines) == 4


def test_csv_rejected_on_nested_report(capsys):
    code = main(["spectrum", "closed", "--format", "csv"])
    capsys.readouterr()
    assert code == 2


def test_csets_compare(capsys):
    code, rep = _run_json(
        capsys, ["csets", "compare", "--q", "0.5", "--c", "-2.5", "--window", "10"]
    )
    assert code == 0
    assert rep["comparison"]["equal"] is True


def test_uq_verify(capsys):
    code, rep = _run_json(capsys, ["uq", "verify", "--q", "0.5", "--c", "-2.5"])
    assert code == 0
    assert rep["passed"] is True
    assert all(c["residual"] < 1e-10 for c in rep["checks"])
    assert rep["tolerances"]["tol"] == 1e-10


def test_dyn_verify_suites(capsys):
    base = ["dyn", "verify", "--q", "0.5", "--c", "0", "--window", "13"]
    code, rep = _run_json(capsys, base)
    assert code == 0
    assert rep["relation_count"] == 14
    assert [c["label"] for c in rep["checks"]] == DEFINING_LABELS
    code, rep = _run_json(capsys, base + ["--suite", "full"])
    assert code == 0
    assert rep["relation_count"] == 22
    assert [c["label"] for c in rep["checks"]] == FULL_LABELS


def test_dyn_antipode_labels(capsys):
    code, rep = _run_json(capsys, ["dyn", "antipode", "--window", "13"])
    assert code == 0
    assert [c["label"] for c in rep["checks"]] == ANTIPODE_LABELS


@pytest.mark.parametrize(
    "argv",
    [
        ["dyn", "verify", "--c", "nan"],
        ["dyn", "verify", "--x", "nan"],
        ["dyn", "reduce", "--word", "ab", "--c2", "nan"],
    ],
)
def test_non_finite_parameters_are_usage_errors(capsys, argv):
    code = main(argv + ["--window", "13"])
    capsys.readouterr()
    assert code == 2


def test_dyn_verify_past_the_dense_size(capsys):
    # 101 x 101 = 10201 basis vectors, beyond what a dense n x n matrix allowed
    code, rep = _run_json(capsys, ["dyn", "verify", "--window", "101", "--suite", "full"])
    assert code == 0
    assert rep["basis_size"] == 10201 and rep["relation_count"] == 22


def test_dyn_verify_rejects_even_window(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dyn", "verify", "--window", "20"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_parser_is_reused_without_carrying_state(capsys):
    """In-process calls share one parser; reports stay those of fresh calls."""
    argvs = [
        ["dyn", "verify", "--window", "13", "--suite", "full", "--c", "0.4"],
        ["dyn", "verify", "--window", "13"],
        ["dyn", "reduce", "--word", "ab'g", "--window", "13", "--c2", "-0.7"],
        ["uq", "verify", "--c", "-3.1"],
        ["csets", "classify", "--c", "-2.5", "--format", "csv"],
    ]

    def fresh(argv):
        cli._build_parser.cache_clear()
        return _run(capsys, argv)

    want = [fresh(argv) for argv in argvs]
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        for argv, expected in zip(argvs + argvs[::-1], want + want[::-1]):
            assert _run(capsys, argv) == expected
    # a non-default suite does not leak into the next call's defaults
    _run(capsys, ["dyn", "verify", "--window", "13", "--suite", "full"])
    code, rep = _run_json(capsys, ["dyn", "verify", "--window", "13"])
    assert code == 0 and rep["relation_count"] == 14 and rep["config"]["suite"] == "defining"
    # a malformed call after a good one is still a usage error
    with pytest.raises(SystemExit) as exc:
        main(["dyn", "verify", "--window", "4"])
    capsys.readouterr()
    assert exc.value.code == 2
    code, rep = _run_json(capsys, ["dyn", "verify", "--window", "13", "--c", "0.4", "--suite", "full"])
    assert (code, json.dumps(rep, indent=2, sort_keys=True) + "\n") == want[0]


def test_dyn_reduce(capsys):
    code, rep = _run_json(
        capsys,
        ["dyn", "reduce", "--q", "0.5", "--c", "0", "--word", "ab", "--window", "13"],
    )
    assert code == 0
    assert rep["idempotent"] is True
    assert all(r < 1e-9 for r in rep["oracle_residuals"])
    assert rep["tolerances"]["oracle_tol"] == 1e-9


def test_dyn_reduce_keeps_the_parsed_projections(capsys):
    code, rep = _run_json(capsys, ["dyn", "reduce", "--word", "aP(0,0)d", "--window", "13"])
    assert code == 0
    assert rep["terms"] and all("P(0,0)" in t["coeff"] for t in rep["terms"])
    assert all(r < 1e-14 for r in rep["oracle_residuals"])
    # the bare letters reduce to the same monomials, without the projection
    _, bare = _run_json(capsys, ["dyn", "reduce", "--word", "ad", "--window", "13"])
    assert [t["monomial"] for t in bare["terms"]] == [t["monomial"] for t in rep["terms"]]
    assert not any("P(" in t["coeff"] for t in bare["terms"])


def test_dyn_reduce_fails_when_oracle_disagrees(capsys, monkeypatch):
    init = RuleSet.__init__

    def faulty_init(self, q):
        init(self, q)
        swapped, fn = self.swap_rules["ba"]
        self.swap_rules["ba"] = (swapped, fn.scaled(1.001))

    monkeypatch.setattr(RuleSet, "__init__", faulty_init)
    code, rep = _run_json(capsys, ["dyn", "reduce", "--word", "ba", "--window", "13"])
    assert code == 1
    assert rep["passed"] is False
    assert rep["idempotent"] is True
    assert max(rep["oracle_residuals"]) > 1e-4


def test_dyn_reduce_budget_exceeded_is_a_failed_check(capsys, monkeypatch):
    real = dynsu2.reduce_word
    monkeypatch.setattr(
        dynsu2, "reduce_word", lambda *a, **kw: real(*a, **{**kw, "step_budget": 0})
    )
    code, rep = _run_json(capsys, ["dyn", "reduce", "--word", "ba", "--window", "13"])
    assert code == 1
    assert rep["passed"] is False
    assert rep["error"] == "step budget exceeded"


def test_irreps_enumerate_off_spectrum(capsys):
    code, rep = _run_json(
        capsys, ["irreps", "enumerate", "--q", "0.5", "--x", "1", "--c", "-2.6"]
    )
    assert code == 0
    assert rep["count"] == 0


def test_irreps_build_off_spectrum_fails(capsys):
    code, rep = _run_json(
        capsys, ["irreps", "build", "--q", "0.5", "--x", "1", "--c", "-2.6"]
    )
    assert code == 1
    assert rep["passed"] is False
    assert "error" in rep


def test_irreps_build_discrete_pair(capsys):
    code, rep = _run_json(
        capsys,
        ["irreps", "build", "--q", "0.5", "--x", "1", "--c", "-4.25", "--truncation", "10"],
    )
    assert code == 0
    assert rep["bundle"]["truncated"] is True
    assert all(c["passed"] for c in rep["checks"])


def test_spectrum_compare(capsys):
    code, rep = _run_json(
        capsys,
        ["spectrum", "compare", "--q", "0.5", "--x", "1", "--grid", "40", "--window", "8"],
    )
    assert code == 0
    assert rep["mismatches"] == 0
    assert rep["checked"] >= 40


def test_report_determinism(capsys):
    argv = ["spectrum", "compare", "--q", "0.5", "--x", "0.7", "--grid", "30", "--window", "8"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "generate", "--dir", str(d)]) == 0
    return d


def test_fixtures_generate(fixture_dir, capsys):
    capsys.readouterr()
    names = sorted(os.listdir(fixture_dir))
    assert "raum.json" in names
    assert "pair2.groupoid.json" in names and "pair2_fn.json" in names
    assert len(names) == 19


def test_fdqg_check_raum(fixture_dir, capsys):
    code, rep = _run_json(capsys, ["fdqg", "check", str(fixture_dir / "raum.json")])
    assert code == 1
    assert rep["failed_axioms"] == ["D2"]
    assert "(D2): FAIL" in rep["lines"]
    assert "(D1): PASS" in rep["lines"]


def test_fdqg_check_groupoid_file(fixture_dir, capsys):
    path = str(fixture_dir / "z3.groupoid.json")
    for form in ("functions", "algebra"):
        code, rep = _run_json(capsys, ["fdqg", "check", path, "--form", form])
        assert code == 0
        assert rep["failed_labels"] == []


def test_fdqg_haar(fixture_dir, capsys):
    code, rep = _run_json(capsys, ["fdqg", "haar", str(fixture_dir / "z3.groupoid.json")])
    assert code == 0
    labels = [c["label"] for c in rep["checks"]]
    assert "routes_agree" in labels and "uniform_oracle" in labels
    assert rep["tolerances"]["agreement_tol"] == 1e-8


def test_fdqg_reps(fixture_dir, capsys):
    code, rep = _run_json(capsys, ["fdqg", "reps", str(fixture_dir / "pair2.groupoid.json")])
    assert code == 0
    assert rep["space_dims"] == {"trivial": 2, "regular": 4, "regular_x_trivial": 4}


def test_fdqg_reps_instance_file(fixture_dir, capsys):
    code, rep = _run_json(capsys, ["fdqg", "reps", str(fixture_dir / "z2_alg.json")])
    assert code == 0
    assert rep["space_dims"] == {"trivial": 1}


def test_fdqg_past_the_dense_size(tmp_path, capsys):
    # transitive(3 objects, S3), d = 54: D1 has 2916-row column sets, too big
    # for dense SVDs in test time
    gpd = transitive_groupoid(["a", "b", "c"], symmetric_groupoid(3))
    path = tmp_path / "transitive3_s3.groupoid.json"
    path.write_text(json.dumps(gpd.to_json_dict()))
    for form in ("functions", "algebra"):
        code, rep = _run_json(capsys, ["fdqg", "check", str(path), "--form", form])
        assert code == 0
        assert rep["dim"] == 54 and rep["failed_axioms"] == []
        d1 = next(c for c in rep["checks"] if c["label"] == "D1")
        assert d1["detail"] == "ranks 972/972/972"
    code, rep = _run_json(capsys, ["fdqg", "haar", str(path), "--method", "solve"])
    assert code == 0
    assert rep["solve_diagnostics"]["rank"] == rep["solve_diagnostics"]["n_unknowns"] == 54


@pytest.mark.parametrize(
    "source, value, error",
    [
        ("pair2_fn.json", 0.0, "corner trace is degenerate at (0, 0)"),
        ("raum.json", 0.5, "corner trace is not corner-supported at (0, 0)"),
    ],
)
def test_haar_on_axiom_breaking_instance_is_a_failed_check(
    fixture_dir, tmp_path, capsys, source, value, error
):
    # well-formed files whose first structure constant breaks the axioms:
    # the Cesaro seed fails at corner 0, which is a failed check, not exit 2
    data = json.loads((fixture_dir / source).read_text())
    data["mult"][0][3] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, rep = _run_json(capsys, ["fdqg", "haar", str(path)])
    assert code == 1 and rep["passed"] is False
    failed = {c["label"]: c for c in rep["checks"] if not c["passed"]}
    assert failed["cesaro::corner_trace"]["detail"] == error
    assert "cesaro::I1" in failed
    assert rep["cesaro_diagnostics"]["errors"] == [error]
    assert rep["cesaro_diagnostics"]["corners"]["0"] == {"iterations": 0, "converged": False}


@pytest.mark.parametrize(
    "argv, failed_check",
    [
        (["check"], "D2"),
        (["haar", "--method", "solve"], "solve::finite"),
        (["haar", "--method", "cesaro"], "cesaro::support"),
        (["haar", "--method", "both"], "solve::finite"),
    ],
)
def test_overflowing_constant_is_a_failed_check(fixture_dir, tmp_path, argv, failed_check):
    # a structure constant of 1e300 overflows the corner projections; fed to
    # LAPACK, inf and nan can keep an SVD from converging or a least-squares
    # solve from returning, so the CLI runs in a subprocess with a timeout: a
    # hang fails the test instead of stalling the suite
    data = json.loads((fixture_dir / "pair2_fn.json").read_text())
    data["mult"][0][3] = 1e300
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pcqg.cli", "fdqg", argv[0], str(path), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    report = json.loads(proc.stdout)
    failed = {c["label"]: c for c in report["checks"] if not c["passed"]}
    assert failed_check in failed
    if argv[0] == "check":
        for label in ("D1", "D2"):
            assert failed[label]["detail"] == "non-finite column sets"
    elif "solve::finite" in failed:
        assert failed["solve::finite"]["detail"] == "non-finite invariance system"
    if "cesaro_diagnostics" in report:
        # corner 0's state is NaN, and a NaN residual fails its check rather
        # than being dropped by a running maximum; corner 1 (unit e3) never
        # meets the overflowing constant and converges
        assert "cesaro::I1" in failed
        corners = report["cesaro_diagnostics"]["corners"]
        assert corners["0"]["converged"] is False
        assert math.isnan(corners["0"]["residual"])
        assert corners["1"] == {
            "converged": True, "iterations": 0, "residual": 0.0, "residual_trace": [0.0]
        }


def test_stalled_cesaro_run_is_a_failed_check(fixture_dir, tmp_path):
    # a revalued coproduct entry leaves corner 0 with no invariant state:
    # its averages stop improving, and the run stops there instead of
    # spending CESARO_ITERATIONS convolutions (about a second); a subprocess
    # with a timeout, so a run that does not stop fails the test
    data = json.loads((fixture_dir / "z3_fn.json").read_text())
    data["coproduct"][0][3] = 2.0
    path = tmp_path / "stalled.json"
    path.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "pcqg.cli", "fdqg", "haar", str(path), "--method", "cesaro"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    corner = report["cesaro_diagnostics"]["corners"]["0"]
    assert corner["stalled"] is True and corner["converged"] is False
    assert corner["iterations"] < CESARO_ITERATIONS
    # no new lowest residual in the last CESARO_STALL averages
    trace = corner["residual_trace"]
    assert len(trace) > CESARO_STALL and min(trace[-CESARO_STALL:]) >= min(trace[:-CESARO_STALL])
    assert corner["iterations"] == CESARO_WINDOW * (len(trace) - 1)
    failed = {c["label"]: c for c in report["checks"] if not c["passed"]}
    assert failed["cesaro::converged"]["residual"] == corner["residual"]
    assert failed["cesaro::converged"]["detail"].endswith(", stalled")


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize(
    "argv, patched, failed_checks",
    [
        (["check"], "svd", {"D1", "D2"}),
        (["haar", "--method", "solve"], "lstsq", {"solve::finite"}),
        (["haar", "--method", "solve"], "svd", {"solve::finite"}),
    ],
)
def test_linalg_error_is_a_failed_check(fixture_dir, capsys, monkeypatch, argv, patched, failed_checks):
    # a LinAlgError is a ValueError, which the CLI keeps for malformed input
    # (exit 2); raised inside a check, it fails that check (exit 1)
    monkeypatch.setattr(np.linalg, patched, _raise_linalg_error)
    code = main(["fdqg", argv[0], str(fixture_dir / "pair2_fn.json"), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    failed = {c["label"]: c for c in json.loads(captured.out)["checks"] if not c["passed"]}
    assert failed_checks <= set(failed)
    for label in failed_checks:
        assert failed[label]["detail"] == "LinAlgError: SVD did not converge"


def test_crash_exits_3_with_one_line(fixture_dir, capsys, monkeypatch):
    # an exception that is neither a check's failure nor bad input (out of
    # memory, say) must not read as a failed check (exit 1)
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 30.5 GiB")

    monkeypatch.setattr(cli, "verify_axioms", out_of_memory)
    code = main(["fdqg", "check", str(fixture_dir / "pair2_fn.json")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 3
    assert captured.out == ""
    assert captured.err == "error: MemoryError: Unable to allocate 30.5 GiB\n"


def _set_mult_index(d):
    d["mult"][0][0] = 7


def _unknown_unit_object(d):
    key = sorted(d["units"])[0]
    d["units"]["nowhere|" + key.split("|")[1]] = d["units"].pop(key)


def _drop_units(d):
    del d["units"]


def _negative_coproduct_index(d):
    d["coproduct"][0][1] = -1


def _nan_constant(d):
    d["mult"][0][3] = float("nan")


def _list_object_name(d):
    d["objects"][0] = [1, 2]


def _list_basis_name(d):
    d["basis"][1] = ["1>2"]


def _duplicate_basis_name(d):
    d["basis"][1] = d["basis"][0]


def _numeric_string_constant(d):
    d["star"][0][0] = "1.0"


def _drop_inverse(d):
    del d["inverse"]


def _drop_compose(d):
    del d["compose"]


def _drop_arrow_id(d):
    del d["arrows"][0]["id"]


def _drop_arrow_src(d):
    del d["arrows"][1]["src"]


def _separator_in_object_name(d):
    """Object "1" renamed "x|y": a valid groupoid, but no instance file could
    key its units."""
    rename = lambda o: "x|y" if o == "1" else o
    d["objects"] = [rename(o) for o in d["objects"]]
    for arrow in d["arrows"]:
        arrow["src"], arrow["tgt"] = rename(arrow["src"]), rename(arrow["tgt"])
    d["identities"] = {rename(o): g for o, g in d["identities"].items()}


# these mutate the groupoid file, the others the instance dump
GROUPOID_MUTATIONS = (
    _drop_inverse, _drop_compose, _drop_arrow_id, _drop_arrow_src, _separator_in_object_name,
)


@pytest.mark.parametrize("mode", ["check", "haar"])
@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set_mult_index, "mult"),
        (_unknown_unit_object, "units"),
        (_drop_units, "units"),
        (_negative_coproduct_index, "coproduct"),
        (_nan_constant, "mult"),
        (_list_object_name, "objects"),
        (_list_basis_name, "basis"),
        (_duplicate_basis_name, "basis: duplicate"),
        (_numeric_string_constant, "star"),
        (_drop_inverse, "inverse"),
        (_drop_compose, "compose"),
        (_drop_arrow_id, "'id'"),
        (_drop_arrow_src, "'src'"),
        (_separator_in_object_name, "'x|y'"),
    ],
)
def test_malformed_instance_is_usage_error(fixture_dir, tmp_path, capsys, mode, mutate, field):
    source = "pair2.groupoid.json" if mutate in GROUPOID_MUTATIONS else "pair2_fn.json"
    data = json.loads((fixture_dir / source).read_text())
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["fdqg", mode, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("text", ["5", "[]", '"arrows"'])
def test_non_object_file_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["fdqg", "check", str(path)])
    assert code == 2
    assert "expected a JSON object" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    code = main(["fdqg", "check", "/nonexistent/raum.json"])
    capsys.readouterr()
    assert code == 2


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, rep = _run_json(
        capsys, ["csets", "classify", "--q", "0.5", "--c", "0", "--out", str(out)]
    )
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == rep
