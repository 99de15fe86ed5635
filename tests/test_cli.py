"""CLI contract: exit codes, JSON report shape, determinism."""

import json
import os

import pytest

from pcqg import dynsu2
from pcqg.cli import main
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


def test_dyn_verify_rejects_even_window(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dyn", "verify", "--window", "20"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_dyn_reduce(capsys):
    code, rep = _run_json(
        capsys,
        ["dyn", "reduce", "--q", "0.5", "--c", "0", "--word", "ab", "--window", "13"],
    )
    assert code == 0
    assert rep["idempotent"] is True
    assert all(r < 1e-9 for r in rep["oracle_residuals"])
    assert rep["tolerances"]["oracle_tol"] == 1e-9


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
