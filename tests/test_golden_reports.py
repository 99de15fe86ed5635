"""Report bytes pinned across backends.

golden/reports.json holds the argv, exit code and stdout of CLI reports
produced by the per-point closure backend, the one in place before
coefficient functions became array functions: five `dyn reduce` words (two
with P(i,j) projections), `dyn verify` in both suites at window 13, `dyn
antipode`, `dyn coproduct --half 2`, `dyn xsym`, `irreps build` and `uq
verify`.  Most use a (q, x) whose lattice values are not powers of two, so
float rounding differences show.  The finite-strand reports were added
before the sparse contractions of `fdqg check` were batched: `fdqg check`
on raum (a D2 failure with its witness), union_z3_s3_fn and s3x2_alg, and
`fdqg haar` and `fdqg reps` on the pair2 and union_pair_z2 groupoids.
Their inputs come from `fixtures generate` into the relative directory
`fixtures`, under a temporary working directory, so `config.path` does not
depend on where the checkout lives.  Two more `dyn reduce` reports were added
before coefficient evaluation was shared between terms and oracles: the
six-star word b'a'd'a'd'g', the heaviest job of the rewriter benchmark,
and the six-star word a'b'g'd'b'a' at (q, x) = (0.6, 1.1).  The two
P(i,j) reports were regenerated when `dyn reduce` began reducing the
projections it parses; before, it reduced the bare letters.  The sizes
the windowed benchmark runs past window 13 and `--half 2` were added before
the shift slices, operator metadata and starred letters were computed once:
`dyn verify` at window 21 (full suite) and 25, `dyn antipode` at window 17,
`dyn coproduct --half 3`, `dyn xsym` at window 21, `irreps build
--truncation 12`, `spectrum compare --grid 150` and `csets compare
--window 24`.  A backend change must reproduce every report byte for byte;
a residual that moves fails here.
"""

import contextlib
import io
import json
import os

import pytest

from pcqg.cli import main

with open(os.path.join(os.path.dirname(__file__), "golden", "reports.json")) as fh:
    GOLDEN = json.load(fh)



@pytest.fixture(scope="module")
def fixture_root(tmp_path_factory):
    """A working directory holding the `fixtures generate` files under fixtures/."""
    root = tmp_path_factory.mktemp("golden")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fixtures", "generate", "--dir", str(root / "fixtures")]) == 0
    return root


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_report_bytes_unchanged(capsys, monkeypatch, fixture_root, entry):
    monkeypatch.chdir(fixture_root)
    code = main(entry["argv"])
    out = capsys.readouterr().out
    assert code == entry["code"]
    assert out == entry["stdout"]

