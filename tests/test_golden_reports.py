"""Report bytes pinned across backends.

golden/reports.json holds the argv, exit code and stdout of CLI reports
produced by the per-point closure backend, the one in place before
coefficient functions became array functions: five `dyn reduce` words (two
with P(i,j) projections), `dyn verify` in both suites at window 13, `dyn
antipode`, `dyn coproduct --half 2`, `dyn xsym`, `irreps build` and `uq
verify`.  Most use a (q, x) whose lattice values are not powers of two, so
float rounding differences show.  Two more `dyn reduce` reports were added
before coefficient evaluation was shared between terms and oracles: the
six-star word b'a'd'a'd'g', the heaviest job of the rewriter benchmark,
and the six-star word a'b'g'd'b'a' at (q, x) = (0.6, 1.1).  The two
P(i,j) reports were regenerated when `dyn reduce` began reducing the
projections it parses; before, it reduced the bare letters.  A backend
change must reproduce every report byte for byte; a residual that moves
fails here.
"""

import json
import os

import pytest

from pcqg.cli import main

with open(os.path.join(os.path.dirname(__file__), "golden", "reports.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_report_bytes_unchanged(capsys, entry):
    code = main(entry["argv"])
    out = capsys.readouterr().out
    assert code == entry["code"]
    assert out == entry["stdout"]

