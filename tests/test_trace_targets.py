"""Every function the benchmark tracer wraps still exists.

perfbench/spans.py names its targets as (module, attribute) strings, and
`perfbench/run.py --trace 1` fails when one no longer resolves.  This reads
the two target tables without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = _spans_module()
TARGETS = sorted(
    {(module, attr) for _, module, attr, _ in SPANS.SPANS}
    | {(module, attr) for _, module, attr in SPANS.COUNTED}
)


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_target_resolves(module, attr):
    obj = importlib.import_module(f"pcqg.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
