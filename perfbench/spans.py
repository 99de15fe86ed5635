"""Out-of-program spans around the public functions of each pcqg layer.

The tracer wraps functions from outside the package: it rebinds each target
in every loaded ``pcqg.*`` namespace that holds it (and on the class, for
methods), and puts the originals back on exit.  Nothing under ``src/``
changes.  Spans stay in memory as (name, start, end, parent, job) tuples
until the run ends.  Scalar helpers called per lattice point (``tau``,
``weight_w``) are counted, not timed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Sizes recorded at the layer boundary, from the call's arguments or result.


def _basis(counts, window):
    counts["windowed.basis_size.max"] = max(counts["windowed.basis_size.max"], window.size)


def _after_matmul(counts, args, kwargs, result):
    n = args[0].window.size
    counts["windowed.dense_flops"] += 8 * n**3
    _basis(counts, args[0].window)


def _after_relation_residual(counts, args, kwargs, result):
    terms = args[0]
    window = terms[0][1][0].window
    n = window.size
    # one dense n x n complex product per operator of each word (from identity)
    counts["windowed.dense_flops"] += 8 * n**3 * sum(len(word) for _, word in terms)
    interior = 1
    for axis, (lo, hi) in zip(window.axes, result.margins):
        interior *= max(0, axis.size - lo - hi)
    counts["windowed.interior_columns"] += interior
    counts["windowed.columns"] += n
    _basis(counts, window)


def _after_window_arg(counts, args, kwargs, result):
    _basis(counts, kwargs.get("window", args[-1]))


def _after_reduce_word(counts, args, kwargs, result):
    counts["words.reduce_word.steps"] += result.steps


def _after_instance_arg(counts, args, kwargs, result):
    counts["fdpcqg.dim.max"] = max(counts["fdpcqg.dim.max"], args[0].dim)


# (span name, module, attribute, hook).  "Class.method" attributes are
# patched on the class; several targets may share one span name.
SPANS = (
    ("cli.main", "cli", "main", None),
    ("windowed.relation_residual", "windowed", "relation_residual", _after_relation_residual),
    ("windowed.matmul", "windowed", "WindowedOperator.__matmul__", _after_matmul),
    ("windowed.shift_op", "windowed", "shift_op", _after_window_arg),
    ("windowed.mul_op", "windowed", "mul_op", _after_window_arg),
    ("windowed.op_norm_bound", "windowed", "op_norm_bound", None),
    ("dynsu2.build_pi_c", "dynsu2", "build_pi_c", None),
    ("dynsu2.verify_dynsu2_relations", "dynsu2", "verify_dynsu2_relations", None),
    ("dynsu2.build_delta_images", "dynsu2", "build_delta_images", None),
    ("dynsu2.coproduct_compat_check", "dynsu2", "coproduct_compat_check", None),
    ("dynsu2.antipode_check", "dynsu2", "antipode_check", None),
    ("dynsu2.term_operator", "dynsu2", "term_operator", None),
    ("dynsu2.reduce_and_check", "dynsu2", "reduce_and_check", None),
    ("words.reduce_word", "words", "reduce_word", _after_reduce_word),
    ("words.parse_word", "words", "parse_word", None),
    ("decoupling.enumerate_irreps", "decoupling", "enumerate_irreps", None),
    ("decoupling.build_pi_ST", "decoupling", "build_pi_ST", None),
    ("decoupling.support_residual", "decoupling", "support_residual", None),
    ("decoupling.grading_residuals", "decoupling", "grading_residuals", None),
    ("decoupling.round_trip_residuals", "decoupling", "round_trip_residuals", None),
    ("decoupling.spec_omega_brute_force", "decoupling", "spec_omega_brute_force", None),
    ("uqsu11.build_pi_T", "uqsu11", "build_pi_T", None),
    ("uqsu11.verify_uqsu11_relations", "uqsu11", "verify_uqsu11_relations", None),
    ("cset.classify_irreducible_csets", "cset", "classify_irreducible_csets", None),
    ("cset.brute_force_csets", "cset", "brute_force_csets", None),
    ("fdpcqg.load", "fdpcqg", "FinitePQG.from_json_dict", None),
    ("fdpcqg.load", "fdpcqg", "FiniteGroupoid.from_json_dict", None),
    ("fdpcqg.load", "fdpcqg", "from_finite_groupoid_functions", None),
    ("fdpcqg.load", "fdpcqg", "from_finite_groupoid_algebra", None),
    ("fdpcqg.verify_axioms", "fdpcqg", "verify_axioms", _after_instance_arg),
    ("fdpcqg.haar_cesaro", "fdpcqg", "haar_cesaro", _after_instance_arg),
    ("fdpcqg.haar_linear_solve", "fdpcqg", "haar_linear_solve", _after_instance_arg),
    ("fdpcqg.haar_residuals", "fdpcqg", "haar_residuals", None),
    ("corep.regular_rep", "corep", "regular_rep", None),
    ("corep.tensor_reps", "corep", "tensor_reps", None),
    ("corep.verify_rep", "corep", "verify_rep", None),
)
COUNTED = (
    ("lattice.tau.calls", "lattice", "tau"),
    ("lattice.weight_w.calls", "lattice", "weight_w"),
)

# Per-layer metrics that read a counter rather than spans, and the one ratio
# of two counters.  Every other per-layer name is "<span>.<stat>", with stat
# one of calls, s and self_s (see Tracer.span_stats).
COUNTERS = {name for name, _, _ in COUNTED} | {
    "windowed.dense_flops",
    "windowed.basis_size.max",
    "words.reduce_word.steps",
    "fdpcqg.dim.max",
    "cli.report_bytes",
}
RATIOS = {"windowed.interior_ratio": ("windowed.interior_columns", "windowed.columns")}
SPAN_NAMES = {name for name, _, _, _ in SPANS}
SPAN_STATS = ("calls", "s", "self_s")


def metric_value(name: str, counts: Counter, stats: dict):
    """The value of one per-layer metric; ValueError for a name it cannot read."""
    if name in COUNTERS:
        return counts[name]
    if name in RATIOS:
        num, den = (counts[key] for key in RATIOS[name])
        return num / den if den else 0.0
    span, _, stat = name.rpartition(".")
    if span not in SPAN_NAMES or stat not in SPAN_STATS:
        raise ValueError(f"no span statistic or counter named {name!r}")
    return stats[span][stat] if span in stats else 0


class Tracer:
    """Installs the wrappers while active; collects spans and counters."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, job)
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._undo: list = []

    def _span(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, module, attr, make):
        mod = sys.modules[f"pcqg.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                patched = classmethod(make(original.__func__))
            else:
                patched = make(original)
            setattr(cls, meth, patched)
            self._undo.append((cls, meth, original))
            return
        original = getattr(mod, attr)
        patched = make(original)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "pcqg" or name.startswith("pcqg.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, patched)
                    self._undo.append((other, key, original))

    def __enter__(self):
        for name, module, attr, hook in SPANS:
            self._install(module, attr, lambda fn, n=name, h=hook: self._span(n, fn, h))
        for name, module, attr in COUNTED:
            self._install(module, attr, lambda fn, n=name: self._counter(n, fn))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def span_stats(self) -> dict:
        """Per span name: call count, total seconds, self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children of one span run one after another on one thread, so
        their durations add without overlap.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            st = stats[name]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - child[idx]
        return stats

    def seconds_under(self, name: str) -> float:
        """Total duration of the spans whose parent span is called `name`."""
        return sum(
            end - start
            for _, start, end, parent, _ in self.spans
            if parent >= 0 and self.spans[parent][0] == name
        )

    def per_layer(self, names_units) -> dict:
        """{name: {value, unit}} for each (name, unit) pair given."""
        stats = self.span_stats()
        return {
            name: {"value": metric_value(name, self.counts, stats), "unit": unit}
            for name, unit in names_units
        }
