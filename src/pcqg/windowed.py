"""Finite-window truncations of weighted shift operators.

Everything downstream (the su(1,1) representations, the dynamical SU(2)
generators, the Casimir spectrum scans) is verified on finite windows of
an exponent lattice.  The key correctness device is the *interior margin*:
a word of shift operators applied to a basis vector far enough from the
window edges computes exactly what the untruncated operator would, so a
relation residual measured on such vectors bounds the true algebraic
defect up to float noise.

Margins are per-axis and per-side because boundaries come in two kinds:
an *exact* end, where a shift genuinely terminates (weight 0), needs no
margin at all; an *artificial* cut, where an infinite lattice was
truncated, needs a margin covering the worst intermediate excursion of
the word being tested.  A generator family is a Bundle: its operators by
name, its exact ends, and margins derived from them.

Every operator is a finite sum of weighted shifts, stored as a dict
{displacement: weight grid of the window's shape}.  A product shifts one
grid and multiplies it with the other: O(#shifts * n) time and O(n) memory
per shift on a basis of size n, and little else.  Shift slices are computed
once per displacement and shape, shift metadata once per key set (memos of
integer geometry, never of grids), and the results of @, +, * and adjoint
skip the constructor's checks.  The dense n x n matrix is a view built on
request, for the multi-shift norm bound and tests; no operator is built
from one.

Weights and diagonals are array functions: mul_op and shift_op call them
once, on the window's value grids (one broadcastable array per axis), never
once per basis vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .lattice import LatticeSpec

# A grid holds 16 bytes per basis vector; windows past 2^18 points (512 x 512)
# are refused before anything is allocated.
MAX_BASIS_SIZE = 1 << 18
# Dense views are n x n; refuse them past this basis size.
MAX_DENSE_SIZE = 4096

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class WindowAxis:
    spec: LatticeSpec
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.n_max < self.n_min:
            raise ValueError("empty axis range")

    @property
    def size(self) -> int:
        return self.n_max - self.n_min + 1

    def exponents(self) -> range:
        return range(self.n_min, self.n_max + 1)


@dataclass(frozen=True)
class Window:
    """Product of exponent intervals, basis ordered lexicographically."""

    axes: tuple[WindowAxis, ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("window needs at least one axis")
        if self.size > MAX_BASIS_SIZE:
            raise ValueError(
                f"window basis size {self.size} exceeds limit {MAX_BASIS_SIZE}"
            )

    @property
    def dim(self) -> int:
        return len(self.axes)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def size(self) -> int:
        return math.prod(ax.size for ax in self.axes)

    def _axis_grids(self, per_axis) -> tuple[np.ndarray, ...]:
        """One read-only array per axis, shaped to broadcast over the window."""
        out = []
        for a, ax in enumerate(self.axes):
            shape = [1] * self.dim
            shape[a] = ax.size
            g = np.array(per_axis(ax)).reshape(shape)
            g.flags.writeable = False
            out.append(g)
        return tuple(out)

    @cached_property
    def value_grids(self) -> tuple[np.ndarray, ...]:
        """Per axis, the lattice value of each exponent (LatticeSpec.value)."""
        return self._axis_grids(lambda ax: [ax.spec.value(n) for n in ax.exponents()])

    @cached_property
    def exponent_grids(self) -> tuple[np.ndarray, ...]:
        """Per axis, the integer exponents."""
        return self._axis_grids(lambda ax: ax.exponents())

    def index_of(self, exponents: Sequence[int]) -> int:
        idx = 0
        for ax, n in zip(self.axes, exponents):
            if not ax.n_min <= n <= ax.n_max:
                raise KeyError(f"exponent {n} outside axis range")
            idx = idx * ax.size + (n - ax.n_min)
        return idx

    def to_json_dict(self) -> dict:
        return {
            "axes": [
                {
                    "q": ax.spec.q,
                    "base": ax.spec.base,
                    "step_denominator": ax.spec.step_denominator,
                    "n_min": ax.n_min,
                    "n_max": ax.n_max,
                }
                for ax in self.axes
            ]
        }


def window_1d(spec: LatticeSpec, n_min: int, n_max: int) -> Window:
    return Window((WindowAxis(spec, n_min, n_max),))


@lru_cache(maxsize=1024)
def _region(d: tuple[int, ...], shape: tuple[int, ...], margin: int = 0) -> tuple[slice, ...]:
    """Slices of the points p with p and p + d both `margin` inside the window."""
    return tuple(
        slice(margin + max(0, -k), max(0, n - margin - max(0, k)))
        for k, n in zip(d, shape)
    )


@lru_cache(maxsize=1024)
def _shift_slices(d: tuple[int, ...], shape: tuple[int, ...]) -> tuple[tuple[slice, ...], ...]:
    """(destination, source) slices of a shift by d: out[dst] = grid[src]."""
    return _region(d, shape), _region(tuple(-k for k in d), shape)


@lru_cache(maxsize=1024)
def _key_geometry(keys: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple]:
    """(shift_degree, displacement) of an operator whose grids have these keys."""
    axes = tuple(zip(*keys))
    degree = tuple(max(abs(k) for k in ks) for ks in axes)
    return degree, tuple(ks[0] if len(set(ks)) == 1 else None for ks in axes)


def _positions(d: Sequence[int], window: Window):
    """Dense (row, column) indices of a displacement-d grid, and its slices."""
    idx = np.arange(window.size).reshape(window.shape)
    cols, rows = _shift_slices(d, window.shape)
    return (idx[rows], idx[cols]), cols


def _shifted(grid: np.ndarray, d: tuple[int, ...]) -> np.ndarray:
    """out[p] = grid[p + d], zero where p + d leaves the window (grid itself if d = 0)."""
    if not any(d):
        return grid
    dst, src = _shift_slices(d, grid.shape)
    out = np.zeros(grid.shape, dtype=grid.dtype)
    out[dst] = grid[src]
    return out


class WindowedOperator:
    """A finite sum of weighted shifts over a window basis.

    grids maps a displacement d (one exponent step per axis) to a complex
    array of the window's shape: grid[p] is the coefficient of delta_{p+d}
    in the image of delta_p, and is zero wherever p + d leaves the window.

    shift_degree[a] is the largest |d[a]| over the stored displacements;
    displacement[a] is the d[a] they all share, else None.  Margin
    validation reads both to track a word's excursions, derived once per
    key set from the stored displacements; there is no dense constructor.
    """

    def __init__(self, window: Window, grids: dict):
        self.window = window
        self.grids = {
            tuple(d): np.asarray(g, dtype=complex) for d, g in grids.items()
        }
        for d, g in self.grids.items():
            if len(d) != window.dim or g.shape != window.shape:
                raise ValueError("grid does not match the window")

    @classmethod
    def _built(cls, window: Window, grids: dict) -> "WindowedOperator":
        """An algebra result, whose grids are valid by construction: no checks."""
        op = cls.__new__(cls)
        op.window, op.grids = window, grids
        return op

    @property
    def shift_degree(self) -> tuple[int, ...]:
        return _key_geometry(tuple(self.grids) or ((0,) * self.window.dim,))[0]

    @property
    def displacement(self) -> tuple[Optional[int], ...]:
        return _key_geometry(tuple(self.grids) or ((0,) * self.window.dim,))[1]

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "WindowedOperator") -> "WindowedOperator":
        self._check_window(other)
        out: dict = {}
        for db, gb in other.grids.items():
            for da, ga in self.grids.items():
                d = tuple(a + b for a, b in zip(da, db))
                g = gb * _shifted(ga, db)
                out[d] = out[d] + g if d in out else g
        return WindowedOperator._built(self.window, out)

    def __add__(self, other: "WindowedOperator") -> "WindowedOperator":
        self._check_window(other)
        out = {d: g.copy() for d, g in self.grids.items()}  # shares no operand array
        for d, g in other.grids.items():
            out[d] = np.add(out[d], g, out=out[d]) if d in out else g.copy()
        return WindowedOperator._built(self.window, out)

    def __sub__(self, other: "WindowedOperator") -> "WindowedOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "WindowedOperator":
        return WindowedOperator._built(self.window, {d: g * scalar for d, g in self.grids.items()})

    __rmul__ = __mul__

    def adjoint(self) -> "WindowedOperator":
        flipped = {tuple(-k for k in d): g for d, g in self.grids.items()}
        return WindowedOperator._built(
            self.window, {d: _shifted(g.conj(), d) for d, g in flipped.items()}
        )

    def _check_window(self, other: "WindowedOperator"):
        if self.window is not other.window and self.window != other.window:
            raise ValueError("operators live on different windows")

    def max_abs(self, margin: int = 0) -> float:
        """Largest |entry| whose row and column lie `margin` inside the window."""
        inner = [g[_region(d, g.shape, margin)] for d, g in self.grids.items()]
        return float(np.max([np.abs(g).max(initial=0.0) for g in inner], initial=0.0))

    # -- dense view ------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, built on each access."""
        n = self.window.size
        if n > MAX_DENSE_SIZE:
            raise ValueError(
                f"window basis size {n} exceeds dense limit {MAX_DENSE_SIZE}"
            )
        m = np.zeros((n, n), dtype=complex)
        for d, g in self.grids.items():
            pos, src = _positions(d, self.window)
            m[pos] = g[src]
        return m


def identity_op(window: Window) -> WindowedOperator:
    return WindowedOperator(window, {(0,) * window.dim: np.ones(window.shape)})


def mul_op(f: Callable[..., np.ndarray], window: Window) -> WindowedOperator:
    """Diagonal operator f(values) of the window's lattice values.

    f is called once, on window.value_grids; it may return any array (or
    scalar) that broadcasts to the window's shape.
    """
    grid = np.broadcast_to(f(*window.value_grids), window.shape).astype(complex)
    return WindowedOperator(window, {(0,) * window.dim: grid})


def shift_op(
    weight: Callable[..., np.ndarray],
    displacement: Sequence[int],
    window: Window,
) -> WindowedOperator:
    """Weighted shift: delta_p -> weight(p) delta_{p+displacement}.

    Images falling outside the window are dropped (truncation).  weight is
    called once, on the value grids sliced to the points whose image stays
    inside, and must broadcast to that region's shape.
    """
    displacement = tuple(int(d) for d in displacement)
    if len(displacement) != window.dim:
        raise ValueError("displacement arity does not match window dim")
    src = _region(displacement, window.shape)
    values = (
        g[(slice(None),) * a + (s,)]
        for a, (g, s) in enumerate(zip(window.value_grids, src))
    )
    grid = np.zeros(window.shape, dtype=complex)
    grid[src] = weight(*values)
    return WindowedOperator(window, {displacement: grid})


def tensor_op(a: WindowedOperator, b: WindowedOperator, window: Window) -> WindowedOperator:
    """a (x) b on a window whose axes are a's followed by b's."""
    pairs = itertools.product(a.grids.items(), b.grids.items())
    return WindowedOperator(
        window, {da + db: np.multiply.outer(ga, gb) for (da, ga), (db, gb) in pairs}
    )


@dataclass(frozen=True, kw_only=True)
class Bundle:
    """Named generators on one window: what every relation battery reads.

    coords maps the window's value grids to the arguments a coefficient
    function takes, (lambda, rho) for the dynamical algebra; the default
    passes them through.  exact_boundaries holds the (axis, side) ends,
    sides "low" and "high", where every generator terminates.  margins()
    is derived from it: 0 on an exact end and pad on every other end.
    u_star(name) is the adjoint of u(name), built on first use and kept.
    """

    q: float
    window: Window
    ops: dict
    coords: Callable[..., tuple] = lambda *grids: grids
    exact_boundaries: frozenset = frozenset()
    pad: int = 2
    _adjoints: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def u(self, name: str) -> WindowedOperator:
        return self.ops[name]

    def u_star(self, name: str) -> WindowedOperator:
        if name not in self._adjoints:
            self._adjoints[name] = self.ops[name].adjoint()
        return self._adjoints[name]

    def mul_fn(self, f: Callable[..., np.ndarray]) -> WindowedOperator:
        """Diagonal operator of an array function of the coordinates."""
        return mul_op(lambda *g: f(*self.coords(*g)), self.window)

    def margins(self, pad: Optional[int] = None) -> tuple[tuple[int, int], ...]:
        pad = self.pad if pad is None else pad
        return tuple(
            tuple(0 if (axis, side) in self.exact_boundaries else pad for side in ("low", "high"))
            for axis in range(self.window.dim)
        )


# -- relation checking ----------------------------------------------------

Term = tuple[complex, Sequence[WindowedOperator]]


@dataclass(frozen=True)
class RelationResidual:
    label: str
    residual: float
    margins: tuple[tuple[int, int], ...]  # per axis (low side, high side)
    tol: float = DEFAULT_TOL

    @property
    def passed(self) -> bool:
        return self.residual < self.tol

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        return f"{self.label}: residual {self.residual:.3e} [{status}]"


def evaluate_terms(terms: Sequence[Term]) -> WindowedOperator:
    """The operator sum(coeff * word), each word multiplied left to right."""
    total = None
    for coeff, word in terms:
        m = word[0]
        for op in word[1:]:
            m = m @ op
        total = coeff * m if total is None else total + coeff * m
    return total


def _word_excursion(word: Sequence[WindowedOperator], axis: int) -> tuple[int, int]:
    """Worst downward/upward exponent excursion while applying the word.

    The word acts right-to-left.  Exact displacements are tracked exactly;
    an axis with mixed displacement widens the reachable interval by the
    operator's shift degree in both directions.
    """
    lo = hi = 0
    run_lo = run_hi = 0
    for op in reversed(word):
        d = op.displacement[axis]
        if d is not None:
            lo += d
            hi += d
        else:
            lo -= op.shift_degree[axis]
            hi += op.shift_degree[axis]
        run_lo = min(run_lo, lo)
        run_hi = max(run_hi, hi)
    return -run_lo, run_hi


def required_margins(
    terms: Sequence[Term], window: Window
) -> tuple[tuple[int, int], ...]:
    out = []
    for axis in range(window.dim):
        lo = hi = 0
        for _, word in terms:
            wl, wh = _word_excursion(word, axis)
            lo = max(lo, wl)
            hi = max(hi, wh)
        out.append((lo, hi))
    return tuple(out)


def relation_residual(
    terms: Sequence[Term],
    margin=None,
    *,
    label: str = "",
    tol: float = DEFAULT_TOL,
    exact_boundaries: frozenset = frozenset(),
) -> RelationResidual:
    """Max norm of sum(coeff * word(delta_p)) over interior basis vectors.

    margin: int (uniform), or per-axis (low, high) pairs.  Defaults to the
    computed requirement.  A margin below the requirement is rejected
    unless that (axis, side) is listed in exact_boundaries, which asserts
    the operators genuinely terminate there (series endpoint with weight
    zero), so no truncation leakage is possible.  Sides: "low" / "high".
    """
    if not terms:
        raise ValueError("no terms")
    if not all(word for _, word in terms):
        raise ValueError("empty word")
    window = terms[0][1][0].window
    for _, word in terms:
        for op in word:
            if op.window is not window and op.window != window:
                raise ValueError("operators live on different windows")

    req = required_margins(terms, window)
    if margin is None:
        margins = req
    elif isinstance(margin, int):
        margins = tuple((margin, margin) for _ in range(window.dim))
    else:
        margins = tuple((int(a), int(b)) for a, b in margin)
        if len(margins) != window.dim:
            raise ValueError("margin arity does not match window dim")
    for axis in range(window.dim):
        for side, given, need in (
            ("low", margins[axis][0], req[axis][0]),
            ("high", margins[axis][1], req[axis][1]),
        ):
            if given < need and (axis, side) not in exact_boundaries:
                raise ValueError(
                    f"margin {given} on axis {axis} ({side}) below required "
                    f"{need}; would test truncation artifacts"
                )

    if any(lo + hi >= ax.size for ax, (lo, hi) in zip(window.axes, margins)):
        raise ValueError("margins leave no interior basis vectors")
    interior = tuple(slice(lo, ax.size - hi) for ax, (lo, hi) in zip(window.axes, margins))

    total = evaluate_terms(terms)

    # Column norms over the interior; summing in sorted displacement order
    # adds each column's entries in row order, as a dense column norm does.
    sq = np.zeros(window.shape)[interior]
    for d in sorted(total.grids):
        g = total.grids[d][interior]
        sq = sq + (g.conj() * g).real
    residual = float(np.sqrt(sq.max()))
    return RelationResidual(label=label, residual=residual, margins=margins, tol=tol)


def table_residuals(
    relations: Iterable[tuple[str, Sequence[Term]]],
    margin,
    exact_boundaries: frozenset = frozenset(),
    tol: float = DEFAULT_TOL,
) -> list[RelationResidual]:
    """relation_residual of each (label, terms) pair, in the given order.

    Every relation is checked with the same margins and exact boundaries.
    A generator of pairs is consumed one relation at a time, so its
    operators need not all be held at once.
    """
    return [
        relation_residual(
            terms, margin, label=label, tol=tol, exact_boundaries=exact_boundaries
        )
        for label, terms in relations
    ]


def op_norm_bound(a: WindowedOperator) -> float:
    """Operator norm: max |weight| of a single shift, else the top singular value."""
    if len(a.grids) <= 1:
        return a.max_abs()
    return float(np.linalg.svd(a.matrix, compute_uv=False)[0])
