"""Finite-window truncations of weighted shift operators.

Everything downstream (the su(1,1) representations, the dynamical SU(2)
generators, the Casimir spectrum scans) is verified on finite windows of
an exponent lattice.  The key correctness device is the *interior margin*:
a word of shift operators applied to a basis vector far enough from the
window edges computes exactly what the untruncated operator would, so a
relation residual measured on such vectors bounds the true algebraic
defect up to float noise.

Margins are per-axis and per-side because boundaries come in two kinds:
an *algebraic* end, where a shift genuinely terminates (weight 0), needs
no margin at all; an *artificial* cut, where an infinite lattice was
truncated, needs a margin covering the worst intermediate excursion of
the word being tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lattice import LatticePoint, LatticeSpec

# Dense storage throughout; refuse windows whose basis would not fit.
MAX_BASIS_SIZE = 4096

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
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("window must have 1 to 3 axes")
        if self.size > MAX_BASIS_SIZE:
            raise ValueError(
                f"window basis size {self.size} exceeds dense limit {MAX_BASIS_SIZE}"
            )

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def size(self) -> int:
        return math.prod(ax.size for ax in self.axes)

    def index_of(self, exponents: Sequence[int]) -> int:
        idx = 0
        for ax, n in zip(self.axes, exponents):
            if not ax.n_min <= n <= ax.n_max:
                raise KeyError(f"exponent {n} outside axis range")
            idx = idx * ax.size + (n - ax.n_min)
        return idx

    def contains(self, exponents: Sequence[int]) -> bool:
        return all(
            ax.n_min <= n <= ax.n_max for ax, n in zip(self.axes, exponents)
        )

    def exponents_of(self, index: int) -> tuple[int, ...]:
        out = []
        for ax in reversed(self.axes):
            index, r = divmod(index, ax.size)
            out.append(ax.n_min + r)
        return tuple(reversed(out))

    def points_of(self, index: int) -> tuple[LatticePoint, ...]:
        ns = self.exponents_of(index)
        return tuple(LatticePoint(ax.spec, n) for ax, n in zip(self.axes, ns))

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


@dataclass(frozen=True)
class WindowedOperator:
    """Dense matrix over a window basis, with shift metadata.

    shift_degree[a] bounds the per-axis |exponent displacement| of any
    nonzero entry.  displacement[a] is the exact common displacement on
    axis a when every nonzero entry shares one (weighted shifts and their
    products), else None; margin validation uses it to track excursions.
    """

    window: Window
    matrix: np.ndarray
    shift_degree: tuple[int, ...]
    displacement: tuple[Optional[int], ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.matrix.shape != (self.window.size, self.window.size):
            raise ValueError("matrix shape does not match window basis")
        if self.displacement is None:
            object.__setattr__(
                self, "displacement", tuple(None for _ in self.shift_degree)
            )

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "WindowedOperator") -> "WindowedOperator":
        self._check_window(other)
        deg = tuple(a + b for a, b in zip(self.shift_degree, other.shift_degree))
        disp = tuple(
            (a + b) if (a is not None and b is not None) else None
            for a, b in zip(self.displacement, other.displacement)
        )
        return WindowedOperator(self.window, self.matrix @ other.matrix, deg, disp)

    def __add__(self, other: "WindowedOperator") -> "WindowedOperator":
        self._check_window(other)
        deg = tuple(max(a, b) for a, b in zip(self.shift_degree, other.shift_degree))
        disp = tuple(
            a if a == b else None
            for a, b in zip(self.displacement, other.displacement)
        )
        return WindowedOperator(self.window, self.matrix + other.matrix, deg, disp)

    def __sub__(self, other: "WindowedOperator") -> "WindowedOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "WindowedOperator":
        return WindowedOperator(
            self.window, self.matrix * scalar, self.shift_degree, self.displacement
        )

    __rmul__ = __mul__

    def adjoint(self) -> "WindowedOperator":
        disp = tuple(-d if d is not None else None for d in self.displacement)
        return WindowedOperator(
            self.window, self.matrix.conj().T, self.shift_degree, disp
        )

    def _check_window(self, other: "WindowedOperator"):
        if self.window != other.window:
            raise ValueError("operators live on different windows")

    # -- export ----------------------------------------------------------

    def entries(self, tol: float = 0.0):
        rows, cols = np.nonzero(np.abs(self.matrix) > tol)
        for r, c in zip(rows.tolist(), cols.tolist()):
            v = self.matrix[r, c]
            yield r, c, v.real, v.imag

    def to_json_dict(self) -> dict:
        return {
            "window": self.window.to_json_dict(),
            "entries": [[r, c, re, im] for r, c, re, im in self.entries()],
        }


def identity_op(window: Window) -> WindowedOperator:
    n = window.size
    return WindowedOperator(
        window,
        np.eye(n, dtype=complex),
        tuple(0 for _ in window.axes),
        tuple(0 for _ in window.axes),
    )


def zero_op(window: Window) -> WindowedOperator:
    n = window.size
    return WindowedOperator(
        window,
        np.zeros((n, n), dtype=complex),
        tuple(0 for _ in window.axes),
        tuple(0 for _ in window.axes),
    )


def mul_op(f: Callable[..., complex], window: Window) -> WindowedOperator:
    """Diagonal operator from a function of the window's lattice points."""
    n = window.size
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        m[i, i] = f(*window.points_of(i))
    return WindowedOperator(
        window, m, tuple(0 for _ in window.axes), tuple(0 for _ in window.axes)
    )


def shift_op(
    weight: Callable[..., complex],
    displacement: Sequence[int],
    window: Window,
) -> WindowedOperator:
    """Weighted shift: delta_p -> weight(p) delta_{p+displacement}.

    Images falling outside the window are dropped (truncation).
    """
    displacement = tuple(int(d) for d in displacement)
    if len(displacement) != window.dim:
        raise ValueError("displacement arity does not match window dim")
    n = window.size
    m = np.zeros((n, n), dtype=complex)
    for src in range(n):
        ns = window.exponents_of(src)
        tgt_ns = tuple(a + d for a, d in zip(ns, displacement))
        if not window.contains(tgt_ns):
            continue
        w = weight(*window.points_of(src))
        if w != 0:
            m[window.index_of(tgt_ns), src] = w
    return WindowedOperator(
        window, m, tuple(abs(d) for d in displacement), displacement
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
            if op.window != window:
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

    total = np.zeros((window.size, window.size), dtype=complex)
    for coeff, word in terms:
        m = word[0].matrix
        for op in word[1:]:
            m = m @ op.matrix
        total += coeff * m

    interior = []
    for i in range(window.size):
        ns = window.exponents_of(i)
        ok = True
        for axis, (ax, n) in enumerate(zip(window.axes, ns)):
            if n - ax.n_min < margins[axis][0] or ax.n_max - n < margins[axis][1]:
                ok = False
                break
        if ok:
            interior.append(i)
    if not interior:
        raise ValueError("margins leave no interior basis vectors")

    cols = total[:, interior]
    residual = float(np.max(np.linalg.norm(cols, axis=0)))
    return RelationResidual(label=label, residual=residual, margins=margins, tol=tol)


def op_norm_bound(a: WindowedOperator) -> float:
    if a.window.size == 0:
        return 0.0
    return float(np.linalg.svd(a.matrix, compute_uv=False)[0])
