"""Geometric lattices x*q^Z and x*q^(Z/2) with exact integer exponents.

All lattice points are stored as integer exponents over a LatticeSpec; float
values are derived. Membership tests work on the exponent scale, where a
relative tolerance is meaningful regardless of how far out on the lattice a
point sits.

tau, weight_w and LatticeSpec.indicator accept numpy arrays as well as
scalars: windowed operators evaluate them once on a window's value grids.
A Python float argument gives a Python float back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "tau",
    "weight_w",
    "LatticeSpec",
    "power",
    "EXPONENT_REL_TOL",
]

# Tolerance on the exponent scale for recognizing lattice membership.
EXPONENT_REL_TOL = 1e-9


def tau(v):
    """Sum of a positive real and its reciprocal, tau(v) = v + 1/v.

    Defined for v > 0 only; tau(v) >= 2 with equality iff v == 1, and
    tau(v) == tau(1/v).  On an array, positivity is checked once over the
    whole array.
    """
    if isinstance(v, np.ndarray):
        if v.min(initial=1.0) <= 0:
            raise ValueError(f"tau requires a positive argument, got {v[v <= 0].flat[0]}")
    elif v <= 0:
        raise ValueError(f"tau requires a positive argument, got {v}")
    return v + 1.0 / v


def power(v, k: int):
    """v ** k for an integer k, rounded as Python rounds a float power.

    numpy's power and reciprocal round differently from the C library pow
    that Python's float ** calls (1 in about 1300 values of v ** -1), so
    arrays are raised element by element.  Callers pass per-axis value
    grids, which hold one entry per axis point, not per basis vector.
    """
    if k == 1:
        return v
    if not isinstance(v, np.ndarray):
        return v**k
    return np.array([x**k for x in v.ravel().tolist()]).reshape(v.shape)


def weight_w(v, eps: int, q: float):
    """Shift ratio w_eps(v) = tau(q^eps v) / tau(v) for eps in {+1, -1}."""
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    _check_q(q)
    return tau(q**eps * v) / tau(v)


def _check_q(q: float) -> None:
    if not (0.0 < q < 1.0):
        raise ValueError(f"deformation parameter q must lie in (0, 1), got {q}")


@dataclass(frozen=True)
class LatticeSpec:
    """The geometric lattice {base * q^(n / step_denominator) : n in Z}.

    step_denominator 1 gives integer steps base*q^Z, 2 gives half steps
    base*q^(Z/2).
    """

    q: float
    base: float = 1.0
    step_denominator: int = 1

    def __post_init__(self) -> None:
        _check_q(self.q)
        if self.base <= 0:
            raise ValueError(f"lattice base must be positive, got {self.base}")
        if self.step_denominator not in (1, 2):
            raise ValueError("step_denominator must be 1 or 2")

    def value(self, n: int) -> float:
        """Float value of the point with integer exponent n."""
        return self.base * self.q ** (n / self.step_denominator)

    def exponent_of(self, v: float, rel_tol: float = EXPONENT_REL_TOL) -> int | None:
        """Integer exponent n with value(n) == v, or None if v is off-lattice.

        The comparison happens on the exponent scale: n is accepted when
        |log_q(v/base) - n/step_denominator| < rel_tol. Exact for values that
        were produced by value() of this spec.
        """
        if v <= 0:
            return None
        t = math.log(v / self.base) / math.log(self.q)
        n = round(t * self.step_denominator)
        if abs(t - n / self.step_denominator) < rel_tol:
            return int(n)
        return None

    def __contains__(self, v: float) -> bool:
        return self.exponent_of(v) is not None

    def indicator(self, v, n: int, rel_tol: float = EXPONENT_REL_TOL):
        """1.0 where v is the point with exponent n, else 0.0; numpy-aware.

        Decided on the exponent scale, as exponent_of does, so values moved
        by float multiplications (a shifted coefficient function) still hit
        their point.  Nonpositive values are off the lattice.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(np.divide(v, self.base)) / math.log(self.q)
        return np.where(np.abs(t - n / self.step_denominator) < rel_tol, 1.0, 0.0)

