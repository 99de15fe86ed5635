"""Geometric lattices x*q^Z and x*q^(Z/2) with exact integer exponents.

All lattice points are stored as integer exponents over a LatticeSpec; float
values are derived. Membership tests work on the exponent scale, where a
relative tolerance is meaningful regardless of how far out on the lattice a
point sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "tau",
    "weight_w",
    "LatticeSpec",
    "LatticePoint",
    "lattice_contains",
    "EXPONENT_REL_TOL",
]

# Tolerance on the exponent scale for recognizing lattice membership.
EXPONENT_REL_TOL = 1e-9


def tau(v: float) -> float:
    """Sum of a positive real and its reciprocal, tau(v) = v + 1/v.

    Defined for v > 0 only; tau(v) >= 2 with equality iff v == 1, and
    tau(v) == tau(1/v).
    """
    if v <= 0:
        raise ValueError(f"tau requires a positive argument, got {v}")
    return v + 1.0 / v


def weight_w(v: float, eps: int, q: float) -> float:
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

    def point(self, n: int) -> "LatticePoint":
        return LatticePoint(self, int(n))

    def exponent_of(self, v: float, rel_tol: float = EXPONENT_REL_TOL) -> int | None:
        """Integer exponent n with value(n) == v, or None if v is off-lattice.

        The comparison happens on the exponent scale: n is accepted when
        |log_q(v/base) - n/step_denominator| < rel_tol. Exact for values that
        were produced from a LatticePoint of this spec.
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


@dataclass(frozen=True)
class LatticePoint:
    spec: LatticeSpec
    n: int

    @cached_property
    def value(self) -> float:
        return self.spec.value(self.n)

    def shifted(self, dn: int) -> "LatticePoint":
        return LatticePoint(self.spec, self.n + dn)


def lattice_contains(
    spec: LatticeSpec, v: float, rel_tol: float = EXPONENT_REL_TOL
) -> int | None:
    """Exponent of v in spec, or None. Functional alias of exponent_of."""
    return spec.exponent_of(v, rel_tol=rel_tol)
