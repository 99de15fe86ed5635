"""Twisted su(1,1) algebra: compatible sets, weight representations, Casimir.

A (y,c)-compatible set T is the square root of an irreducible c-set
living on the lattice of y^2.  On l^2(T) the generators act as

    (q - 1/q) X_eps : delta_r -> (tau(q^eps r^2) + c)^(1/2) delta_{q^eps r}

with E = X_+, F = X_- = E^*, K diagonal r.  The gauge is fixed by taking
every E coefficient real nonnegative, which also makes golden values
deterministic.  The square roots are well defined exactly because the
underlying set is a c-set; a negative radicand means corrupted input.

Series representations terminate on one side algebraically (the shift
weight vanishes at the endpoint): that end is one of the representation's
exact_boundaries and relation checks there need no interior margin; the
opposite side of a truncated window is an artificial cut and gets
margin >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cset import CSetDescriptor, SetKind, classify_irreducible_csets
from .lattice import LatticeSpec, tau
from .windowed import (
    Bundle,
    RelationResidual,
    Term,
    WindowedOperator,
    identity_op,
    mul_op,
    relation_residual,
    shift_op,
    table_residuals,
    window_1d,
)

MIN_TRUNCATION = 5


@dataclass(frozen=True)
class CompatibleSet:
    """Irreducible c-set on the y^2 lattice, carried to T by square root.

    gamma_exponent is the base-point exponent of T over the half-step
    lattice of y: the point with that exponent is y * q^(n/2) and equals
    sqrt(descriptor.z) exactly on the exponent scale.
    """

    y: float
    c: float
    q: float
    descriptor: CSetDescriptor
    t_preview: tuple[float, ...] = ()

    @property
    def kind(self) -> SetKind:
        return self.descriptor.kind

    @property
    def gamma_exponent(self) -> int:
        # Z exponent over base y^2 doubles to the Gamma exponent scale
        # with the same integer: y^2 q^m has root y q^(m/2).
        return self.descriptor.z_exponent

    def label(self) -> str:
        return self.descriptor.series_label()


def compatible_sets(y: float, c: float, q: float, window: int = 8) -> list[CompatibleSet]:
    """All (y,c)-compatible sets, as square roots of c-sets in the y^2 lattice.

    window bounds the number of T points listed in the preview of each set
    (the sets themselves may be infinite).
    """
    if y <= 0:
        raise ValueError("y must be positive")
    lat = LatticeSpec(q=q, base=y * y)
    descs = classify_irreducible_csets(c, q, restrict_to=lat)
    out = []
    for d in descs:
        r0 = math.sqrt(d.z)
        if d.kind in (SetKind.PLUS_SERIES, SetKind.TRIVIAL):
            pts = tuple(r0 * q**k for k in range(window))
        elif d.kind is SetKind.MINUS_SERIES:
            pts = tuple(r0 * q**-k for k in range(window))
        else:
            half = window // 2
            pts = tuple(r0 * q**k for k in range(-half, window - half))
        if d.kind is SetKind.TRIVIAL:
            pts = (r0,)
        out.append(CompatibleSet(y=y, c=c, q=q, descriptor=d, t_preview=pts))
    return out


@dataclass(frozen=True, kw_only=True)
class UqRep(Bundle):
    """E, F, K and K^-1 (ops "E", "F", "K", "Kinv") on a window of T.

    c is the Casimir scalar.  exact_boundaries lists the window ends where
    the series terminates, so relation checks need no margin there.
    """

    c: float

    def generators(self) -> tuple[WindowedOperator, ...]:
        """(E, F, K, K^-1)."""
        return tuple(self.ops[name] for name in ("E", "F", "K", "Kinv"))

    def unit(self, n: int) -> WindowedOperator:
        """Rank-one diagonal projection onto the window point with exponent n."""
        (exps,) = self.window.exponent_grids
        return WindowedOperator(self.window, {(0,): exps == n})


def _radicand(r: np.ndarray, c: float, q: float, eps: int, tol: float) -> np.ndarray:
    v = tau(q**eps * r * r) + c
    bad = v < -tol
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(
            f"negative radicand {v.flat[i]} at r={r.flat[i]}, eps={eps}: "
            "input is not a c-set trace"
        )
    return np.maximum(v, 0.0)


def build_pi_T(cs: CompatibleSet, truncation: int = 10) -> UqRep:
    """Weight representation on a window of T.

    Infinite directions are cut at `truncation` points from the series
    endpoint (or symmetrically for a full orbit); only the series endpoints
    are exact boundaries, so the cut side keeps its margin.

    The default truncation is deliberately modest: E carries weights that
    grow like q^{-n} down an infinite set, and the Casimir cancels two
    tau-sized terms against each other, so the absolute float error of a
    relation residual scales with the largest weight in the window.  Ten
    points at q = 0.5 keep that scale near 1e5, leaving absolute residuals
    below 1e-10.  Deeper windows stay correct but need a tolerance scaled
    by that largest weight.
    """
    if truncation < MIN_TRUNCATION:
        raise ValueError(f"truncation must be at least {MIN_TRUNCATION}")
    q, c = cs.q, cs.c
    d = cs.descriptor
    r0 = math.sqrt(d.z)
    spec = LatticeSpec(q=q, base=r0)

    if d.kind is SetKind.TRIVIAL:
        win = window_1d(spec, 0, 0)
        exact = {(0, "low"), (0, "high")}
    elif d.kind is SetKind.PLUS_SERIES:
        # values descend from the top point r0 as the exponent grows
        win = window_1d(spec, 0, truncation - 1)
        exact = {(0, "low")}
    elif d.kind is SetKind.MINUS_SERIES:
        # values ascend from the bottom point r0 as the exponent falls
        win = window_1d(spec, -(truncation - 1), 0)
        exact = {(0, "high")}
    else:
        half = truncation // 2
        win = window_1d(spec, -half, half)
        exact = set()

    # boundary-scaled tolerance, matching the c-set adaptedness test
    tol = 1e-10 * max(1.0, abs(c))
    scale = 1.0 / abs(q - 1.0 / q)

    E = shift_op(lambda r: np.sqrt(_radicand(r, c, q, +1, tol)) * scale, (+1,), win)
    ops = {
        "E": E,
        "F": E.adjoint(),
        "K": mul_op(lambda r: r, win),
        "Kinv": mul_op(lambda r: 1.0 / r, win),
    }
    return UqRep(c=c, q=q, window=win, ops=ops, exact_boundaries=frozenset(exact))


def su11_relations(E, F, K, Kinv, ident, q: float) -> dict[str, list[Term]]:
    """The su(1,1) relations of one generator quadruple, as term lists (sum = 0).

    K K^-1 = 1, K = K*, F = E*, KE = qEK and [F,E] = (K^2 - K^-2)/(q - 1/q).
    The pi_T representations and both decoupled copies inside the dynamical
    algebra are checked against this one table.
    """
    kappa = q - 1.0 / q
    return {
        "k_invertible": [(1.0, [K, Kinv]), (-1.0, [ident])],
        "k_selfadjoint": [(1.0, [K]), (-1.0, [K.adjoint()])],
        "ef_adjoint": [(1.0, [F]), (-1.0, [E.adjoint()])],
        "ke_commutation": [(1.0, [K, E]), (-q, [E, K])],
        "ef_commutator": [
            (1.0, [F, E]),
            (-1.0, [E, F]),
            (-1.0 / kappa, [K, K]),
            (1.0 / kappa, [Kinv, Kinv]),
        ],
    }


def casimir_terms(E, F, K, Kinv, q: float) -> list[Term]:
    """The Casimir (1/q - q)^2 FE - q K^2 - (1/q) K^-2 as a term list."""
    return [((1.0 / q - q) ** 2, [F, E]), (-q, [K, K]), (-1.0 / q, [Kinv, Kinv])]


def verify_uqsu11_relations(rep: UqRep, tol: float = 1e-10) -> list[RelationResidual]:
    win = rep.window
    relations = su11_relations(*rep.generators(), identity_op(win), rep.q)
    out = table_residuals(relations.items(), rep.margins(), rep.exact_boundaries, tol)

    # graded unit relations: E maps the r weight space into the qr one,
    # so P_{next} E P_n = E P_n for every window point n
    ax = win.axes[0]
    E = rep.u("E")
    worst = 0.0
    for n in ax.exponents():
        p_n = rep.unit(n)
        terms = [(1.0, [E, p_n])]
        if n + 1 <= ax.n_max:
            terms.append((-1.0, [rep.unit(n + 1), E, p_n]))
        r = relation_residual(
            terms,
            ((0, 0),),
            label="unit_grading",
            tol=tol,
            exact_boundaries=frozenset({(0, "low"), (0, "high")}),
        )
        # the top cut column is a truncation artifact unless exact
        if n == ax.n_max and (0, "high") not in rep.exact_boundaries:
            continue
        worst = max(worst, r.residual)
    out.append(
        RelationResidual(
            label="unit_grading", residual=worst, margins=((0, 0),), tol=tol
        )
    )
    return out
