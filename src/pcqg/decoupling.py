"""Decoupling of the dynamical algebra into two weight-lattice su(1,1) copies.

Two constructions, inverse to each other on generators. `build_phi_images`
reads the images of the su(1,1) x su(1,1) generators off any
`windowed.Bundle` of alpha, beta, gamma and delta (a raising/lowering pair
per copy plus diagonal K-value and unit maps). `build_pi_ST` goes the other
way: it assembles the four generators from a tensor product pi_S (x) pi_T
of weight representations, one per compatible set, into a Bundle whose
exact ends are those of its two factors. Pairing the two gives a numerical
re-proof of the classification of irreducible star-representations, and
the attainable Casimir values give the spectrum of Omega, computed here
both in closed form and by brute-force enumeration over a c grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import EXPONENT_REL_TOL, LatticeSpec, tau
from .cset import solve_wc
from .uqsu11 import (
    CompatibleSet,
    build_pi_T,
    casimir_terms,
    compatible_sets,
    su11_relations,
)
from .windowed import (
    Bundle,
    RelationResidual,
    Window,
    WindowedOperator,
    evaluate_terms,
    identity_op,
    mul_op,
    relation_residual,
    table_residuals,
    tensor_op,
)

__all__ = [
    "PhiImages",
    "build_phi_images",
    "casimir_omega",
    "phi_relation_residuals",
    "omega_residuals",
    "IrrepPair",
    "TENSOR_CONDITIONS",
    "pair_rejections",
    "enumerate_irreps",
    "PiSTBundle",
    "build_pi_ST",
    "round_trip_residuals",
    "grading_residuals",
    "support_residual",
    "SpectrumDescription",
    "spec_omega_closed_form",
    "default_c_grid",
    "exceptional_points",
    "spec_omega_brute_force",
]


# -- generator images of the two su(1,1) copies ---------------------------


@dataclass(frozen=True)
class PhiImages:
    """Images of the doubled su(1,1) generators inside a generator bundle.

    E1/F1 raise and lower the first K-value sqrt(lambda rho); E2/F2 act on
    the second, sqrt(lambda/rho). Diagonal unit projections come from the
    methods, matched on the exponent scale. `bundle` is the Bundle the
    images were read from (pi_c or pi_ST); the checks read its diagonals,
    generators, margins and exact boundaries.
    """

    bundle: Bundle
    E1: WindowedOperator
    F1: WindowedOperator
    E2: WindowedOperator
    F2: WindowedOperator
    K1: WindowedOperator
    K1inv: WindowedOperator
    K2: WindowedOperator
    K2inv: WindowedOperator

    @property
    def q(self) -> float:
        return self.bundle.q

    def generators(self, copy: int) -> tuple[WindowedOperator, ...]:
        """(E, F, K, K^-1) of copy 1 or 2."""
        if copy == 1:
            return self.E1, self.F1, self.K1, self.K1inv
        if copy == 2:
            return self.E2, self.F2, self.K2, self.K2inv
        raise ValueError(f"copy must be 1 or 2, got {copy}")

    def unit_1(self, r: float) -> WindowedOperator:
        """Projection onto lambda*rho = r^2, the r weight space of copy 1."""
        return self.bundle.mul_fn(_ratio_indicator(lambda l, p: l * p, r, self.q))

    def unit_2(self, s: float) -> WindowedOperator:
        """Projection onto lambda/rho = s^2, the s weight space of copy 2."""
        return self.bundle.mul_fn(_ratio_indicator(lambda l, p: l / p, r=s, q=self.q))


def _ratio_indicator(coord, r: float, q: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    lat = LatticeSpec(q=q)
    rr = r * r
    return lambda l, p: lat.indicator(coord(l, p) / rr, 0)


def build_phi_images(b: Bundle) -> PhiImages:
    """Read the su(1,1) x su(1,1) generator images off a bundle.

    (1/q - q) E1 = alpha tau^(1/2)(lambda) tau^(1/2)(q rho), and the three
    companions with beta, delta, -gamma and the rho/q weight. The K's are
    plain diagonal value maps. b is any Bundle of alpha, beta, gamma and
    delta with (lambda, rho) coordinates.
    """
    q = b.q
    kappa = 1.0 / q - q

    def g(f):
        return b.mul_fn(f)

    wa = g(lambda l, p: np.sqrt(tau(l) * tau(q * p)))
    wb = g(lambda l, p: np.sqrt(tau(l) * tau(p / q)))
    return PhiImages(
        bundle=b,
        E1=(1.0 / kappa) * (b.u("alpha") @ wa),
        E2=(1.0 / kappa) * (b.u("beta") @ wb),
        F1=(1.0 / kappa) * (b.u("delta") @ wb),
        F2=(-1.0 / kappa) * (b.u("gamma") @ wa),
        K1=g(lambda l, p: np.sqrt(l * p)),
        K1inv=g(lambda l, p: 1.0 / np.sqrt(l * p)),
        K2=g(lambda l, p: np.sqrt(l / p)),
        K2inv=g(lambda l, p: np.sqrt(p / l)),
    )


def casimir_omega(images: PhiImages, copy: int = 1) -> WindowedOperator:
    """The Casimir Omega, from either copy.

    copy=1 evaluates uqsu11.casimir_terms on the first copy's generators;
    copy=2 returns minus the same combination in the second copy, which
    must agree with copy 1 on the interior (that cancellation is the
    decoupling identity, checked by omega_residuals).
    """
    omega = evaluate_terms(casimir_terms(*images.generators(copy), images.q))
    return omega if copy == 1 else (-1.0) * omega


def phi_relation_residuals(images: PhiImages, tol: float = 1e-10) -> list[RelationResidual]:
    """Defining relations of both su(1,1) copies, plus cross commutation.

    Per copy, the uqsu11.su11_relations table, labelled phi{i}_<label>:
    K K^-1 = 1, K = K*, F = E*, KE = qEK, [F,E] = (K^2 - K^-2)/(q - 1/q).
    Across copies every generator of one commutes with every generator of
    the other. All words are evaluated on the bundle's interior.
    """
    b = images.bundle
    ident = b.mul_fn(lambda l, p: 1.0)
    table = {}
    for i in (1, 2):
        relations = su11_relations(*images.generators(i), ident, images.q)
        table.update((f"phi{i}_{label}", terms) for label, terms in relations.items())
    for label, a, bb in (
        ("cross_e1_e2", images.E1, images.E2),
        ("cross_e1_f2", images.E1, images.F2),
        ("cross_f1_e2", images.F1, images.E2),
        ("cross_f1_f2", images.F1, images.F2),
        ("cross_k1_e2", images.K1, images.E2),
        ("cross_k2_e1", images.K2, images.E1),
    ):
        table[label] = [(1.0, [a, bb]), (-1.0, [bb, a])]
    return table_residuals(table.items(), b.margins(), b.exact_boundaries, tol)


def omega_residuals(
    images: PhiImages,
    c_expected: Optional[float] = None,
    tol: float = 1e-10,
    normalized: bool = False,
) -> list[RelationResidual]:
    """Casimir checks: both copies agree, Omega is central and self-adjoint.

    With c_expected set, also checks Omega = c * identity; on a bundle built
    from compatible sets that scalar is the defining parameter c.

    The Casimir cancels tau-sized terms, so the absolute float error of the
    raw identities grows with the largest weight on the window (fine on the
    default pi_c window, hopeless on deep tensor truncations). normalized
    right-multiplies every word by the inverse of a diagonal dominating all
    operands, which bounds every term without changing what is asserted;
    same policy as the normalized exchange relations.
    """
    b = images.bundle
    q = images.q
    omega_1 = casimir_terms(*images.generators(1), q)
    table = {"omega_two_ways": omega_1 + casimir_terms(*images.generators(2), q)}
    if c_expected is not None:
        ident = b.mul_fn(lambda l, p: 1.0)
        table["omega_scalar"] = omega_1 + [(-complex(c_expected), [ident])]
    omega = casimir_omega(images, copy=1)
    table["omega_self_adjoint"] = [(1.0, [omega]), (-1.0, [omega.adjoint()])]
    for name in ("alpha", "beta", "gamma", "delta"):
        u = b.u(name)
        table[f"omega_central_{name}"] = [(1.0, [omega, u]), (-1.0, [u, omega])]
    if normalized:
        norm = b.mul_fn(lambda l, p: 1.0 / (tau(q * l * p) + tau(q * l / p)))
        table = {
            label: [(z, [*word, norm]) for z, word in terms]
            for label, terms in table.items()
        }
    return table_residuals(table.items(), b.margins(), b.exact_boundaries, tol)


# -- enumeration of irreducible representation data ------------------------

# Clause names for the tensor-pair classification conditions, in the order
# they are stated: S lives over the x^2 lattice, T over the unit lattice,
# the two Casimir parameters are opposite, and the product of orbit base
# points lands in the even-exponent x^2 orbit.
TENSOR_CONDITIONS = (
    "S_in_x2_lattice",
    "T_in_unit_lattice",
    "casimir_sum_zero",
    "product_in_x2_even_orbit",
)


@dataclass(frozen=True)
class IrrepPair:
    """A compatible-set pair (S, T) passing the tensor conditions."""

    S: CompatibleSet
    T: CompatibleSet

    @property
    def q(self) -> float:
        return self.S.q

    @property
    def x(self) -> float:
        return self.S.y

    @property
    def c(self) -> float:
        return self.S.c

    def label(self) -> str:
        return (
            f"S={self.S.label()}@{self.S.gamma_exponent}"
            f" x T={self.T.label()}@{self.T.gamma_exponent}"
        )

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "x": self.x,
            "c": self.c,
            "S": {"kind": self.S.kind.value, "z_exponent": self.S.gamma_exponent},
            "T": {"kind": self.T.kind.value, "z_exponent": self.T.gamma_exponent},
            "label": self.label(),
        }


def pair_rejections(
    S: CompatibleSet, T: CompatibleSet, x: float, tol: float = 1e-9
) -> list[str]:
    """Names of the tensor conditions the pair violates; empty when valid.

    The product condition is decided on orbit base points only: each set
    lies in a single q^2 orbit, so z_S z_T in x^2 q^(2Z) is an exponent
    parity statement about the base points.
    """
    out = []
    if (
        S.descriptor.lattice is None
        or S.gamma_exponent is None
        or abs(S.y - x) > tol * max(1.0, x)
    ):
        out.append("S_in_x2_lattice")
    if (
        T.descriptor.lattice is None
        or T.gamma_exponent is None
        or abs(T.y - 1.0) > tol
    ):
        out.append("T_in_unit_lattice")
    if abs(S.c + T.c) > tol * max(1.0, abs(S.c)):
        out.append("casimir_sum_zero")
    if out:
        return out
    # z_S = x^2 q^a, z_T = q^b: product in x^2 q^(2Z) iff a + b is even
    if (S.gamma_exponent + T.gamma_exponent) % 2 != 0:
        out.append("product_in_x2_even_orbit")
    return out


def enumerate_irreps(q: float, x: float, c: float, window: int = 8) -> list[IrrepPair]:
    """All (S, T) pairs with S a c-set over x^2, T a (-c)-set over 1.

    The list is empty exactly when c is not an attainable Casimir value on
    these lattices. window only bounds the point previews in the sets.
    """
    s_sets = compatible_sets(x, c, q, window=window)
    t_sets = compatible_sets(1.0, -c, q, window=window) if s_sets else []
    return [IrrepPair(S=S, T=T) for S in s_sets for T in t_sets if not pair_rejections(S, T, x)]


# -- tensor-product model of the irreducible representations ---------------


@dataclass(frozen=True, kw_only=True)
class PiSTBundle(Bundle):
    """Generator bundle assembled on l2(S) (x) l2(T).

    A Bundle whose coordinates are (lambda, rho) = (rs, r/s), with pad 3
    and the exact ends of its two pi_T factors, so the full relation
    battery runs unchanged. `lifted` holds the raw tensor-factor operators
    (E1 = E_S (x) 1 and so on) for round-trip checks. Infinite sets are
    truncated; `truncated` is False only for the one-point trivial pair.
    """

    coords: Callable[..., tuple] = lambda r, s: (r * s, r / s)
    pad: int = 3
    pair: IrrepPair
    lifted: dict

    @property
    def c(self) -> float:
        return self.pair.c

    @property
    def truncated(self) -> bool:
        return len(self.exact_boundaries) < 4

    def to_json_dict(self) -> dict:
        return {
            "pair": self.pair.to_json_dict(),
            "window": self.window.to_json_dict(),
            "truncated": self.truncated,
            "generators": sorted(self.ops),
        }


def build_pi_ST(pair: IrrepPair, truncation: int = 24) -> PiSTBundle:
    """Assemble the four generators from pi_S (x) pi_T.

    alpha = (1/q - q) (E_S (x) 1) tau^(-1/2)(lambda) tau^(-1/2)(q rho) and
    companions: beta from E_T, gamma from -F_T (both with the rho/q weight
    swapped per the displacement), delta from F_S. The diagonal weights
    turn the unbounded tensor-factor shifts into contractions, so deep
    truncations stay well conditioned.

    Raises ValueError naming the violated tensor condition(s) when the pair
    does not satisfy them.
    """
    bad = pair_rejections(pair.S, pair.T, pair.x)
    if bad:
        raise ValueError("pair fails tensor conditions: " + ", ".join(bad))
    rep_S = build_pi_T(pair.S, truncation=truncation)
    rep_T = build_pi_T(pair.T, truncation=truncation)
    win = Window((rep_S.window.axes[0], rep_T.window.axes[0]))

    id_S = identity_op(rep_S.window)
    id_T = identity_op(rep_T.window)
    lifted = {
        "E1": tensor_op(rep_S.u("E"), id_T, win),
        "F1": tensor_op(rep_S.u("F"), id_T, win),
        "E2": tensor_op(id_S, rep_T.u("E"), win),
        "F2": tensor_op(id_S, rep_T.u("F"), win),
    }

    q = pair.q
    kappa = 1.0 / q - q
    ga = mul_op(lambda r, s: 1.0 / np.sqrt(tau(r * s) * tau(q * r / s)), win)
    gb = mul_op(lambda r, s: 1.0 / np.sqrt(tau(r * s) * tau(r / (q * s))), win)
    ops = {
        "alpha": kappa * (lifted["E1"] @ ga),
        "beta": kappa * (lifted["E2"] @ gb),
        "gamma": (-kappa) * (lifted["F2"] @ ga),
        "delta": kappa * (lifted["F1"] @ gb),
    }
    exact = frozenset(
        (axis, side)
        for axis, rep in enumerate((rep_S, rep_T))
        for _, side in rep.exact_boundaries
    )
    return PiSTBundle(
        q=q, pair=pair, window=win, ops=ops, lifted=lifted, exact_boundaries=exact
    )


def round_trip_residuals(b: Bundle, tol: float = 1e-10) -> list[RelationResidual]:
    """Rebuild each generator from its su(1,1) images and compare.

    Inverts the image formulas: alpha back from (1/q - q) E1 with the
    reciprocal tau weights, and companions. All operands are contractions,
    so the residual is depth-independent. On a tensor bundle this closes
    the loop lifted factors -> generators -> images -> generators.
    """
    images = build_phi_images(b)
    q = b.q
    kappa = 1.0 / q - q
    ga = b.mul_fn(lambda l, p: 1.0 / np.sqrt(tau(l) * tau(q * p)))
    gb = b.mul_fn(lambda l, p: 1.0 / np.sqrt(tau(l) * tau(p / q)))
    rebuilt = {
        "alpha": (kappa, images.E1, ga),
        "beta": (kappa, images.E2, gb),
        "gamma": (-kappa, images.F2, ga),
        "delta": (kappa, images.F1, gb),
    }
    table = (
        (f"roundtrip_{name}", [(z, [img, g]), (-1.0, [b.u(name)])])
        for name, (z, img, g) in rebuilt.items()
    )
    return table_residuals(table, b.margins(), b.exact_boundaries, tol)


def grading_residuals(st: PiSTBundle, tol: float = 1e-12) -> list[RelationResidual]:
    """K-values against the tensor grading: K1 = r and K2 = s pointwise."""
    images = build_phi_images(st)
    k1 = images.K1 - mul_op(lambda r, s: r, st.window)
    k2 = images.K2 - mul_op(lambda r, s: s, st.window)
    every = frozenset({(0, "low"), (0, "high"), (1, "low"), (1, "high")})
    return [
        relation_residual(
            [(1.0, [op])],
            ((0, 0), (0, 0)),
            label=label,
            tol=tol,
            exact_boundaries=every,
        )
        for label, op in (("grading_k1", k1), ("grading_k2", k2))
    ]


def support_residual(st: PiSTBundle, tol: float = 1e-12) -> RelationResidual:
    """Unit projections localize on single grid points.

    For every window point (r, s), the product of the copy-1 projection at
    r and the copy-2 projection at s must be exactly the diagonal matrix
    unit there: the gradings lambda rho = r^2 and lambda/rho = s^2 separate
    points of the product window.  Each copy's projections are built once
    per axis exponent.
    """
    images = build_phi_images(st)
    r_vals, s_vals = (g.ravel().tolist() for g in st.window.value_grids)
    unit_1 = np.stack([images.unit_1(r).grids[(0, 0)] for r in r_vals])
    unit_2 = np.stack([images.unit_2(s).grids[(0, 0)] for s in s_vals])
    cols = np.arange(len(s_vals))
    worst = 0.0
    for a, u1 in enumerate(unit_1):
        # row a of the window: the products with every copy-2 projection,
        # against the matrix units at (a, b)
        want = np.zeros(unit_2.shape)
        want[cols, a, cols] = 1.0
        worst = max(worst, float(np.abs(u1 * unit_2 - want).max()))
    return RelationResidual(
        label="support_grading",
        residual=worst,
        margins=((0, 0), (0, 0)),
        tol=tol,
    )


# -- spectrum of the Casimir ------------------------------------------------


@dataclass(frozen=True)
class SpectrumDescription:
    """Closed-form attainable Casimir values for parameters (q, x).

    The set is [c0, q + 1/q] together with two discrete families: tau(q^k)
    above, -tau(x^2 q^k) below ("tau(-v)" meaning -tau(v)). k0 is the
    unique integer with q < q^k0 x^2 <= 1 and
    -c0 = max(tau(q^(k0-1) x^2), tau(q^k0 x^2)).
    """

    q: float
    x: float
    k0: int
    c0: float
    right: float

    def contains(self, c: float, tol: float = 1e-9) -> bool:
        """Membership: interval within tol, discrete families by exponent.

        Discrete values are recognized by solving tau(v) = |c| for the root
        v <= 1 and matching v (or 1/v) on the relevant lattice, never by
        float comparison of tau values.
        """
        if self.c0 - tol <= c <= self.right + tol:
            return True
        if c >= 2.0:
            v = solve_wc(-c)
            return LatticeSpec(q=self.q).exponent_of(v) is not None
        if c <= -2.0:
            w = solve_wc(c)
            lat = LatticeSpec(q=self.q, base=self.x * self.x)
            return (
                lat.exponent_of(w) is not None
                or lat.exponent_of(1.0 / w) is not None
            )
        return False

    def to_json_dict(self, window: int = 12) -> dict:
        ks_pos = list(range(0, window + 1))
        ks_neg = list(range(-window, window + 1))
        return {
            "q": self.q,
            "x": self.x,
            "k0": self.k0,
            "c0": self.c0,
            "interval": [self.c0, self.right],
            "discrete_pos": ks_pos,
            "discrete_pos_values": [tau(self.q**k) for k in ks_pos],
            "discrete_neg": ks_neg,
            "discrete_neg_values": [
                -tau(self.x * self.x * self.q**k) for k in ks_neg
            ],
        }


def spec_omega_closed_form(q: float, x: float) -> SpectrumDescription:
    """Closed form of the attainable Casimir set for parameters (q, x)."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    # x^2 = q^t; want k0 with 0 <= k0 + t < 1
    t = math.log(x * x) / math.log(q)
    tn = round(t)
    if abs(t - tn) < EXPONENT_REL_TOL:
        t = float(tn)
    k0 = -math.floor(t)
    c0 = -max(tau(q ** (k0 - 1) * x * x), tau(q**k0 * x * x))
    return SpectrumDescription(q=q, x=x, k0=k0, c0=c0, right=q + 1.0 / q)


def default_c_grid(q: float, x: float, n: int = 400) -> list[float]:
    """Uniform grid covering both interval endpoints and both tails."""
    c0 = spec_omega_closed_form(q, x).c0
    lo = -max(8.0, abs(c0) + 2.0)
    return [float(v) for v in np.linspace(lo, 8.0, n)]


def exceptional_points(q: float, x: float, window: int = 12) -> list[float]:
    """The two discrete families, materialized for |k| <= window.

    The upper family tau(q^k) is symmetric in k, so only k >= 0 is listed;
    the lower one is not unless x^2 is a power of q.
    """
    pos = [tau(q**k) for k in range(0, window + 1)]
    neg = [-tau(x * x * q**k) for k in range(-window, window + 1)]
    return pos + neg


def spec_omega_brute_force(
    q: float,
    x: float,
    c_grid: Optional[list[float]] = None,
    window: int = 12,
) -> dict:
    """Membership by enumeration against the closed form, over a c grid.

    Every grid point plus every exceptional point with |k| <= window is
    tested both ways: brute membership is `enumerate_irreps nonempty`,
    closed membership is SpectrumDescription.contains. The report carries
    the closed-form data, per-point entries, and the agreement tally.
    """
    desc = spec_omega_closed_form(q, x)
    if c_grid is None:
        c_grid = default_c_grid(q, x)
    entries = []
    mismatches = []
    for c in list(c_grid) + exceptional_points(q, x, window):
        c = float(c)
        brute = bool(enumerate_irreps(q, x, c, window=4))
        closed = desc.contains(c)
        entries.append({"c": c, "brute": brute, "closed": closed})
        if brute != closed:
            mismatches.append(c)
    report = desc.to_json_dict(window=window)
    report["grid_agreement"] = {"checked": len(entries), "mismatches": len(mismatches)}
    if mismatches:
        report["mismatch_values"] = mismatches[:32]
    report["entries"] = entries
    return report
