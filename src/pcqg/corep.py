"""Bigraded representations of finite-dimensional instances.

A representation lives on a finite bigraded Hilbert space: each basis slot
carries an object pair (k, l), and the operator X = sum_i e_i (x) coeffs[i]
is stored through its algebra-coefficient slices.  Checks, the trivial
representation, the regular representation of a groupoid function algebra,
and the middle-matched tensor product are dense linear algebra; the block
support check (co2) applies every corner projection, as the nonzero entries
the instance keeps (`FinitePQG.corner_entries`), to the nonzero
coefficients as a COO product (`coo`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coo import coo, coo_max_diff, coo_product
from .fdpcqg import CheckResult, FiniteGroupoid, FinitePQG

__all__ = [
    "BigradedRep",
    "trivial_rep",
    "regular_rep",
    "tensor_reps",
    "verify_rep",
]


@dataclass(frozen=True)
class BigradedRep:
    """X = sum_i e_i (x) coeffs[i] on a space with one (k, l) grade per slot."""

    G: FinitePQG
    blocks: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        d = self.G.dim
        N = len(self.blocks)
        if self.coeffs.shape != (d, N, N):
            raise ValueError("coeffs must be (algebra dim, space dim, space dim)")
        n = self.G.n_objects
        for k, l in self.blocks:
            if not (0 <= k < n and 0 <= l < n):
                raise ValueError("block grade out of range")

    @property
    def space_dim(self) -> int:
        return len(self.blocks)


def trivial_rep(G: FinitePQG) -> BigradedRep:
    """One slot per object with diagonal grade; slices are the unit projections."""
    blocks = tuple((k, k) for k in range(G.n_objects))
    coeffs = np.transpose(G.units, (2, 0, 1)).copy()
    return BigradedRep(G=G, blocks=blocks, coeffs=coeffs)


def regular_rep(G: FinitePQG, gpd: FiniteGroupoid) -> BigradedRep:
    """Arrows acting on arrows by left translation, for a function algebra.

    Slot h sits in the diagonal grade of src(h); the basis arrow g maps
    delta_h to delta_{gh} when tgt(g) = src(h).  Unitary, and the coefficient
    slices are permutation blocks.
    """
    if G.basis != gpd.arrows:
        raise ValueError("instance basis does not enumerate the groupoid arrows")
    obj = {o: i for i, o in enumerate(gpd.objects)}
    slot = {h: i for i, h in enumerate(gpd.arrows)}
    N = len(gpd.arrows)
    blocks = tuple((obj[gpd.src[h]], obj[gpd.src[h]]) for h in gpd.arrows)
    coeffs = np.zeros((G.dim, N, N))
    for i, g in enumerate(gpd.arrows):
        for h in gpd.arrows:
            if gpd.tgt[g] == gpd.src[h]:
                coeffs[i, slot[gpd.compose[(g, h)]], slot[h]] = 1.0
    return BigradedRep(G=G, blocks=blocks, coeffs=coeffs)


def _same_instance(G: FinitePQG, H: FinitePQG) -> bool:
    if G is H:
        return True
    if G.objects != H.objects or G.basis != H.basis:
        return False
    return all(
        np.array_equal(getattr(G, f), getattr(H, f))
        for f in ("mult", "star", "units", "coproduct")
    )


def tensor_reps(X: BigradedRep, Y: BigradedRep) -> BigradedRep:
    """Middle-matched tensor product: slots pair where X column grade meets Y row grade."""
    if not _same_instance(X.G, Y.G):
        raise ValueError("representations live over different instances")
    pairs = [
        (u, v)
        for u in range(X.space_dim)
        for v in range(Y.space_dim)
        if X.blocks[u][1] == Y.blocks[v][0]
    ]
    blocks = tuple((X.blocks[u][0], Y.blocks[v][1]) for u, v in pairs)
    mult = X.G.mult
    # Z_c[(u,v),(u',v')] = sum_{a,b} mult[a,b,c] X_a[u,u'] Y_b[v,v']
    full = np.einsum("abc,auU,bvV->cuvUV", mult, X.coeffs, Y.coeffs, optimize=True)
    rows = np.array([p[0] for p in pairs])
    cols = np.array([p[1] for p in pairs])
    coeffs = full[:, rows[:, None], cols[:, None], rows[None, :], cols[None, :]]
    return BigradedRep(G=X.G, blocks=blocks, coeffs=coeffs)


def _algebra_product_slices(triples: list, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Slices of (sum_a e_a (x) A_a)(sum_b e_b (x) B_b), over the nonzero
    structure constants (a, b, c, mult[a, b, c])."""
    out = np.zeros_like(A)
    for a, b, c, m in triples:
        out[c] += m * (A[a] @ B[b])
    return out


def verify_rep(X: BigradedRep, tol: float = 1e-10) -> list:
    """Comultiplication compatibility, block support, and unitarity.

    Streams over coefficient slices so large tensor-product spaces stay
    within memory; the block-support check contracts only the nonzero
    coefficients, with the slot grades as index masks.
    """
    G = X.G
    d, N = G.dim, X.space_dim
    n = G.n_objects
    out = []

    res = 0.0
    flat = X.coeffs.reshape(d, N * N)
    for a in range(d):
        # sum_i Delta(e_i)[a, b] X_i, one matrix product over the (d, N^2) view
        lhs = (G.coproduct[:, a, :].T @ flat).reshape(d, N, N)
        rhs = X.coeffs[a] @ X.coeffs
        res = np.maximum(res, np.abs(lhs - rhs).max(initial=0.0))
    out.append(CheckResult("co1", res <= tol, res))

    row_grade = np.array([b[0] for b in X.blocks])
    col_grade = np.array([b[1] for b in X.blocks])
    # co2: the entries of every corner projection a -> 1^k_m a 1^l_nn, kept
    # with the instance, applied to the nonzero coefficients.  Each
    # coefficient must be fixed by the projection of its own corner and
    # killed by all others.
    proj_idx, proj_val = G.corner_entries
    x_idx, x_val = coo(X.coeffs)
    r, c, val = coo_product(
        (proj_idx[:, 0] * d + proj_idx[:, 1], proj_idx[:, 2], proj_val),
        (x_idx[:, 0], x_idx[:, 1] * N + x_idx[:, 2], x_val),
    )
    left = np.column_stack([r // d, r % d, c // N, c % N]), val
    shape = (n**4, d, N, N)
    # slot u of grade (k, l) and slot v of grade (m, nn) sit in corner (k, m, l, nn)
    u, v = x_idx[:, 1], x_idx[:, 2]
    corner = np.ravel_multi_index((row_grade[u], row_grade[v], col_grade[u], col_grade[v]), (n,) * 4)
    res = coo_max_diff(left, (np.column_stack([corner, x_idx]), x_val), shape)
    out.append(CheckResult("co2", res <= tol, res))

    # unitary: X^* X is diagonal with the target projection of each slot's
    # column grade, X X^* with the source projection of its row grade
    star_slices = np.einsum("ia,iuv->avu", G.star, X.coeffs.conj(), optimize=True)
    slots = np.arange(N)
    triples = [(*abc, G.mult[abc]) for abc in zip(*np.nonzero(G.mult))]
    residuals = []
    for prod, projections, grade in (
        (_algebra_product_slices(triples, star_slices, X.coeffs), G.units.sum(axis=0), col_grade),
        (_algebra_product_slices(triples, X.coeffs, star_slices), G.units.sum(axis=1), row_grade),
    ):
        target = np.zeros_like(prod)
        target[:, slots, slots] = projections[grade].T
        residuals.append(float(np.abs(prod - target).max(initial=0.0)))
    res = np.max(residuals)
    out.append(CheckResult("unitary", res <= tol, res))
    return out
