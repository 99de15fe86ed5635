"""Bigraded corepresentations of finite-dimensional instances.

A corepresentation lives on a finite bigraded Hilbert space: each basis slot
carries an object pair (k, l), and the operator X = sum_i e_i (x) X_i is
stored as the nonzero entries (i, u, v) -> X_i[u, v] of its coefficient
slices.  The unit grading makes these sparse: every slice of the regular
corepresentation of a groupoid is a partial permutation, d times a hom-set's
size in all, where dense slices would hold d N^2 numbers.

Everything is made from entries, and the instance is read through its own
(its fields and `FinitePQG.corner_entries`).  The trivial corepresentation
is the unit entries, the regular one has one entry per composable pair of
arrows, and the middle-matched tensor product joins its factors' entries
through the nonzero structure constants, on keys that carry the slots'
grades, so only matched slots are ever paired.  The checks of `verify_rep`
are joins of entries on one (raveled) key (`coo.matches`, the join the Haar
system and the corner maps are built with), and their four (lhs, rhs) pairs
are compared in one `coo_max_diffs` pass, so no step forms a dense slice and
the cost follows the entries and the instance's nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coo import columns, coo_max_diffs, matches, summed
from .fdpcqg import CheckResult, FiniteGroupoid, FinitePQG

__all__ = [
    "BigradedRep",
    "trivial_rep",
    "regular_rep",
    "tensor_reps",
    "verify_rep",
]


@dataclass(frozen=True, eq=False)
class BigradedRep:
    """X = sum_i e_i (x) X_i on a space with one (k, l) grade per slot.

    `entries` is (idx, val), row (i, u, v) of the (nnz, 3) index array
    holding X_i[u, v]; entries at one index add up.
    """

    G: FinitePQG
    blocks: tuple
    entries: tuple

    def __post_init__(self):
        idx, val = self.entries
        if idx.shape != (len(val), 3):
            raise ValueError("entries must be an (nnz, 3) index array and nnz values")
        top = (self.G.dim, self.space_dim, self.space_dim)
        if idx.size and ((idx < 0).any() or (idx.max(axis=0) >= top).any()):
            raise ValueError("entry index out of range (algebra dim, space dim, space dim)")
        n = self.G.n_objects
        for k, l in self.blocks:
            if not (0 <= k < n and 0 <= l < n):
                raise ValueError("block grade out of range")

    @property
    def space_dim(self) -> int:
        return len(self.blocks)

    def grades(self) -> np.ndarray:
        """The row and column grade of every slot, as a (2, N) index array."""
        return np.array(self.blocks, dtype=np.intp).reshape(-1, 2).T


def trivial_rep(G: FinitePQG) -> BigradedRep:
    """One slot per object with diagonal grade; X_i[k, l] is the e_i
    coefficient of the unit projection 1^k_l."""
    k, l, i, val = columns(G.units)
    blocks = tuple((k, k) for k in range(G.n_objects))
    return BigradedRep(G=G, blocks=blocks, entries=(np.column_stack([i, k, l]), val))


def regular_rep(G: FinitePQG, gpd: FiniteGroupoid) -> BigradedRep:
    """Arrows acting on arrows by left translation, for a function algebra.

    Slot h sits in the diagonal grade of src(h); the basis arrow g maps
    delta_h to delta_{gh} when tgt(g) = src(h), one entry per composable
    pair.  Unitary, and the coefficient slices are partial permutations.
    """
    if G.basis != gpd.arrows:
        raise ValueError("instance basis does not enumerate the groupoid arrows")
    blocks = tuple(zip(gpd.src.tolist(), gpd.src.tolist()))
    g, h, gh = gpd.composable()
    return BigradedRep(G=G, blocks=blocks, entries=(np.column_stack([g, gh, h]), np.ones(len(g))))


def _same_instance(G: FinitePQG, H: FinitePQG) -> bool:
    if G is H:
        return True
    if G.objects != H.objects or G.basis != H.basis:
        return False
    return all(
        all(np.array_equal(a, b) for a, b in zip(getattr(G, f), getattr(H, f)))
        for f in ("mult", "star", "units", "coproduct")
    )


def tensor_reps(X: BigradedRep, Y: BigradedRep) -> BigradedRep:
    """Middle-matched tensor product: slots pair where X column grade meets Y row grade.

    Z_c[(u, v), (u', v')] = sum_{a, b} mult[a, b, c] X_a[u, u'] Y_b[v, v']:
    every nonzero mult[a, b, c] is joined with X's entries at a, then with
    Y's entries at b whose row and column grades are the column grades of
    X's u and u', so that both (u, v) and (u', v') are matched slots.
    """
    if not _same_instance(X.G, Y.G):
        raise ValueError("representations live over different instances")
    (x_row, x_col), (y_row, y_col) = X.grades(), Y.grades()
    u, v = matches(x_col, y_row)  # the matched slots, in (u, v) order
    pair_key = u * Y.space_dim + v
    blocks = tuple(zip(x_row[u].tolist(), y_col[v].tolist()))
    a, b, c, m = columns(X.G.mult)
    xi, xu, xv, xval = columns(X.entries)
    yi, yu, yv, yval = columns(Y.entries)
    n = X.G.n_objects
    p, q = matches(a, xi)
    s, r = matches(
        (b[p] * n + x_col[xu[q]]) * n + x_col[xv[q]], (yi * n + y_row[yu]) * n + y_row[yv]
    )
    p, q = p[s], q[s]
    M = len(u)
    key, val = summed(
        (c[p] * M + pair_key.searchsorted(xu[q] * Y.space_dim + yu[r])) * M
        + pair_key.searchsorted(xv[q] * Y.space_dim + yv[r]),
        m[p] * xval[q] * yval[r],
    )
    idx = np.column_stack(np.unravel_index(key, (X.G.dim, M, M)))
    return BigradedRep(G=X.G, blocks=blocks, entries=(idx, val))


def _product(mult: tuple, A: tuple, B: tuple, d: int, N: int) -> tuple:
    """Entries (ravel(c, u, v), val) of (sum_a e_a (x) A_a)(sum_b e_b (x) B_b).

    mult holds the entry columns (a, b, c, val) of the structure constants,
    A and B those (i, u, w, val) of two slice stacks.  Each nonzero
    mult[a, b, c] is joined with A's entries at a and the products summed
    at (b, w, c, u), then joined with B's entries at b whose row is w.
    """
    a, b, c, n = mult
    ai, au, aw, aval = A
    bi, bw, bv, bval = B
    p, q = matches(a, ai)
    key, val = summed(((b[p] * N + aw[q]) * d + c[p]) * N + au[q], n[p] * aval[q])
    bw_key, cu = np.divmod(key, d * N)
    s, t = matches(bw_key, bi * N + bw)
    return cu[s] * N + bv[t], val[s] * bval[t]


def verify_rep(X: BigradedRep, tol: float = 1e-10) -> list:
    """Comultiplication compatibility, block support, and unitarity.

    Each check compares two sets of entries, each made by joins on one key
    (`matches`), and all four (lhs, rhs) pairs go through one
    `coo_max_diffs` pass:
      co1      sum_i Delta(e_i)[a, b] X_i = X_a X_b, at (a, b, u, v);
      co2      each corner projection a -> 1^k_m a 1^l_n, applied through
               the instance's corner entries, fixes the coefficients of
               its own corner and kills all others, at (corner, c, u, v);
      unitary  X^* X is diagonal with the target projection of each slot's
               column grade, X X^* with the source projection of its row
               grade, at (c, u, v).
    """
    G = X.G
    d, N, n = G.dim, X.space_dim, G.n_objects
    i, u, v, x = columns(X.entries)
    row, col = X.grades()

    ci, ca, cb, cval = columns(G.coproduct)
    p, q = matches(ci, i)
    co1 = (((ca[p] * d + cb[p]) * N + u[q]) * N + v[q], cval[p] * x[q])
    p, q = matches(v, u)  # X_a[u, w] X_b[w, v]
    co1 = co1, (((i[p] * d + i[q]) * N + u[p]) * N + v[q], x[p] * x[q])

    # slot u of grade (k, l) and slot v of grade (m, nn) sit in corner (k, m, l, nn)
    g, pc, pi, pval = columns(G.corner_entries)
    p, q = matches(pi, i)
    corner = ((row[u] * n + row[v]) * n + col[u]) * n + col[v]
    co2 = (
        (((g[p] * d + pc[p]) * N + u[q]) * N + v[q], pval[p] * x[q]),
        (((corner * d + i) * N + u) * N + v, x),
    )

    # X^* = sum_j e_j (x) S_j with S_j = sum_a star[a, j] X_a^*, one entry per index
    sa, sj, sval = columns(G.star)
    p, q = matches(sa, i)
    key, val = summed((sj[p] * N + v[q]) * N + u[q], sval[p] * x[q].conj())
    S = (*np.unravel_index(key, (d, N, N)), val)
    mult, (uk, ul, uc, uval) = columns(G.mult), columns(G.units)
    unitary = []
    for prod, obj, grade in (
        (_product(mult, S, (i, u, v, x), d, N), ul, col),
        (_product(mult, (i, u, v, x), S, d, N), uk, row),
    ):
        # target projections sum_k 1^k_l, source ones sum_l 1^k_l, at (object, c)
        key, pv = summed(obj * d + uc, uval)
        p, q = matches(key // d, grade)
        unitary.append((prod, ((key[p] % d * N + q) * N + q, pv[p])))

    res = coo_max_diffs([co1, co2, *unitary]).tolist()
    res[2:] = [np.max(res[2:])]  # nan-propagating
    return [
        CheckResult(label, bool(r <= tol), float(r))
        for label, r in zip(("co1", "co2", "unitary"), res)
    ]
