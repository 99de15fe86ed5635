"""Sparse tensors as COO index/value arrays, and contractions over them.

A COO tensor is a pair (idx, val): an (nnz, ndim) integer index array and
its values.  A contraction of two operands is a matrix product over their
shared indices.  It splits along the connected components of the operands'
joint nonzero pattern and takes one dense product per component, components
of equal shape stacked into one batched product.  Sparse operands give many
small blocks and a dense pair a single block, so the work follows the
nonzero entries and no array is larger than the densest component needs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coo",
    "rank_within",
    "components",
    "coo_product",
    "coo_einsum",
    "coo_max_diff",
]


def coo(t: np.ndarray) -> tuple:
    """The nonzero entries of a dense array."""
    nz = np.nonzero(t)
    return np.stack(nz, axis=1), t[nz]


def rank_within(group: np.ndarray) -> np.ndarray:
    """Position of each element among the elements of its group, in index order."""
    order = np.argsort(group, kind="stable")
    count = np.bincount(group)
    out = np.empty_like(group)
    out[order] = np.arange(group.size) - np.repeat(np.cumsum(count) - count, count)
    return out


def components(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Component of each node 0..r.max(), nodes linked through a shared link id.

    Entry e joins node r[e] to link c[e].  Minimum-label propagation with
    pointer jumping, vectorized over entries; labels are 0..#components-1.
    """
    label = np.arange(r.max() + 1)
    while True:
        link_min = np.full(c.max() + 1, label.size)
        np.minimum.at(link_min, c, label[r])
        new = label.copy()
        np.minimum.at(new, r, link_min[c])
        new = new[new]
        if np.array_equal(new, label):
            return np.unique(label, return_inverse=True)[1]
        label = new


def _stack(slot, i, j, val, shape) -> np.ndarray:
    """Entries summed into a stack of dense blocks, at (slot, i, j)."""
    block = np.zeros(shape)
    np.add.at(block, (slot, i, j), val)
    return block


def coo_product(a: tuple, b: tuple) -> tuple:
    """sum_k A[r, k] B[k, c] for matrices given as entry lists (r, k, v), (k, c, v).

    Shared keys are linked through a common row of A or column of B; each
    connected component is one dense block product, and components of equal
    shape share one batched product.  Returns the entries (r, c, v) of the
    product, its exact zeros dropped.
    """
    (ra, ka, va), (kb, cb, vb) = a, b
    if ka.size == 0 or kb.size == 0:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    _, kid = np.unique(np.concatenate([ka, kb]), return_inverse=True)
    rows, rid = np.unique(ra, return_inverse=True)
    cols, cid = np.unique(cb, return_inverse=True)
    kid_a, kid_b = kid[: ka.size], kid[ka.size :]
    comp_k = components(kid, np.concatenate([rid, rows.size + cid]))
    comp_r = np.empty(rows.size, int)
    comp_r[rid] = comp_k[kid_a]
    comp_c = np.empty(cols.size, int)
    comp_c[cid] = comp_k[kid_b]
    n_comp = comp_k.max() + 1
    sizes = np.stack([np.bincount(x, minlength=n_comp) for x in (comp_r, comp_k, comp_c)], axis=1)
    shapes, kind = np.unique(sizes, axis=0, return_inverse=True)
    kind = kind.reshape(-1)
    slot = rank_within(kind)
    r_loc, k_loc, c_loc = rank_within(comp_r), rank_within(comp_k), rank_within(comp_c)
    ea, eb = comp_k[kid_a], comp_k[kid_b]  # component of each entry

    def placed(comp, loc, g, count, width):
        """Index of the rows (or columns) of kind g at their block positions."""
        mine = kind[comp] == g
        at = np.empty((count, width), int)
        at[slot[comp[mine]], loc[mine]] = np.nonzero(mine)[0]
        return at

    out = []
    for g, (nr, nk, nc) in enumerate(shapes):
        count = int(np.count_nonzero(kind == g))
        a_g, b_g = kind[ea] == g, kind[eb] == g
        left = _stack(slot[ea[a_g]], r_loc[rid[a_g]], k_loc[kid_a[a_g]], va[a_g], (count, nr, nk))
        right = _stack(slot[eb[b_g]], k_loc[kid_b[b_g]], c_loc[cid[b_g]], vb[b_g], (count, nk, nc))
        prod = left @ right
        s, i, j = np.nonzero(prod)
        row_at, col_at = placed(comp_r, r_loc, g, count, nr), placed(comp_c, c_loc, g, count, nc)
        out.append((rows[row_at[s, i]], cols[col_at[s, j]], prod[s, i, j]))
    return tuple(np.concatenate(x) for x in zip(*out))


def coo_einsum(subscripts: str, *ops, dim: int) -> tuple:
    """np.einsum over COO operands, as matrix products from the left.

    Each step multiplies the running result by the next operand over their
    shared letters, which must all be summed out there, and keeps the
    letters that the output or a later operand names.  Group a contraction
    into nested calls where a left-to-right order would keep too many.
    """
    inputs, out = subscripts.split("->")
    specs = inputs.split(",")
    letters, (idx, val) = specs[0], ops[0]

    def key(ix, spec, keep):
        return np.ravel_multi_index([ix[:, spec.index(c)] for c in keep], (dim,) * len(keep))

    for pos in range(1, len(specs)):
        spec, (idx2, val2) = specs[pos], ops[pos]
        later = out + "".join(specs[pos + 1 :])
        shared = [c for c in letters if c in spec]
        if not shared or any(c in later for c in shared):
            raise ValueError(f"{letters},{spec}: shared letters must be summed at this step")
        left = [c for c in letters if c not in spec and c in later]
        right = [c for c in spec if c not in letters and c in later]
        r, c, val = coo_product(
            (key(idx, letters, left), key(idx, letters, shared), val),
            (key(idx2, spec, shared), key(idx2, spec, right), val2),
        )
        idx = np.column_stack(
            np.unravel_index(r, (dim,) * len(left)) + np.unravel_index(c, (dim,) * len(right))
        )
        letters = "".join(left + right)
    return idx[:, [letters.index(c) for c in out]], val


def coo_max_diff(a: tuple, b: tuple, shape: tuple) -> float:
    """max |a - b| over the union of both supports."""
    keys = np.ravel_multi_index(np.concatenate([a[0], b[0]]).T, shape)
    _, inv = np.unique(keys, return_inverse=True)
    diff = np.bincount(inv, np.concatenate([a[1], -b[1]]))
    return float(np.abs(diff).max(initial=0.0))
