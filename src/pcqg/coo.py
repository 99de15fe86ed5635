"""Sparse tensors as COO index/value arrays, and contractions over them.

A COO tensor is a pair (idx, val): an (nnz, ndim) integer index array and
its values.  A contraction of two operands is a matrix product over their
shared indices.  It splits along the connected components of the operands'
joint nonzero pattern and takes one dense product per component, components
of equal shape stacked into one batched product.  Sparse operands give many
small blocks and a dense pair a single block, so the work follows the
nonzero entries and no array is larger than the densest component needs.

Several contractions are stepped in lockstep, one matrix product per step
for all of them: the operands of each step are placed in a direct sum, with
row, key and column ids offset per contraction, so their blocks never mix,
and the product is split back by row offset.  A product's fixed cost, the
component labelling and the grouping of the blocks by shape, is then paid
once per step rather than once per contraction, and every block is the one
the contraction alone would multiply.
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
    """Entries summed into a stack of dense blocks, at (slot, i, j), in entry order."""
    count, height, width = shape
    flat = (slot * height + i) * width + j
    return np.bincount(flat, val, minlength=count * height * width).reshape(shape)


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
    sizes = [np.bincount(x, minlength=n_comp) for x in (comp_r, comp_k, comp_c)]
    # one integer per block shape, ordered as the shapes are lexicographically
    dims = tuple(int(x.max()) + 1 for x in sizes)
    keys, kind = np.unique(np.ravel_multi_index(sizes, dims), return_inverse=True)
    shapes = np.column_stack(np.unravel_index(keys, dims))
    slot = rank_within(kind)
    r_loc, k_loc, c_loc = rank_within(comp_r), rank_within(comp_k), rank_within(comp_c)
    ea, eb = comp_k[kid_a], comp_k[kid_b]  # component of each entry

    def placed(comp, loc, g, count, width):
        """Index of the rows (or columns) of kind g at their block positions."""
        mine = kind[comp] == g
        at = np.empty((count, width), int)
        at[slot[comp[mine]], loc[mine]] = np.nonzero(mine)[0]
        return at

    def entries(g, nr, nk, nc):
        """The nonzero entries (r, c, v) of the block products of kind g."""
        count = int(np.count_nonzero(kind == g))
        a_g, b_g = kind[ea] == g, kind[eb] == g
        left = _stack(slot[ea[a_g]], r_loc[rid[a_g]], k_loc[kid_a[a_g]], va[a_g], (count, nr, nk))
        right = _stack(slot[eb[b_g]], k_loc[kid_b[b_g]], c_loc[cid[b_g]], vb[b_g], (count, nk, nc))
        prod = (left @ right).reshape(-1)
        # flat position at = (slot * nr + i) * nc + j of each nonzero entry
        at = np.flatnonzero(prod)
        val = prod[at]
        del left, right, prod  # a dense pair's blocks are as large as its output
        row = rows[placed(comp_r, r_loc, g, count, nr).reshape(-1)[at // nc]]
        col = cols[placed(comp_c, c_loc, g, count, nc).reshape(-1)[at // (nr * nc) * nc + at % nc]]
        return row, col, val

    out = [entries(g, *shape) for g, shape in enumerate(shapes)]
    return tuple(np.concatenate(x) for x in zip(*out))


def _steps(subscripts: str) -> tuple:
    """The steps of a contraction, (letters, spec, left, shared, right) each,
    and the positions of the output letters in its last kept letters."""
    inputs, out = subscripts.split("->")
    specs = inputs.split(",")
    letters, steps = specs[0], []
    for pos in range(1, len(specs)):
        spec = specs[pos]
        later = out + "".join(specs[pos + 1 :])
        shared = [c for c in letters if c in spec]
        if not shared or any(c in later for c in shared):
            raise ValueError(f"{letters},{spec}: shared letters must be summed at this step")
        left = [c for c in letters if c not in spec and c in later]
        right = [c for c in spec if c not in letters and c in later]
        steps.append((letters, spec, left, shared, right))
        letters = "".join(left + right)
    return steps, [letters.index(c) for c in out]


def coo_einsum(*contractions, dim: int) -> list:
    """np.einsum over COO operands, as matrix products from the left.

    Each contraction is a tuple (subscripts, op, op, ...), and the result
    the list of their outputs (idx, val).  Each step multiplies the running
    result by the next operand over their shared letters, which must all be
    summed out there, and keeps the letters that the output or a later
    operand names.  Group a contraction into nested calls where a
    left-to-right order would keep too many.

    The k-th steps of all contractions are one `coo_product` over the direct
    sum of their operands, row, key and column ids offset per contraction,
    and its result is split back by row offset.  A call costs one product
    per step of its longest contraction, and each output equals, bit for bit
    and entry order included, what its contraction gives alone.
    """
    plans = [_steps(subscripts) for subscripts, *_ in contractions]
    operands = [ops for _, *ops in contractions]
    # a running result is a list of (key, number of letters) parts, each key
    # the raveled index of consecutive kept letters, and the values: a
    # step's row and column ids, unraveled only where a letter is read
    results = [([(col, 1) for col in ops[0][0].T], ops[0][1]) for ops in operands]

    def columns(parts):
        return [
            col for key, width in parts if width for col in np.unravel_index(key, (dim,) * width)
        ]

    def key(cols, spec, keep, size):
        """The raveled index of the letters `keep`; 0 for every entry when none."""
        if not keep:
            return np.zeros(size, dtype=np.int64)
        return np.ravel_multi_index([cols[spec.index(c)] for c in keep], (dim,) * len(keep))

    def step(pos):
        """One product for the pos-th step of every contraction that has one."""
        live = [n for n, (steps, _) in enumerate(plans) if pos < len(steps)]
        # start[m] = (row, key, column) offsets of the m-th live contraction
        start = np.zeros((len(live) + 1, 3), dtype=np.int64)
        a, b = [], []
        for m, n in enumerate(live):
            letters, spec, left, shared, right = plans[n][0][pos]
            (parts, val), (idx2, val2) = results[n], operands[n][pos + 1]
            cols = columns(parts)
            row0, key0, col0 = start[m]
            a.append((
                key(cols, letters, left, val.size) + row0,
                key(cols, letters, shared, val.size) + key0,
                val,
            ))
            b.append((
                key(idx2.T, spec, shared, val2.size) + key0,
                key(idx2.T, spec, right, val2.size) + col0,
                val2,
            ))
            start[m + 1] = start[m] + [dim ** len(x) for x in (left, shared, right)]
        r, c, val = coo_product(*(tuple(np.concatenate(x) for x in zip(*op)) for op in (a, b)))
        which = np.searchsorted(start[:, 0], r, side="right") - 1
        bounds = np.concatenate([[0], np.cumsum(np.bincount(which, minlength=len(live)))])
        # entries grouped by contraction, each group in product order; every
        # index array here is as long as the output, so none outlives its use
        grouped = np.argsort(which, kind="stable")
        del which
        r, c, val = r[grouped], c[grouped], val[grouped]
        del grouped
        for m, n in enumerate(live):
            _, _, left, _, right = plans[n][0][pos]
            mine = slice(bounds[m], bounds[m + 1])
            parts = [(r[mine] - start[m, 0], len(left)), (c[mine] - start[m, 2], len(right))]
            results[n] = parts, val[mine]

    for pos in range(max(len(steps) for steps, _ in plans)):
        step(pos)
    out = []
    for _, order in plans:
        # each running result is dropped as its output is stacked
        parts, val = results.pop(0)
        cols = columns(parts)
        idx = np.empty((val.size, len(order)), dtype=np.int64)
        for n, i in enumerate(order):
            idx[:, n] = cols[i]
        out.append((idx, val))
    return out


def coo_max_diff(a: tuple, b: tuple, shape: tuple) -> float:
    """max |a - b| over the union of both supports."""
    keys = np.ravel_multi_index(np.concatenate([a[0], b[0]]).T, shape)
    _, inv = np.unique(keys, return_inverse=True)
    diff = np.bincount(inv, np.concatenate([a[1], -b[1]]))
    return float(np.abs(diff).max(initial=0.0))
