"""Sparse tensors as COO index/value arrays, and contractions over them.

A COO tensor is a pair (idx, val): an (nnz, ndim) integer index array and
its values.  A contraction of two operands is a matrix product over their
shared indices.  It splits along the connected components of the operands'
joint nonzero pattern and takes one dense product per component, components
of equal shape stacked into one batched product.  Sparse operands give many
small blocks and a dense pair a single block, so the work follows the
nonzero entries and no array is larger than the densest component needs.

A product's fixed cost does not grow with its blocks: one sort relabels the
row, key and column ids together, one labelling finds the components, one
sort lays out every block in one flat buffer per operand, and one pass maps
the product's nonzeros back to ids; only the batched matrix product is taken
once per block shape.

Several contractions are stepped in lockstep, one matrix product per step
for all of them: the operands of each step are placed in a direct sum, with
row, key and column ids offset per contraction, so their blocks never mix,
and the product is split back by row offset.  The keys of every use of one
operand array in a step are one integer matrix product of its index array
with the uses' weights, and contractions written with the same letters
share their plan, so a step costs a few numpy calls per operand array and
per step, and every block is the one the contraction alone would multiply.
Outputs are raveled keys, which `coo_max_diffs` compares for many pairs of
outputs in one sorted pass.

Column sets are split the same way (`split_blocks`), one SVD per block,
blocks of one shape batched: the density spans (`split_spans`) and the
bases of the Haar corners read these blocks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coo",
    "columns",
    "rank_within",
    "components",
    "matches",
    "summed",
    "coo_product",
    "coo_einsum",
    "coo_max_diffs",
    "split_blocks",
    "split_spans",
    "RANK_CUTOFF",
]

# Rank decisions (D1/D2, solver uniqueness) use a scaled singular value cutoff.
RANK_CUTOFF = 1e-10


def coo(t: np.ndarray) -> tuple:
    """The nonzero entries of a dense array, in row-major order."""
    # a boolean mask takes numpy's fast nonzero path; a float array does not
    at = np.flatnonzero(t != 0)
    return np.array(np.unravel_index(at, t.shape)).T.copy(), t.ravel()[at]


def columns(entries: tuple) -> tuple:
    """The index columns of COO entries, then their values."""
    idx, val = entries
    return (*idx.T, val)


def rank_within(group: np.ndarray) -> np.ndarray:
    """Position of each element among the elements of its group, in index order."""
    order = np.argsort(group, kind="stable")
    count = np.bincount(group)
    out = np.empty_like(group)
    out[order] = np.arange(group.size) - np.repeat(np.cumsum(count) - count, count)
    return out


def matches(x: np.ndarray, y: np.ndarray) -> tuple:
    """Index pairs (a, b) with x[a] == y[b], a ascending, b ascending within
    each a: the equi-join of two key arrays, from one sort of y."""
    order = y.argsort(kind="stable")
    lo = y.searchsorted(x, sorter=order)
    count = y.searchsorted(x, side="right", sorter=order) - lo
    a = np.arange(x.size).repeat(count)
    b = order[np.arange(a.size) + (lo - count.cumsum() + count).repeat(count)]
    return a, b


def summed(key: np.ndarray, val: np.ndarray) -> tuple:
    """One entry per distinct (nonnegative) key, in increasing order,
    holding the sum of its values in their order."""
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.flatnonzero(key != np.concatenate(([-1], key[:-1])))
    return key[first], np.add.reduceat(val[order], first)


def _relabel(x: np.ndarray) -> tuple:
    """The distinct values of x in increasing order, and the position of each
    element of x among them (np.unique with return_inverse, in fewer calls)."""
    order = x.argsort(kind="stable")  # ids come in sorted runs
    xs = x[order]
    step = np.empty(xs.size, dtype=bool)
    step[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=step[1:])
    inverse = np.empty(xs.size, dtype=np.intp)
    inverse[order] = step.cumsum() - 1
    return xs[step], inverse


def components(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Component of each node 0..r.max(), nodes linked through a shared link id.

    Entry e joins node r[e] to link c[e].  Minimum-label propagation with
    pointer jumping, vectorized over entries; labels are 0..#components-1,
    in the order of each component's smallest node.
    """
    label = np.arange(np.maximum.reduce(r) + 1)
    link_min = np.empty(np.maximum.reduce(c) + 1, dtype=label.dtype)
    while True:
        link_min.fill(label.size)
        np.minimum.at(link_min, c, label[r])
        least = link_min[c]
        if (least == label[r]).all():
            break  # every node carries the least label of its links
        np.minimum.at(label, r, least)
        label = label[label]
    # a converged label is the component's smallest node, its own label
    return ((label == np.arange(label.size)).cumsum() - 1)[label]


def coo_product(a: tuple, b: tuple) -> tuple:
    """sum_k A[r, k] B[k, c] for matrices given as entry lists (r, k, v), (k, c, v).

    Shared keys are linked through a common row of A or column of B; each
    connected component is one dense block product, and components of equal
    shape share one batched product.  Returns the entries (r, c, v) of the
    product, its exact zeros dropped, ordered by block shape, then component
    (by its smallest key), then row and column within the block.
    """
    (ra, ka, va), (kb, cb, vb) = a, b
    na, nb = ka.size, kb.size
    if na == 0 or nb == 0:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    # one relabelling of every id, rows before keys before columns: node
    # holds the rows of A, the keys of A and of B, then the columns of B
    k0 = int(np.maximum.reduce(ra)) + 1
    c0 = k0 + int(max(np.maximum.reduce(ka), np.maximum.reduce(kb))) + 1
    ids, node = _relabel(np.concatenate([ra, ka + k0, kb + k0, cb + c0]))
    n_rows, k_end = ids.searchsorted((k0, c0)).tolist()
    n_keys, n_cols = k_end - n_rows, ids.size - k_end
    key = node[na : 2 * na + nb] - n_rows
    link = np.concatenate([node[:na], node[2 * na + nb :]])
    comp_k = components(key, link)
    n_comp = int(np.maximum.reduce(comp_k)) + 1
    comp = np.empty(ids.size, dtype=np.intp)
    comp[n_rows : n_rows + n_keys] = comp_k
    comp[link] = comp_k[key]
    # each node's position among the nodes of its kind in its component;
    # `order` lists the nodes by (component, kind, id)
    group = comp * 3
    group[n_rows:] += 1
    group[n_rows + n_keys :] += 1
    # a stable sort of small labels is a radix sort once they fit 16 bits
    order = group.astype(np.min_scalar_type(3 * n_comp)).argsort(kind="stable")
    count = np.bincount(group, minlength=3 * n_comp)
    start = count.cumsum() - count
    local = np.empty(ids.size, dtype=np.intp)
    local[order] = np.arange(ids.size) - start.repeat(count)
    del group
    # components sorted by block shape (rows, keys, columns), each block at
    # its offset in one flat buffer per operand and one for the product
    shape = count.reshape(n_comp, 3)
    by_shape = np.lexsort(shape.T[::-1])
    s = shape[by_shape]
    size = s[:, [0, 1, 0]] * s[:, [1, 2, 2]]  # left, right and product blocks
    base = size.cumsum(axis=0) - size
    total = (base[-1] + size[-1]).tolist()
    first = [0, *((s[1:] != s[:-1]).any(axis=1).nonzero()[0] + 1).tolist()]
    comp_base = np.empty_like(base)
    comp_base[by_shape] = base
    ea = comp[node[:na]]
    left = np.bincount(
        comp_base[ea, 0] + local[node[:na]] * shape[ea, 1] + local[node[na : 2 * na]],
        va,
        minlength=total[0],
    )
    eb = comp_k[key[na:]]
    right = np.bincount(
        comp_base[eb, 1] + local[node[2 * na : 2 * na + nb]] * shape[eb, 2]
        + local[node[2 * na + nb :]],
        vb,
        minlength=total[1],
    )
    del ea, eb, key, link, node, local, comp
    prod = np.zeros(total[2])
    for lo, hi, (nr, nk, nc), (bl, br, bp) in zip(
        first, first[1:] + [n_comp], s[first].tolist(), base[first].tolist()
    ):
        if nr and nc:
            n = hi - lo
            np.matmul(
                left[bl : bl + n * nr * nk].reshape(n, nr, nk),
                right[br : br + n * nk * nc].reshape(n, nk, nc),
                out=prod[bp : bp + n * nr * nc].reshape(n, nr, nc),
            )
    del left, right  # a dense pair's blocks are as large as its output
    # each nonzero's block and position (i, j) in it, then its row and column
    at = np.flatnonzero(prod)
    val = prod[at]
    del prod
    blk = base[:, 2].searchsorted(at, side="right") - 1
    at -= base[blk, 2]
    i, j = np.divmod(at, s[blk, 2])
    del at
    whose = 3 * by_shape[blk]
    del blk
    i += start[whose]
    j += start[whose + 2]
    del whose
    return ids[order[i]], ids[order[j]] - c0, val


def _plan(letters: str, spec: str, later: frozenset, power: list) -> tuple:
    """One step of a contraction: (wa, wb, sizes, kept).

    The running result, with `letters`, is multiplied by an operand, with
    `spec`, over their shared letters, which must all be summed out there;
    the step keeps the letters in `later` (those of the output and the
    later operands), the running result's first.  wa holds the (row, key)
    weights of each running-result letter, wb the (key, column) weights of
    each operand letter, `power` the powers of dim from 1 up, and sizes
    the sizes of the row, key and column spaces.
    """
    shared = [c for c in letters if c in spec]
    if not shared or any([c in later for c in shared]):
        raise ValueError(f"{letters},{spec}: shared letters must be summed at this step")
    left = [c for c in letters if c not in spec and c in later]
    right = [c for c in spec if c not in letters and c in later]
    w_left, w_shared, w_right = (dict(zip(x[::-1], power)) for x in (left, shared, right))
    return (
        [(w_left.get(c, 0), w_shared.get(c, 0)) for c in letters],
        [(w_shared.get(c, 0), w_right.get(c, 0)) for c in spec],
        (power[len(left)], power[len(shared)], power[len(right)]),
        "".join(left + right),
    )


def coo_einsum(*contractions, dim: int) -> list:
    """np.einsum over COO operands, as matrix products from the left.

    Each contraction is a tuple (subscripts, op, op, ...) with every
    operand an (idx, val) pair, idx either the (nnz, ndim) index array or
    the raveled keys of an output, and the result the list of their outputs
    (key, val): key the output index raveled in base `dim`, its last letter
    varying fastest, and one entry per key.  Each step multiplies the running
    result by the next operand over their shared letters, which must all be
    summed out there, and keeps the letters that the output or a later
    operand names.  Group a contraction into nested calls where a
    left-to-right order would keep too many.

    The k-th steps of all contractions are one `coo_product` over the
    direct sum of their operands, row, key and column ids offset per
    contraction, and its result is split back by row offset.  Steps with
    the same letters share one plan, and the keys of every use of one
    operand array in a step are one integer matrix product, the offsets
    included.  A call costs one product per step of its longest
    contraction, and each output equals, bit for bit and entry order
    included, what its contraction gives alone.
    """
    specs = [subscripts.replace("->", ",").split(",") for subscripts, *_ in contractions]
    operands = [ops for _, *ops in contractions]
    # dim ** k for every group size k, up to the number of letters, and the
    # digit weights that unravel a key of k letters (the last k)
    power = [dim**k for k in range(max(len(set(s) - set(",->")) for s, *_ in contractions) + 1)]
    digits = np.array(power[::-1])
    # the running result of each contraction as (idx, val) and its letters;
    # a finished one as its output (key, val)
    results = [ops[0] for ops in operands]
    letters = [x[0] for x in specs]
    known = {}
    for pos in range(1, max(map(len, specs)) - 1):
        live = [n for n, x in enumerate(specs) if pos + 1 < len(x)]
        # contractions with the same letters share their plan
        plans = []
        for n in live:
            step = letters[n], specs[n][pos], frozenset("".join(specs[n][pos + 1 :]))
            plan = known.get(step)
            if plan is None:
                plan = known[step] = _plan(*step, power)
            plans.append(plan)
        # start[m] = (row, key, column) offsets of the m-th live contraction,
        # and the offsets of each use: a running result's (row, key), a
        # next operand's (key, column)
        if sum(a * b * c for _, _, (a, b, c), _ in plans) >= 2**62:
            raise OverflowError("contraction keys overflow int64; lower dim or the letters kept")
        start = np.zeros((len(live) + 1, 3), dtype=np.int64)
        np.cumsum([sizes for _, _, sizes, _ in plans], axis=0, out=start[1:])
        offsets = start.tolist()
        uses = {}
        for m, (n, (wa, wb, _, _)) in enumerate(zip(live, plans)):
            row0, key0, col0 = offsets[m]
            for side, op, w, off in ((0, results[n], wa, (row0, key0)), (1, operands[n][pos], wb, (key0, col0))):
                use = uses.setdefault(id(op[0]), (op, [], []))
                use[1].append(side)
                use[2].append(w + [off])
        parts = ([], [], [], [], [], [])  # rows, keys, values of A; keys, columns, values of B
        for (idx, val), sides, ws in uses.values():
            if idx.ndim == 1:  # an output's keys, unraveled once for all its uses
                idx = idx[:, None] // digits[digits.size - len(ws[0]) + 1 :] % dim
            w = np.array(ws, dtype=np.int64).transpose(1, 0, 2).reshape(len(ws[0]), -1)
            k = idx @ w[:-1]
            k += w[-1]
            for q, side in enumerate(sides):
                first, second, vals = parts[3 * side : 3 * side + 3]
                first.append(k[:, 2 * q])
                second.append(k[:, 2 * q + 1])
                vals.append(val)
        del uses
        r, c, val = coo_product(*(tuple(map(np.concatenate, parts[i : i + 3])) for i in (0, 3)))
        del parts
        # entries grouped by contraction, each group in product order, and
        # each entry's kept key, row key then column key
        which = np.searchsorted(start[1:-1, 0], r, side="right")
        count = np.bincount(which, minlength=len(live))
        grouped = np.argsort(which.astype(np.min_scalar_type(len(live))), kind="stable")
        del which
        key = r[grouped]
        del r
        key -= np.repeat(start[:-1, 0], count)
        key *= np.repeat([sizes[2] for _, _, sizes, _ in plans], count)
        key += c[grouped]
        del c
        key -= np.repeat(start[:-1, 2], count)
        val = val[grouped]
        del grouped
        bounds = np.cumsum(count).tolist()
        for n, (_, _, _, kept), lo, hi in zip(live, plans, [0, *bounds], bounds):
            k, v = key[lo:hi], val[lo:hi]
            out = specs[n][-1]
            if pos + 2 < len(specs[n]):
                results[n], letters[n] = (k[:, None] // digits[digits.size - len(kept) :] % dim, v), kept
            elif kept == out:
                results[n] = k, v
            else:  # each kept letter weighs dim ** (its place from the output's end)
                weights = [power[len(out) - 1 - out.index(c)] for c in kept]
                results[n] = k[:, None] // digits[digits.size - len(kept) :] % dim @ weights, v
    return results


def coo_max_diffs(pairs: list) -> np.ndarray:
    """max |a - b| over the union of both supports, for every pair (a, b).

    Each side is (key, val), its entries' raveled indices and values; the
    two sides of a pair ravel alike, and a side's value at a key is the sum
    of its entries there.  All pairs are summed in one pass: keys offset per
    pair, one stable sort, one sum per key (a's entries, then b's, in their
    order) and one maximum per pair.  A nan propagates to its pair's maximum.
    """
    sides = [side for pair in pairs for side in pair]
    keys = np.concatenate([key for key, _ in sides])
    vals = np.concatenate([v if s % 2 == 0 else -v for s, (_, v) in enumerate(sides)])
    del sides
    span = int(keys.max(initial=-1)) + 1
    keys += np.repeat(np.arange(len(pairs)) * span, [a[0].size + b[0].size for a, b in pairs])
    order = keys.argsort(kind="stable")
    keys = keys[order]
    vals = vals[order]
    del order
    # the first entry of each key, and of each pair among them
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    head = keys[first]
    del keys
    diff = np.abs(np.add.reduceat(vals, first)) if first.size else np.zeros(0)
    del vals
    # a zero past the end, so that a pair with no keys reads 0
    diff = np.append(diff, 0.0)
    at = head.searchsorted(np.arange(len(pairs)) * span)
    out = np.maximum.reduceat(diff, at)
    out[at == np.append(at[1:], head.size)] = 0.0
    return out


def split_blocks(col_sets: list) -> tuple:
    """SVDs of the blocks of several column sets over one row space.

    col_sets holds (rows, cols, vals) COO matrices, values finite (LAPACK
    may not return on inf or nan).  The rows split into the connected
    components of the sets' joint nonzero pattern, so each span is the sum
    of its blocks, a component's rows and one set's columns there.  Blocks
    of one height are stacked, columns zero-padded, and those of one width
    take one batched SVD.  Returns the distinct row ids, increasing, and
    per height, increasing, (rows, blocks, u, sv): rows[b] the positions in
    row_ids of component b's rows, blocks[b, s] set s's block, and u[b, s],
    sv[b, s] its SVD, largest first, zero-padded.
    """
    n_sets = len(col_sets)
    which = np.repeat(np.arange(n_sets), [len(s[0]) for s in col_sets])
    vals = np.concatenate([s[2] for s in col_sets])
    row_ids, r = _relabel(np.concatenate([s[0] for s in col_sets]))
    if vals.size == 0:
        return row_ids, []
    _, c = _relabel(np.concatenate([s[1] for s in col_sets]) * n_sets + which)
    comp = components(r, c)
    # rows listed by component, and each row's and column's place in its block
    by_comp = np.argsort(comp, kind="stable")
    height = np.bincount(comp)
    row_start = np.cumsum(height) - height
    local_row = np.empty(comp.size, dtype=np.intp)
    local_row[by_comp] = np.arange(comp.size) - np.repeat(row_start, height)
    col_group = np.empty(c.max() + 1, dtype=np.intp)
    col_group[c] = comp[r] * n_sets + which
    local_col = rank_within(col_group)
    width = np.bincount(col_group, minlength=height.size * n_sets).reshape(-1, n_sets)
    entry_comp = comp[r]

    stacks = []
    by_height = height.argsort(kind="stable")
    hs = height[by_height]
    edges = [0, *((hs[1:] != hs[:-1]).nonzero()[0] + 1).tolist(), hs.size]
    kind, slot = np.empty_like(by_height), np.empty_like(by_height)
    for g, (lo, hi) in enumerate(zip(edges, edges[1:])):
        kind[by_height[lo:hi]] = g
        slot[by_height[lo:hi]] = np.arange(hi - lo)
    entry_kind = kind[entry_comp]
    for g, (lo, hi) in enumerate(zip(edges, edges[1:])):
        members, h = by_height[lo:hi], int(hs[lo])
        wide = width[members]
        blocks = np.zeros((members.size, n_sets, h, int(wide.max())))
        e = entry_kind == g
        blocks[slot[entry_comp[e]], which[e], local_row[r[e]], local_col[c[e]]] = vals[e]
        u = np.zeros((members.size, n_sets, h, min(h, blocks.shape[3])))
        sv = np.zeros(u.shape[:2] + u.shape[3:])
        # one SVD per block width, without its padding
        for w in set(wide[wide > 0].tolist()):
            at, k = wide == w, min(h, w)
            u[at, :, :k], sv[at, :k], _ = np.linalg.svd(blocks[at][:, :, :w], full_matrices=False)
        rows = by_comp[row_start[members][:, None] + np.arange(h)]
        stacks.append((rows, blocks, u, sv))
    return row_ids, stacks


def split_spans(col_sets: list, pairs: tuple) -> tuple:
    """Ranks of several column sets, their worst span containment, and how
    much of each row their spans cover.

    The blocks of the (rows, cols, vals) sets and their SVDs come from
    `split_blocks`.  Ranks cut singular values at RANK_CUTOFF times the
    largest over all blocks of the set, the s_max of the dense SVD.  For
    each (x, y) in `pairs` the containment is the largest relative distance
    of a set-x column from span(set y).  Returns (ranks, worst, rows,
    cover): `rows` the distinct row ids, increasing, and cover[s, q] the
    squared norm of row rows[q] of set s's basis, the diagonal of the
    projection onto its span.
    """
    row_ids, stacks = split_blocks(col_sets)
    cover = np.zeros((len(col_sets), row_ids.size))
    s_max = np.max([sv.max(axis=(0, 2)) for *_, sv in stacks], axis=0, initial=0.0)
    ranks, worst = np.zeros(len(col_sets), dtype=int), 0.0
    for rows, blocks, u, sv in stacks:
        keep = sv > RANK_CUTOFF * s_max[:, None]
        ranks += keep.sum(axis=(0, 2))
        u *= keep[:, :, None, :]
        cover[:, rows] = np.square(u).sum(axis=3).transpose(1, 0, 2)
        for x, y in pairs:  # one pair at a time: a dense block is d^2 x d^2
            cols, basis = blocks[:, x], u[:, y]
            resid = cols - basis @ (np.swapaxes(basis, 1, 2) @ cols)
            norm = np.linalg.norm(cols, axis=1)
            live = norm > 0.0
            if live.any():
                worst = np.maximum(worst, (np.linalg.norm(resid, axis=1)[live] / norm[live]).max())
    return ranks.tolist(), worst, row_ids, cover
