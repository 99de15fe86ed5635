"""Block-split finite strand against the dense reference it replaced.

`verify_axioms` contracts the structure constants over their nonzero entries
and splits the D1 and D2 column spans along the connected components of
their nonzero pattern; `haar_linear_solve` lays its system out from the
nonzero entries of the corner bases, the coproduct and the unit stack and
drops the all-zero rows; the corner maps a -> 1^k_m a 1^l_n are joins of the
unit-stack and mult entries.  The dense code they replaced is kept here as
the oracle: d^4 tensors, one SVD per d^2 x d^2 column set, one Python call
per system row, all-zero rows included, and one einsum per corner map.  It
contracts mult and coproduct as (d, d, d) arrays scattered from the
instance's entries (`dense`), the only dense copies of them; the star and
the unit stack are scattered the same way.  Both
Haar solves take one refinement step after their lstsq.  The oracle refuses
instances past ORACLE_MAX_DIM before allocating anything; past it, function
forms are checked against the exact uniform Haar states instead.

The sparse product `coo.coo_product` is checked against the kernel it
replaced, `oracle_coo_product` below: the same entries, in the same order,
with the same bits.
"""

from dataclasses import replace

import numpy as np
import pytest

from pcqg import coo as coo_module
from pcqg import fdpcqg
from pcqg.coo import coo, coo_einsum, split_spans
from pcqg.corep import trivial_rep, verify_rep
from pcqg.fdpcqg import (
    RANK_CUTOFF,
    ZERO_TOL,
    AxiomReport,
    CheckResult,
    FinitePQG,
    GradedFunctional,
    _corner_bases,
    _haar_system,
    from_finite_groupoid_algebra,
    from_finite_groupoid_functions,
    haar_linear_solve,
    haar_residuals,
    pair_groupoid,
    raum_instance,
    standard_groupoids,
    symmetric_groupoid,
    transitive_groupoid,
    uniform_haar_oracle,
    verify_axioms,
)

ORACLE_MAX_DIM = 64
# dense corepresentation slices are d x N x N; refuse them past this size
MAX_DENSE_ENTRIES = 1 << 22
TOL = 1e-15
# D1's residual is the rounding left by projecting onto an SVD basis, about
# eps * sqrt(rows); one 576-row dense SVD of a rotated instance leaves 3.3e-15
# where its blocks leave 1.4e-15, so D1 gets the rounding of the dense path
D1_TOL = 1e-14


# -- dense oracle ---------------------------------------------------------------


def _refuse_large(G):
    if G.dim > ORACLE_MAX_DIM:
        raise ValueError(f"dense oracle refuses d = {G.dim} > {ORACLE_MAX_DIM}")


def _orth_basis(columns):
    """Orthonormal basis of the column span, rank-cut at RANK_CUTOFF * s_max."""
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0))
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, s > RANK_CUTOFF * s[0]]


def scatter(entries, shape):
    """The dense array of COO entries (idx, val), entries at one index summed."""
    out = np.zeros(shape, dtype=entries[1].dtype)
    np.add.at(out, tuple(entries[0].T), entries[1])
    return out


def dense(G, field):
    """An instance's field scattered from its entries: mult and coproduct
    as (d, d, d) arrays, star as (d, d) and the unit stack as (n, n, d), the
    arrays the dense oracles contract."""
    d, n = G.dim, G.n_objects
    shape = {"star": (d, d), "units": (n, n, d)}.get(field, (d, d, d))
    return scatter(getattr(G, field), shape)


def dense_sandwich(G, left, right):
    """(left e_i right)_c at [c, i]: the corner map as one contraction over the
    dense structure constants."""
    mult = dense(G, "mult")
    return np.einsum("a,aix,b,xbc->ci", left, mult, right, mult, optimize=True)


def _span_containment(cols, basis):
    worst = 0.0
    for c in cols.T:
        nc = np.linalg.norm(c)
        if nc == 0.0:
            continue
        worst = max(worst, np.linalg.norm(c - basis @ (basis.T @ c)) / nc)
    return worst


def dense_verify_axioms(G, tol=1e-10):
    _refuse_large(G)
    d, n = G.dim, G.n_objects
    mult, cop, star, units = (dense(G, f) for f in ("mult", "coproduct", "star", "units"))
    checks = []
    add = lambda label, residual, detail="": checks.append(
        CheckResult(label, bool(residual <= tol), float(residual), detail)
    )
    assoc = np.einsum("ijx,xkl->ijkl", mult, mult) - np.einsum("jkx,ixl->ijkl", mult, mult)
    add("assoc", np.abs(assoc).max())
    add("star_involution", np.abs(star @ star - np.eye(d)).max())
    lhs = np.einsum("ijk,kl->ijl", mult, star)
    rhs = np.einsum("ja,ib,abl->ijl", star, star, mult)
    add("star_antimult", np.abs(lhs - rhs).max())
    lhs = np.einsum("ijm,mab->ijab", mult, cop)
    rhs = np.einsum("ixy,jzw,xza,ywb->ijab", cop, cop, mult, mult, optimize=True)
    add("delta_multiplicative", np.abs(lhs - rhs).max())
    lhs = np.einsum("im,mab->iab", star, cop)
    rhs = np.einsum("ixy,xa,yb->iab", cop, star, star, optimize=True)
    add("delta_star", np.abs(lhs - rhs).max())

    res = 0.0
    product = lambda a, b: np.einsum("i,j,ijk->k", a, b, mult)
    one = G.algebra_unit()
    for k in range(n):
        for l in range(n):
            u = units[k, l]
            res = max(res, np.abs(u @ star - u).max(initial=0.0))
            res = max(res, np.abs(product(u, u) - u).max(initial=0.0))
            for k2 in range(n):
                for l2 in range(n):
                    if (k2, l2) != (k, l):
                        res = max(res, np.abs(product(u, units[k2, l2])).max(initial=0.0))
    for i in range(d):
        e = np.eye(d)[i]
        res = max(res, np.abs(product(e, one) - e).max())
        res = max(res, np.abs(product(one, e) - e).max())
    add("U1", res)

    res = 0.0
    for k in range(n):
        for l in range(n):
            target = np.einsum("mj,mk->jk", units[k], units[:, l])
            res = max(res, np.abs(np.einsum("i,ijk->jk", units[k, l], cop) - target).max())
    add("U2", res)

    coassoc = np.einsum("ijk,jab->iabk", cop, cop) - np.einsum("iam,mbk->iabk", cop, cop)
    add("C", np.abs(coassoc).max())

    missing = [G.objects[k] for k in range(n) if not np.any(np.abs(units[k, k]) > ZERO_TOL)]
    checks.append(
        CheckResult(
            "U3",
            not missing,
            0.0 if not missing else 1.0,
            f"vanishing diagonal units at {missing}" if missing else "",
        )
    )

    delta_one = sum(
        np.einsum("j,k->jk", units[k, m], units[m, l])
        for k in range(n)
        for m in range(n)
        for l in range(n)
    )
    left = np.einsum("xy,axu,byv->uvab", delta_one, mult, mult, optimize=True).reshape(d * d, d * d)
    mid = np.einsum("ijk,aju->ukai", cop, mult, optimize=True).reshape(d * d, d * d)
    right = np.einsum("ijk,bkv->jvbi", cop, mult, optimize=True).reshape(d * d, d * d)
    b_left, b_mid, b_right = _orth_basis(left), _orth_basis(mid), _orth_basis(right)
    res = max(
        _span_containment(left, b_mid),
        _span_containment(mid, b_left),
        _span_containment(left, b_right),
        _span_containment(right, b_left),
    )
    add("D1", res, f"ranks {b_left.shape[1]}/{b_mid.shape[1]}/{b_right.shape[1]}")

    P = sum(units[k, k] for k in range(n))
    pmat = dense_sandwich(G, P, P)
    ranks, witness = [], []
    for leg in (0, 1):
        cols = [np.einsum("i,ijk->jk", pmat @ np.eye(d)[i], cop) for i in range(d)]
        basis = _orth_basis(np.concatenate([c if leg == 1 else c.T for c in cols], axis=0).T)
        ranks.append(basis.shape[1])
        if basis.shape[1] < d:
            witness.append(G.basis[int(np.argmax(np.diag(np.eye(d) - basis @ basis.T)))])
    full = all(r == d for r in ranks)
    detail = f"span ranks {ranks}" if full else f"span ranks {ranks} < dim {d}, missing directions {witness}"
    checks.append(CheckResult("D2", full, 0.0 if full else float(d - min(ranks)), detail))

    nz = np.linalg.norm(units, axis=2) > ZERO_TOL
    reflexive = all(nz[k, k] for k in range(n))
    symmetric = bool(np.all(nz == nz.T))
    transitive = bool(np.all(~((nz @ nz) > 0) | nz))
    ok = reflexive and symmetric and transitive
    checks.append(
        CheckResult(
            "unit_equivalence_relation",
            ok,
            0.0 if ok else 1.0,
            "" if ok else f"reflexive={reflexive} symmetric={symmetric} transitive={transitive}",
        )
    )
    return AxiomReport(checks=tuple(checks))


def dense_haar_system(G, side="both"):
    """(M, b, corner_basis, offsets): one row per call, all-zero rows included."""
    _refuse_large(G)
    n, d = G.n_objects, G.dim
    cop, units = dense(G, "coproduct"), dense(G, "units")
    nonzero = [(k, m) for k in range(n) for m in range(n) if np.any(np.abs(units[k, m]) > ZERO_TOL)]
    corner_basis, offsets, total = {}, {}, 0
    for k, m in nonzero:
        u = units[k, m]
        corner_basis[(k, m)] = _orth_basis(dense_sandwich(G, u, u).T)
        offsets[(k, m)] = total
        total += corner_basis[(k, m)].shape[1]
    rows, rhs = [], []

    def add_row(coeffs, b):
        row = np.zeros(total)
        for km, dual in coeffs.items():
            if km in corner_basis:
                bmat = corner_basis[km]
                row[offsets[km] : offsets[km] + bmat.shape[1]] = dual @ bmat
        rows.append(row)
        rhs.append(b)

    for k in range(n):
        for l in range(n):
            for i in range(d):
                e = np.eye(d)[i]
                if side in ("left", "both"):
                    for j in range(d):
                        coeffs = {(k, l): cop[i, j, :].copy()}
                        for m in range(n):
                            coeffs[(m, l)] = coeffs.get((m, l), np.zeros(d)) - units[m, k, j] * e
                        add_row(coeffs, 0.0)
                if side in ("right", "both"):
                    for j in range(d):
                        coeffs = {(k, l): cop[i, :, j].copy()}
                        for m in range(n):
                            coeffs[(k, m)] = coeffs.get((k, m), np.zeros(d)) - units[l, m, j] * e
                        add_row(coeffs, 0.0)
    for km in nonzero:
        add_row({km: units[km]}, 1.0)
    return np.stack(rows), np.asarray(rhs), corner_basis, offsets


def dense_haar_linear_solve(G, side="both"):
    """(states, rank, residual, unique) from the row-by-row system."""
    M, b, corner_basis, offsets = dense_haar_system(G, side)
    x, _, rank, _ = np.linalg.lstsq(M, b, rcond=RANK_CUTOFF)
    # one refinement step: a single lstsq leaves ~1e-15 of rounding in the
    # states (1.1e-15 on pair5_fn), as much as TOL
    x += np.linalg.lstsq(M, b - M @ x, rcond=RANK_CUTOFF)[0]
    states = np.zeros((G.n_objects, G.n_objects, G.dim))
    for km, basis in corner_basis.items():
        states[km] = basis @ x[offsets[km] : offsets[km] + basis.shape[1]]
    return states, int(rank), float(np.abs(M @ x - b).max(initial=0.0)), rank == M.shape[1]


def dense_invariance(G, fam):
    n, d = G.n_objects, G.dim
    cop, units = dense(G, "coproduct"), dense(G, "units")
    res_l = res_r = 0.0
    for k in range(n):
        for l in range(n):
            phi = fam.phi(k, l)
            for i in range(d):
                rhs = sum(fam.phi(m, l).vector[i] * units[m, k] for m in range(n))
                res_l = max(res_l, np.abs(cop[i] @ phi.vector - rhs).max(initial=0.0))
                rhs = sum(fam.phi(k, m).vector[i] * units[l, m] for m in range(n))
                res_r = max(res_r, np.abs(cop[i].T @ phi.vector - rhs).max(initial=0.0))
    return res_l, res_r


def dense_coeffs(X):
    """The (d, N, N) coefficient slices of a corepresentation, its entries at
    one index summed; refused past MAX_DENSE_ENTRIES before allocating."""
    shape = (X.G.dim, X.space_dim, X.space_dim)
    if np.prod(shape) > MAX_DENSE_ENTRIES:
        raise ValueError(f"dense coefficients of shape {shape} exceed {MAX_DENSE_ENTRIES} entries")
    return scatter(X.entries, shape)


def dense_co2(X):
    G, n = X.G, X.G.n_objects
    coeffs, units = dense_coeffs(X), dense(X.G, "units")
    row_grade = np.array([b[0] for b in X.blocks])
    col_grade = np.array([b[1] for b in X.blocks])
    res = 0.0
    for k in range(n):
        for m in range(n):
            for l in range(n):
                for nn in range(n):
                    proj = dense_sandwich(G, units[k, m], units[l, nn])
                    left = np.einsum("ci,iuv->cuv", proj, coeffs)
                    rmask = (row_grade == k) & (col_grade == l)
                    cmask = (row_grade == m) & (col_grade == nn)
                    right = coeffs * rmask[None, :, None] * cmask[None, None, :]
                    res = max(res, float(np.abs(left - right).max(initial=0.0)))
    return res


def _oracle_rank_within(group):
    order = np.argsort(group, kind="stable")
    count = np.bincount(group)
    out = np.empty_like(group)
    out[order] = np.arange(group.size) - np.repeat(np.cumsum(count) - count, count)
    return out


def _oracle_components(r, c):
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


def _oracle_stack(slot, i, j, val, shape):
    count, height, width = shape
    flat = (slot * height + i) * width + j
    return np.bincount(flat, val, minlength=count * height * width).reshape(shape)


def oracle_coo_product(a, b):
    """The block product as first written: three np.unique relabellings,
    label propagation over the keys, and one stack, product and index map
    per block shape.  The entries (r, c, v) of sum_k A[r, k] B[k, c], in
    shape-major, component, row, column order, exact zeros dropped."""
    (ra, ka, va), (kb, cb, vb) = a, b
    if ka.size == 0 or kb.size == 0:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    _, kid = np.unique(np.concatenate([ka, kb]), return_inverse=True)
    rows, rid = np.unique(ra, return_inverse=True)
    cols, cid = np.unique(cb, return_inverse=True)
    kid_a, kid_b = kid[: ka.size], kid[ka.size :]
    comp_k = _oracle_components(kid, np.concatenate([rid, rows.size + cid]))
    comp_r = np.empty(rows.size, int)
    comp_r[rid] = comp_k[kid_a]
    comp_c = np.empty(cols.size, int)
    comp_c[cid] = comp_k[kid_b]
    n_comp = comp_k.max() + 1
    sizes = [np.bincount(x, minlength=n_comp) for x in (comp_r, comp_k, comp_c)]
    dims = tuple(int(x.max()) + 1 for x in sizes)
    keys, kind = np.unique(np.ravel_multi_index(sizes, dims), return_inverse=True)
    shapes = np.column_stack(np.unravel_index(keys, dims))
    slot = _oracle_rank_within(kind)
    r_loc, k_loc, c_loc = (_oracle_rank_within(x) for x in (comp_r, comp_k, comp_c))
    ea, eb = comp_k[kid_a], comp_k[kid_b]

    def placed(comp, loc, g, count, width):
        mine = kind[comp] == g
        at = np.empty((count, width), int)
        at[slot[comp[mine]], loc[mine]] = np.nonzero(mine)[0]
        return at

    def entries(g, nr, nk, nc):
        count = int(np.count_nonzero(kind == g))
        a_g, b_g = kind[ea] == g, kind[eb] == g
        left = _oracle_stack(slot[ea[a_g]], r_loc[rid[a_g]], k_loc[kid_a[a_g]], va[a_g], (count, nr, nk))
        right = _oracle_stack(slot[eb[b_g]], k_loc[kid_b[b_g]], c_loc[cid[b_g]], vb[b_g], (count, nk, nc))
        prod = (left @ right).reshape(-1)
        at = np.flatnonzero(prod)
        row = rows[placed(comp_r, r_loc, g, count, nr).reshape(-1)[at // nc]]
        col = cols[placed(comp_c, c_loc, g, count, nc).reshape(-1)[at // (nr * nc) * nc + at % nc]]
        return row, col, prod[at]

    out = [entries(g, *shape) for g, shape in enumerate(shapes)]
    return tuple(np.concatenate(x) for x in zip(*out))


def _checked_product(monkeypatch):
    """Make every coo_product compare itself with the oracle; returns the
    list that counts the products."""
    calls = []
    product = coo_module.coo_product

    def checked(a, b):
        got, want = product(a, b), oracle_coo_product(a, b)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2].tobytes() == want[2].tobytes()
        calls.append(1)
        return got

    monkeypatch.setattr(coo_module, "coo_product", checked)
    return calls


# -- instances ------------------------------------------------------------------


def _rotated(G, Q):
    """The same instance in the orthonormal basis f_i = sum_a Q[i, a] e_a."""
    mult, cop = dense(G, "mult"), dense(G, "coproduct")
    return FinitePQG(
        objects=G.objects,
        basis=G.basis,
        mult=coo(np.einsum("ia,jb,abc,kc->ijk", Q, Q, mult, Q, optimize=True)),
        star=coo(Q @ dense(G, "star") @ Q.T),
        units=coo(dense(G, "units") @ Q.T),
        coproduct=coo(np.einsum("ia,abc,jb,kc->ijk", Q, cop, Q, Q, optimize=True)),
    )


def _random_orthogonal(rng, size):
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))


def _corner_rotation(gpd, seed):
    """Random orthogonal map inside each span of hom(k, l), the unit corners."""
    rng = np.random.default_rng(seed)
    Q = np.zeros((len(gpd.arrows), len(gpd.arrows)))
    for k in range(len(gpd.objects)):
        for l in range(len(gpd.objects)):
            block = np.flatnonzero((gpd.src == k) & (gpd.tgt == l))
            if block.size:
                Q[np.ix_(block, block)] = _random_orthogonal(rng, len(block))
    return Q


ZOO = standard_groupoids()
PAIR5 = pair_groupoid(["a", "b", "c", "d", "e"])
INSTANCES = {"raum": raum_instance()}
# each rotated instance: its groupoid, form and basis change f = Q e
ROTATIONS = {}
for _name, _g in {**ZOO, "pair5": PAIR5}.items():
    INSTANCES[_name + "_fn"] = from_finite_groupoid_functions(_g)
    INSTANCES[_name + "_alg"] = from_finite_groupoid_algebra(_g)
# corners of size > 1, so D1 blocks hold more than one entry
for _name in ("z3", "union_z3_s3", "union_pair_z2", "s3x2"):
    for _form, _build in (("fn", from_finite_groupoid_functions), ("alg", from_finite_groupoid_algebra)):
        _Q = _corner_rotation(ZOO[_name], seed=len(_name))
        INSTANCES[f"{_name}_{_form}_corner_rotated"] = _rotated(_build(ZOO[_name]), _Q)
        ROTATIONS[f"{_name}_{_form}_corner_rotated"] = ZOO[_name], _form, _Q
# one global rotation: every column set is a single component, and every
# contraction a single dense block product
for _name, _seed in (("pair2", 1), ("union_pair_z2", 2), ("s3x2", 3)):
    _G = from_finite_groupoid_functions(ZOO[_name])
    _Q = _random_orthogonal(np.random.default_rng(_seed), _G.dim)
    INSTANCES[_name + "_fn_rotated"] = _rotated(_G, _Q)
    ROTATIONS[_name + "_fn_rotated"] = ZOO[_name], "fn", _Q


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_verify_axioms_matches_dense(name):
    G = INSTANCES[name]
    new, ref = verify_axioms(G), dense_verify_axioms(G)
    assert [c.label for c in new.checks] == [c.label for c in ref.checks]
    for a, b in zip(new.checks, ref.checks):
        assert (a.passed, a.detail) == (b.passed, b.detail), a.label
        tol = D1_TOL if a.label == "D1" else TOL
        assert abs(a.residual - b.residual) <= tol, (a.label, a.residual, b.residual)
    expected = ["D2"] if name == "raum" else []
    assert new.failed_axioms() == expected


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_haar_linear_solve_matches_dense(name):
    G = INSTANCES[name]
    # one-sided systems on the smaller instances only, to keep the oracle quick
    for side in ("both", "left", "right") if G.dim < 25 else ("both",):
        fam = haar_linear_solve(G, side=side)
        states, rank, residual, unique = dense_haar_linear_solve(G, side)
        diag = fam.diagnostics
        assert (diag["rank"], diag["unique"]) == (rank, unique)
        assert abs(diag["residual"] - residual) <= TOL
        for (k, m), phi in fam.states.items():
            assert np.abs(phi.vector - states[k, m]).max(initial=0.0) <= TOL
        checks = {c.label: c.residual for c in haar_residuals(G, fam)}
        res_l, res_r = dense_invariance(G, fam)
        assert abs(checks["invariance_left"] - res_l) <= TOL
        assert abs(checks["invariance_right"] - res_r) <= TOL


def _dense_bases(G, bases):
    """The basis entries (row, column, value) of `_corner_bases` as one
    (n^2, d, columns) array: each corner's basis vectors, zero elsewhere."""
    row, col, val = bases
    shape = (G.n_objects**2 * G.dim, int(col.max(initial=-1)) + 1)
    return scatter((np.column_stack([row, col]), val), shape).reshape(G.n_objects**2, G.dim, -1)


@pytest.mark.parametrize("name", sorted(n for n in INSTANCES if "rotated" not in n))
def test_haar_system_is_the_dense_one_without_zero_rows(name):
    """Corner by corner, the system times its basis, M[:, corner] B^T, is the
    dense system's, entry for entry, whichever orthonormal basis each
    corner gets: every entry of an unrotated system is one product, or the
    sum of two, so the order of summation cannot show."""
    G = INSTANCES[name]
    for side in ("both", "left", "right") if G.dim < 25 else ("both",):
        M, rhs, bases = _haar_system(G, side)
        ref, ref_rhs, ref_bases, offsets = dense_haar_system(G, side)
        keep = np.any(ref != 0.0, axis=1)
        assert M.shape == ref[keep].shape
        assert np.array_equal(rhs, ref_rhs[keep])
        basis = _dense_bases(G, bases)
        for (k, m), ref_basis in ref_bases.items():
            mine = basis[k * G.n_objects + m]
            cols = mine.any(axis=0)
            want = ref[keep][:, offsets[k, m] : offsets[k, m] + ref_basis.shape[1]] @ ref_basis.T
            assert np.array_equal(M[:, cols] @ mine[:, cols].T, want), (k, m)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_corner_bases_span_the_dense_ones(name):
    """The block-split basis of each diagonal corner is orthonormal, to the
    d ulps of an SVD's vectors (the dense SVD's own reach 8.9e-16 at d =
    24), and its projector is the dense SVD's within TOL, on blocks of one
    element and on the rotated instances' single dense block alike."""
    G = INSTANCES[name]
    n = G.n_objects
    units = dense(G, "units")
    live = np.flatnonzero((np.abs(units) > ZERO_TOL).any(axis=2))
    basis = _dense_bases(G, _corner_bases(G, live))
    # every basis vector lies in one corner
    assert np.array_equal(basis.any(axis=1).sum(axis=0), np.ones(basis.shape[2]))
    for q in live:
        u = units[divmod(q, n)]
        mine = basis[q][:, basis[q].any(axis=0)]
        ref = _orth_basis(dense_sandwich(G, u, u).T)
        assert mine.shape == ref.shape
        gram = mine.T @ mine - np.eye(mine.shape[1])
        assert np.abs(gram).max(initial=0.0) <= G.dim * np.finfo(float).eps
        assert np.abs(mine @ mine.T - ref @ ref.T).max() <= TOL


def test_haar_linear_solve_without_unit_corners():
    """Every unit vanishing: no unknowns, no rows kept, zero states."""
    G = replace(INSTANCES["z3_alg"], units=(np.zeros((0, 3), dtype=np.intp), np.zeros(0)))
    fam = haar_linear_solve(G)
    assert (fam.diagnostics["rank"], fam.diagnostics["n_unknowns"]) == (0, 0)
    assert not any(phi.vector.any() for phi in fam.states.values())


EXACT_HAAR = {
    **{name + "_fn": gpd for name, gpd in ZOO.items()},
    "pair7_fn": pair_groupoid(list("abcdefg")),
    "transitive3_s3_fn": transitive_groupoid(["a", "b", "c"], symmetric_groupoid(3)),
}


@pytest.mark.parametrize("name", sorted(EXACT_HAAR))
def test_haar_linear_solve_is_exact_on_function_forms(name):
    """Past the oracle's reach (d = 49, 54) as on the zoo: the uniform states."""
    gpd = EXACT_HAAR[name]
    G = from_finite_groupoid_functions(gpd)
    fam, exact = haar_linear_solve(G), uniform_haar_oracle(G, gpd)
    assert fam.diagnostics["rank"] == fam.diagnostics["n_unknowns"]
    for km, phi in fam.states.items():
        assert np.abs(phi.vector - exact.states[km].vector).max(initial=0.0) <= TOL


# corners of six elements, each span block of its mult wider than one row
T3_S3 = transitive_groupoid(["a", "b", "c"], symmetric_groupoid(3))
CORNER_CASES = {
    **INSTANCES,
    "transitive3_s3_fn_corner_rotated": _rotated(
        from_finite_groupoid_functions(T3_S3), _corner_rotation(T3_S3, seed=1)
    ),
}


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_corner_entries_match_dense(name):
    """Every corner map a -> 1^k_m a 1^l_n, one entry per index: bitwise on
    the 0/1 instances, within TOL on the rotated ones."""
    G = CORNER_CASES[name]
    n, d = G.n_objects, G.dim
    idx, val = G.corner_entries
    assert len(set(map(tuple, idx.tolist()))) == len(val)
    got = np.zeros((n**4, d, d))
    got[tuple(idx.T)] = val
    units = dense(G, "units")
    want = np.stack([
        dense_sandwich(G, units[k, m], units[l, nn]) for k, m, l, nn in np.ndindex((n,) * 4)
    ])
    if "rotated" in name:
        assert np.abs(got - want).max() <= TOL
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(n for n, G in INSTANCES.items() if G.n_objects > 1))
def test_graded_functional_off_diagonal(name):
    """A dual vector projected onto 1^k_m A 1^l_n with (k, m) != (l, n):
    the dense corner map's transpose applied to it."""
    G = INSTANCES[name]
    vector, units = np.random.default_rng(0).standard_normal(G.dim), dense(G, "units")
    for grading in np.ndindex((G.n_objects,) * 4):
        k, m, l, nn = grading
        if (k, m) == (l, nn):
            continue
        phi = GradedFunctional.graded(G, vector, grading)
        want = dense_sandwich(G, units[k, m], units[l, nn]).T @ vector
        tol = TOL * np.abs(vector).sum() if "rotated" in name else 0.0
        assert np.abs(phi.vector - want).max() <= tol, grading


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_co2_matches_dense(name):
    X = trivial_rep(INSTANCES[name])
    co2 = {c.label: c.residual for c in verify_rep(X)}["co2"]
    assert abs(co2 - dense_co2(X)) <= TOL
    if X.G.n_objects == 1:
        return  # one object: every coefficient sits in the only corner
    # a coefficient moved off its block must show in both
    bad = dense_coeffs(X)
    bad[:, 0, -1] += 0.5 * bad[:, 0, 0] + 0.25
    X = type(X)(G=X.G, blocks=X.blocks, entries=coo(bad))
    co2 = {c.label: c.residual for c in verify_rep(X)}["co2"]
    assert co2 > 0.1 and abs(co2 - dense_co2(X)) <= TOL


def _dense_split_reference(sets, pairs, rows):
    mats = []
    for r, c, v in sets:
        m = np.zeros((rows, max(c.max(initial=-1) + 1, 1)))
        m[r, c] = v
        mats.append(m)
    bases = [_orth_basis(m) for m in mats]
    worst = max(_span_containment(mats[x], bases[y]) for x, y in pairs)
    cover = np.stack([np.square(b).sum(axis=1) for b in bases])
    return [b.shape[1] for b in bases], worst, cover


@pytest.mark.parametrize("seed", range(8))
def test_split_spans_matches_dense_svd(seed):
    """Blocks of very different scale: ranks need the cutoff at the global s_max."""
    rng = np.random.default_rng(seed)
    sets = [[[], [], []] for _ in range(3)]
    row0, col0 = 0, [0, 0, 0]
    for block in range(rng.integers(3, 7)):
        height = int(rng.integers(1, 5))
        scale = 10.0 ** rng.choice([0.0, -4.0, -11.0, -13.0])
        basis = rng.standard_normal((height, int(rng.integers(1, height + 1))))
        for s in range(3):
            width = int(rng.integers(0, 4))
            # mostly inside span(basis), sometimes off it
            cols = basis @ rng.standard_normal((basis.shape[1], width))
            if rng.random() < 0.3:
                cols += 1e-3 * rng.standard_normal(cols.shape)
            r, c = np.nonzero(np.ones_like(cols))
            sets[s][0].append(row0 + r)
            sets[s][1].append(col0[s] + c)
            sets[s][2].append(scale * cols[r, c])
            col0[s] += width
        row0 += height
    sets = [tuple(np.concatenate(p) for p in s) for s in sets]
    # shuffle row ids, so that blocks are not contiguous
    perm = rng.permutation(row0)
    sets = [(perm[r], c, v) for r, c, v in sets]
    pairs = ((0, 1), (1, 0), (0, 2), (2, 0))
    ranks, worst, rows, cover = split_spans(sets, pairs)
    ref_ranks, ref_worst, ref_cover = _dense_split_reference(sets, pairs, row0)
    assert ranks == ref_ranks
    assert abs(worst - ref_worst) <= 1e-12
    # the diagonal of each projection, on the rows the sets touch
    assert np.abs(cover - ref_cover[:, rows]).max() <= 1e-12


SUBSCRIPTS = [
    "ijx,xkl->ijkl",
    "ijx,xkl->ikl",
    "iyza,jzyb->ijab",
    "xy,axu,byv->uvab",
    "ijk,aju->ukai",
    "ai,ij,jk,kb->ab",
    # a step that keeps no letter of one side: matrix-vector, vector-vector
    "ij,j->i",
    "j,j->",
]


def _random_operands(rng, subscripts, density, d):
    return [
        rng.standard_normal((d,) * len(spec)) * (rng.random((d,) * len(spec)) < density)
        for spec in subscripts.split("->")[0].split(",")
    ]


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_coo_einsum_matches_einsum(monkeypatch, subscripts, density):
    """Sparse operands split into many blocks, dense ones into a single block;
    every product gives the oracle's entries and bits."""
    calls = _checked_product(monkeypatch)
    rng = np.random.default_rng(len(subscripts) + int(100 * density))
    d = 5
    ops = _random_operands(rng, subscripts, density, d)
    [(key, val)] = coo_einsum((subscripts, *(coo(t) for t in ops)), dim=d)
    assert len(set(key.tolist())) == len(key)  # one entry per index
    rank = len(subscripts.split("->")[1])
    got = np.zeros(d**rank)
    got[key] = val
    assert np.abs(got.reshape((d,) * rank) - np.einsum(subscripts, *ops)).max() <= 1e-12
    assert len(calls) == subscripts.count(",")


@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_batched_coo_einsum_is_each_contraction_alone(density):
    """A batch gives every contraction its own entries and bits, in its own order.

    The batch mixes one, two and three steps, steps that keep no letter of
    one side, and one contraction whose first operand has no nonzeros.
    """
    rng = np.random.default_rng(int(100 * density))
    d = 5
    contractions = [
        (s, *(coo(t) for t in _random_operands(rng, s, density, d))) for s in SUBSCRIPTS
    ]
    empty = _random_operands(rng, "ijx,xkl->ijkl", density, d)
    contractions.append(("ijx,xkl->ijkl", coo(np.zeros_like(empty[0])), coo(empty[1])))
    batched = coo_einsum(*contractions, dim=d)
    assert len(batched) == len(contractions)
    for contraction, (key, val) in zip(contractions, batched):
        [(ref_key, ref_val)] = coo_einsum(contraction, dim=d)
        assert key.dtype == ref_key.dtype and key.shape == ref_key.shape
        assert np.array_equal(key, ref_key)
        assert val.tobytes() == ref_val.tobytes()
    assert batched[-1][0].shape == (0,)


def test_coo_einsum_key_overflow_is_an_overflow_error():
    """Keys raveled in base dim over six letters pass 2^62 at dim = 2000,
    however few the entries: an arithmetic limit, not malformed input."""
    a = (np.array([[0, 1, 2]]), np.array([1.0]))
    b = (np.array([[2, 0, 1, 3]]), np.array([2.0]))
    with pytest.raises(OverflowError, match="overflow int64"):
        coo_einsum(("ijx,xklm->ijklm", a, b), dim=2000)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_verify_axioms_takes_one_product_per_level(monkeypatch, name):
    """Two sparse products per check, whatever the instance: the products of
    two structure constants, then those of a first product with a third
    constant or with another first product; each gives the oracle's
    entries and bits.  One span pass takes the column sets of D1 and D2."""
    calls = _checked_product(monkeypatch)
    spans = []
    split = fdpcqg.split_spans
    monkeypatch.setattr(fdpcqg, "split_spans", lambda *a: spans.append(1) or split(*a))
    verify_axioms(INSTANCES[name])
    assert len(calls) == 2
    assert len(spans) == 1


@pytest.mark.parametrize("name", ["raum", "s3x2_fn_corner_rotated"])
@pytest.mark.parametrize("kept, n_sets", [("D1", 3), ("D2", 2)])
def test_linalg_error_in_one_density_check_keeps_the_other(monkeypatch, name, kept, n_sets):
    """An SVD that fails on one axiom's column sets fails that axiom alone:
    the other density check reports what it reports without the failure."""
    G = INSTANCES[name]
    expected = {c.label: c for c in verify_axioms(G).checks}
    split = fdpcqg.split_spans

    def failing(col_sets, pairs):
        if len(col_sets) != n_sets:
            raise np.linalg.LinAlgError("SVD did not converge")
        return split(col_sets, pairs)

    monkeypatch.setattr(fdpcqg, "split_spans", failing)
    checks = {c.label: c for c in verify_axioms(G).checks}
    failed = "D2" if kept == "D1" else "D1"
    assert not checks[failed].passed
    assert checks[failed].detail == "LinAlgError: SVD did not converge"
    assert {label: c for label, c in checks.items() if label != failed} == {
        label: c for label, c in expected.items() if label != failed
    }


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_verify_axioms_takes_no_dense_d3_operand(monkeypatch, name):
    """No einsum or tensordot of the check sees a (d, d, d)-sized array."""
    G = INSTANCES[name]

    def guarded(real):
        def call(*args, **kwargs):
            sizes = [np.size(a) for a in args if isinstance(a, np.ndarray)]
            assert max(sizes, default=0) < G.dim**3, sizes
            return real(*args, **kwargs)

        return call

    for fn in ("einsum", "tensordot"):
        monkeypatch.setattr(fdpcqg.np, fn, guarded(getattr(fdpcqg.np, fn)))
    verify_axioms(G)


def test_oracle_refuses_large_instances():
    G = from_finite_groupoid_functions(pair_groupoid([str(i) for i in range(9)]))
    with pytest.raises(ValueError, match="refuses"):
        dense_verify_axioms(G)
    with pytest.raises(ValueError, match="refuses"):
        dense_haar_linear_solve(G)
