"""Bigraded corepresentations over the finite instances.

Corepresentations are stored as COO entries and checked by joins over
them.  The dense code they replaced is kept here as the oracle: (d, N, N)
coefficient slices, one (d, d) x (d, N^2) product per algebra element for
co1, one N x N product per nonzero structure constant for unitarity, and
the five-index array of the tensor product.  The co2 oracle is the corner
by corner `dense_co2` of tests/test_fd_blocks.py.
"""

import json

import numpy as np
import pytest

from pcqg import corep
from pcqg.cli import main
from pcqg.coo import coo
from pcqg.corep import (
    BigradedRep,
    regular_rep,
    tensor_reps,
    trivial_rep,
    verify_rep,
)
from pcqg.fdpcqg import (
    CheckResult,
    FinitePQG,
    cyclic_groupoid,
    from_finite_groupoid_algebra,
    from_finite_groupoid_functions,
    haar_cesaro,
    haar_linear_solve,
    haar_residuals,
    pair_groupoid,
    symmetric_groupoid,
    transitive_groupoid,
    verify_axioms,
)
from test_fd_blocks import INSTANCES as BLOCK_INSTANCES
from test_fd_blocks import PAIR5, ROTATIONS, ZOO, dense, dense_co2, dense_coeffs

PAIR2 = pair_groupoid(["1", "2"])
Z3 = cyclic_groupoid(3)
S3X2 = transitive_groupoid(["a", "b"], symmetric_groupoid(3))

INSTANCES = {
    "pair2_fn": (from_finite_groupoid_functions(PAIR2), PAIR2),
    "pair2_alg": (from_finite_groupoid_algebra(PAIR2), PAIR2),
    "z3_fn": (from_finite_groupoid_functions(Z3), Z3),
    "z3_alg": (from_finite_groupoid_algebra(Z3), Z3),
    "s3x2_fn": (from_finite_groupoid_functions(S3X2), S3X2),
    "s3x2_alg": (from_finite_groupoid_algebra(S3X2), S3X2),
}

# the residuals of the COO checks and of the dense oracle agree this closely
ORACLE_TOL = 1e-15


# -- dense oracle ---------------------------------------------------------------


def _algebra_product_slices(triples, A, B):
    """Slices of (sum_a e_a (x) A_a)(sum_b e_b (x) B_b), over the nonzero
    structure constants (a, b, c, mult[a, b, c])."""
    out = np.zeros_like(A)
    for a, b, c, m in triples:
        out[c] += m * (A[a] @ B[b])
    return out


def dense_verify_rep(X, tol=1e-10):
    """co1, co2 and unitary from dense (d, N, N) coefficient slices."""
    G = X.G
    coeffs = dense_coeffs(X)
    d, N = G.dim, X.space_dim
    mult, cop, star, units = (dense(G, f) for f in ("mult", "coproduct", "star", "units"))
    residuals = {}

    res = 0.0
    flat = coeffs.reshape(d, N * N)
    for a in range(d):
        # sum_i Delta(e_i)[a, b] X_i, one matrix product over the (d, N^2) view
        lhs = (cop[:, a, :].T @ flat).reshape(d, N, N)
        rhs = coeffs[a] @ coeffs
        res = np.maximum(res, np.abs(lhs - rhs).max(initial=0.0))
    residuals["co1"] = float(res)
    residuals["co2"] = dense_co2(X)

    row_grade = np.array([b[0] for b in X.blocks])
    col_grade = np.array([b[1] for b in X.blocks])
    star_slices = np.einsum("ia,iuv->avu", star, coeffs.conj())
    slots = np.arange(N)
    triples = [(*abc, mult[abc]) for abc in zip(*np.nonzero(mult))]
    unitary = []
    for prod, projections, grade in (
        (_algebra_product_slices(triples, star_slices, coeffs), units.sum(axis=0), col_grade),
        (_algebra_product_slices(triples, coeffs, star_slices), units.sum(axis=1), row_grade),
    ):
        target = np.zeros_like(prod)
        target[:, slots, slots] = projections[grade].T
        unitary.append(float(np.abs(prod - target).max(initial=0.0)))
    residuals["unitary"] = float(np.max(unitary))
    return [CheckResult(label, bool(r <= tol), r) for label, r in residuals.items()]


def dense_tensor_reps(X, Y):
    """(blocks, coeffs) of the middle-matched tensor product, from the
    five-index array of every slot pair."""
    pairs = [
        (u, v)
        for u in range(X.space_dim)
        for v in range(Y.space_dim)
        if X.blocks[u][1] == Y.blocks[v][0]
    ]
    blocks = tuple((X.blocks[u][0], Y.blocks[v][1]) for u, v in pairs)
    # Z_c[(u,v),(u',v')] = sum_{a,b} mult[a,b,c] X_a[u,u'] Y_b[v,v']
    full = np.einsum(
        "abc,auU,bvV->cuvUV", dense(X.G, "mult"), dense_coeffs(X), dense_coeffs(Y), optimize=True
    )
    rows = np.array([p[0] for p in pairs], dtype=int)
    cols = np.array([p[1] for p in pairs], dtype=int)
    return blocks, full[:, rows[:, None], cols[:, None], rows[None, :], cols[None, :]]


# -- cases: every instance of this file and of tests/test_fd_blocks.py ------------


def _rotated_regular(G, gpd, Q):
    """The regular corepresentation written in the basis f_i = sum_a Q[i, a] e_a
    of the rotated instance G: X_i = sum_a Q[i, a] R_a, no longer 0/1."""
    R = regular_rep(from_finite_groupoid_functions(gpd), gpd)
    coeffs = np.einsum("ia,auv->iuv", Q, dense_coeffs(R))
    return BigradedRep(G=G, blocks=R.blocks, entries=coo(coeffs))


def _cases():
    """name -> (instance, the regular corepresentation or None)."""
    cases = {f"corep:{name}": (G, None) for name, (G, _) in INSTANCES.items()}
    for name, (G, gpd) in INSTANCES.items():
        if name.endswith("_fn"):
            cases[f"corep:{name}"] = G, regular_rep(G, gpd)
    for name, G in BLOCK_INSTANCES.items():
        regular = None
        base = name.removesuffix("_fn")
        if name in ROTATIONS and ROTATIONS[name][1] == "fn":
            gpd, _, Q = ROTATIONS[name]
            regular = _rotated_regular(G, gpd, Q)
        elif base != name:
            gpd = {**ZOO, "pair5": PAIR5}[base]
            regular = regular_rep(G, gpd)
        cases[f"blocks:{name}"] = G, regular
    return cases


CASES = _cases()


def _reps(name):
    """The corepresentations checked on one case: the trivial one, its
    tensor square, and the regular one with its tensor products with the
    trivial one."""
    G, R = CASES[name]
    E = trivial_rep(G)
    reps = {"trivial": E, "trivial_x_trivial": (E, E)}
    if R is not None:
        reps["regular"] = R
        reps["regular_x_trivial"] = (R, E)
        reps["trivial_x_regular"] = (E, R)
    return reps


def _assert_same_checks(new, ref):
    assert [c.label for c in new] == [c.label for c in ref]
    for a, b in zip(new, ref):
        assert a.passed == b.passed, (a.label, a.residual, b.residual)
        assert abs(a.residual - b.residual) <= ORACLE_TOL, (a.label, a.residual, b.residual)


@pytest.mark.parametrize("name", sorted(CASES))
def test_coo_path_matches_dense_oracle(name):
    for kind, rep in _reps(name).items():
        if isinstance(rep, tuple):
            X, Y = rep
            rep = tensor_reps(X, Y)
            blocks, coeffs = dense_tensor_reps(X, Y)
            assert rep.blocks == blocks, kind
            assert np.abs(dense_coeffs(rep) - coeffs).max(initial=0.0) <= ORACLE_TOL, kind
        new, ref = verify_rep(rep), dense_verify_rep(rep)
        _assert_same_checks(new, ref)
        assert all(c.passed for c in new), (kind, [str(c) for c in new])


# -- entries as the only storage ---------------------------------------------------


S4X2 = transitive_groupoid(["a", "b"], symmetric_groupoid(4))


def _arrays(value):
    """Every array held in value, through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for x in value:
            yield from _arrays(x)
    elif isinstance(value, dict):
        for x in value.values():
            yield from _arrays(x)


@pytest.mark.parametrize("form", ["fn", "alg"])
def test_instance_holds_no_d3_array(form):
    """transitive(2, S4), d = 96: check, haar and reps pass, and neither the
    instance's fields nor anything it keeps (its entries, its corner maps)
    is an array of d^3 or more elements."""
    build = from_finite_groupoid_functions if form == "fn" else from_finite_groupoid_algebra
    G = build(S4X2)
    assert G.dim == 96
    assert verify_axioms(G).passed
    for route in (haar_cesaro, haar_linear_solve):
        assert all(c.passed for c in haar_residuals(G, route(G)))
    E = trivial_rep(G)
    reps = [E]
    if form == "fn":
        R = regular_rep(G, S4X2)
        reps += [R, tensor_reps(R, E)]
    for X in reps:
        _assert_rep_ok(X)
    # the fields, and the corner maps kept with the instance
    assert max(a.size for a in _arrays(vars(G))) < G.dim**3


PAIR8 = pair_groupoid(list("abcdefgh"))


@pytest.mark.parametrize("form", ["fn", "alg"])
def test_instance_holds_entries_only(form):
    """pair(8), n = 8 and d = 64: after the axiom check, both Haar routes
    with their residuals and the trivial corepresentation's check, nothing
    the instance holds has d^2 or more elements -- no dense star (d^2), no
    dense unit stack (n^2 d, as many here), no stack of its diagonal corner
    maps (n^2 d^2) -- built or read back from its file form."""
    build = from_finite_groupoid_functions if form == "fn" else from_finite_groupoid_algebra
    G = build(PAIR8)
    for H in (G, FinitePQG.from_json_dict(G.to_json_dict())):
        assert verify_axioms(H).passed
        for route in (haar_cesaro, haar_linear_solve):
            assert all(c.passed for c in haar_residuals(H, route(H)))
        _assert_rep_ok(trivial_rep(H))
        assert max(a.size for a in _arrays(vars(H))) < H.dim**2


def _twice(build):
    """Two objects of one class, built alike from pair(2)."""
    G, H = (from_finite_groupoid_functions(PAIR2) for _ in range(2))
    return build(G), build(H)


@pytest.mark.parametrize("build", [
    lambda G: G,
    lambda G: haar_linear_solve(G).phi(0, 0),
    haar_linear_solve,
    trivial_rep,
], ids=["FinitePQG", "GradedFunctional", "HaarFamily", "BigradedRep"])
def test_finite_objects_compare_by_identity(build):
    """Array fields cannot give a content `==` or a hash: two objects built
    alike are unequal without raising, and each is equal to itself and
    hashable.  `corep._same_instance` is the content comparison."""
    a, b = _twice(build)
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, a, b}) == 2


# -- single-instance properties ------------------------------------------------


def _assert_rep_ok(X, tol=1e-10):
    for check in verify_rep(X, tol=tol):
        assert check.passed, str(check)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_trivial_rep_valid(name):
    G, _ = INSTANCES[name]
    E = trivial_rep(G)
    assert E.space_dim == G.n_objects
    assert E.blocks == tuple((k, k) for k in range(G.n_objects))
    _assert_rep_ok(E)


def test_trivial_rep_one_object_is_unit():
    G, _ = INSTANCES["z3_fn"]
    E = trivial_rep(G)
    assert E.blocks == ((0, 0),)
    # the single slice stack is the algebra unit placed at (0, 0)
    assert np.abs(dense_coeffs(E)[:, 0, 0] - G.algebra_unit()).max() == 0.0


@pytest.mark.parametrize("name", [n for n in sorted(INSTANCES) if n.endswith("_fn")])
def test_regular_rep_valid(name):
    G, g = INSTANCES[name]
    R = regular_rep(G, g)
    assert R.space_dim == len(g.arrows)
    _assert_rep_ok(R)
    # every slice is a partial permutation: entries in {0, 1}, one per
    # composable pair
    vals = np.unique(dense_coeffs(R))
    assert set(vals.tolist()) <= {0.0, 1.0}
    assert len(R.entries[1]) == np.count_nonzero(g.comp >= 0)


def test_regular_rep_grading_by_source():
    G, g = INSTANCES["pair2_fn"]
    R = regular_rep(G, g)
    for slot, k in enumerate(g.src.tolist()):
        assert R.blocks[slot] == (k, k)


def test_regular_rep_rejects_foreign_instance():
    G, _ = INSTANCES["pair2_alg"]
    with pytest.raises(ValueError):
        regular_rep(G, Z3)


def test_tensor_with_trivial_is_identity():
    G, _ = INSTANCES["s3x2_fn"]
    E = trivial_rep(G)
    EE = tensor_reps(E, E)
    assert EE.blocks == E.blocks
    assert np.abs(dense_coeffs(EE) - dense_coeffs(E)).max() == 0.0


def test_tensor_regular_with_trivial():
    G, g = INSTANCES["s3x2_alg"]
    R = regular_rep(from_finite_groupoid_functions(g), g)
    # rebuild over the same instance the rep was made for
    Gfn = from_finite_groupoid_functions(g)
    E = trivial_rep(Gfn)
    RE = tensor_reps(R, E)
    assert RE.space_dim == R.space_dim
    _assert_rep_ok(RE)
    ER = tensor_reps(E, R)
    assert ER.space_dim == R.space_dim
    _assert_rep_ok(ER)


def test_tensor_square_of_regular():
    G, g = INSTANCES["pair2_fn"]
    R = regular_rep(G, g)
    RR = tensor_reps(R, R)
    # one pair per composable arrow pair
    n_composable = np.count_nonzero(g.comp >= 0)
    assert RR.space_dim == n_composable
    _assert_rep_ok(RR)
    blocks, coeffs = dense_tensor_reps(R, R)
    assert RR.blocks == blocks
    assert np.array_equal(dense_coeffs(RR), coeffs)


def test_tensor_associative():
    G, g = INSTANCES["pair2_fn"]
    R = regular_rep(G, g)
    E = trivial_rep(G)
    left = tensor_reps(tensor_reps(R, E), R)
    right = tensor_reps(R, tensor_reps(E, R))
    assert left.blocks == right.blocks
    assert np.abs(dense_coeffs(left) - dense_coeffs(right)).max() == 0.0


# -- corrupted corepresentations -------------------------------------------------


def test_corrupted_coefficient_detected():
    G, g = INSTANCES["pair2_fn"]
    R = regular_rep(G, g)
    bad = dense_coeffs(R)
    # a cross-block entry violates the bigrading constraint
    u, v = 0, R.space_dim - 1
    assert R.blocks[u] != R.blocks[v]
    bad[0, u, v] += 1e-3
    X = BigradedRep(G=G, blocks=R.blocks, entries=coo(bad))
    failed = {c.label for c in verify_rep(X) if not c.passed}
    assert "co2" in failed
    bad_check = next(c for c in verify_rep(X) if c.label == "co2")
    assert bad_check.residual > 1e-4


def _swap_two_arrows(R, g):
    """Basis arrows b and c of one hom-set trade slices: the block support
    and unitarity hold, multiplicativity does not."""
    hom = np.flatnonzero((g.src == g.src[0]) & (g.tgt == g.tgt[0]))
    b, c = hom[1:3]
    idx, val = R.entries
    i = idx[:, 0].copy()
    i[idx[:, 0] == b], i[idx[:, 0] == c] = c, b
    return BigradedRep(G=R.G, blocks=R.blocks, entries=(np.column_stack([i, idx[:, 1:]]), val))


def _conjugated(R, g):
    """T X_i T^-1 for T = diag(2, 1, ..., 1): multiplicative and in its
    blocks, since T keeps every slot's grade, but not unitary."""
    idx, val = R.entries
    t = np.ones(R.space_dim)
    t[0] = 2.0
    return BigradedRep(G=R.G, blocks=R.blocks, entries=(idx, val * t[idx[:, 1]] / t[idx[:, 2]]))


def _cross_block(R, g):
    """One coefficient moved into a slot pair of another corner."""
    idx, val = R.entries
    u, v = 0, R.space_dim - 1
    assert R.blocks[u] != R.blocks[v]
    return BigradedRep(G=R.G, blocks=R.blocks, entries=(np.vstack([idx, [0, u, v]]), np.append(val, 1e-3)))


@pytest.mark.parametrize(
    "label,corrupt",
    [("co1", _swap_two_arrows), ("unitary", _conjugated), ("co2", _cross_block)],
)
def test_corruption_fails_its_check(label, corrupt):
    G, g = INSTANCES["s3x2_fn"]
    X = corrupt(regular_rep(G, g), g)
    new = verify_rep(X)
    _assert_same_checks(new, dense_verify_rep(X))
    failed = {c.label: c.residual for c in new if not c.passed}
    assert failed.get(label, 0.0) > 1e-4
    if label != "co2":  # a cross-block coefficient breaks the products too
        assert set(failed) == {label}


# -- zero-dimensional corepresentations --------------------------------------------


def _restricted(E, slot):
    """The trivial corepresentation cut down to one slot."""
    idx, val = E.entries
    keep = (idx[:, 1] == slot) & (idx[:, 2] == slot)
    entries = np.column_stack([idx[keep, 0], 0 * idx[keep, 1:]]), val[keep]
    return BigradedRep(G=E.G, blocks=(E.blocks[slot],), entries=entries)


def _assert_empty_and_valid(X):
    assert X.space_dim == 0 and X.entries[1].size == 0
    checks = verify_rep(X)
    assert [c.label for c in checks] == ["co1", "co2", "unitary"]
    assert all(c.passed and c.residual == 0.0 for c in checks)


def test_tensor_without_a_matched_slot_is_empty():
    G, _ = INSTANCES["pair2_fn"]
    E = trivial_rep(G)
    _assert_empty_and_valid(tensor_reps(_restricted(E, 0), _restricted(E, 1)))


def test_verify_rep_on_the_zero_space():
    G, _ = INSTANCES["pair2_fn"]
    _assert_empty_and_valid(BigradedRep(G=G, blocks=(), entries=(np.zeros((0, 3), int), np.zeros(0))))


# -- at scale ----------------------------------------------------------------------


def test_fdqg_reps_on_pair10_takes_no_dense_contraction(monkeypatch, tmp_path, capsys):
    """The regular corepresentation of pair(10) and its tensor product with
    the trivial one, checked with no einsum and no tensordot."""

    def refuse(*args, **kwargs):
        raise AssertionError("dense contraction in corep")

    monkeypatch.setattr(corep.np, "einsum", refuse)
    monkeypatch.setattr(corep.np, "tensordot", refuse)
    path = tmp_path / "pair10.groupoid.json"
    path.write_text(json.dumps(pair_groupoid(list("abcdefghij")).to_json_dict()))
    assert main(["fdqg", "reps", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["space_dims"] == {"trivial": 10, "regular": 100, "regular_x_trivial": 100}
    assert report["passed"] and len(report["checks"]) == 9


def test_rep_shape_validation():
    G, _ = INSTANCES["z3_fn"]
    with pytest.raises(ValueError):
        # slot 1 on a one-slot space
        BigradedRep(G=G, blocks=((0, 0),), entries=(np.array([[0, 1, 0]]), np.ones(1)))
    with pytest.raises(ValueError):
        BigradedRep(G=G, blocks=((0, 0),), entries=(np.zeros((1, 2), int), np.ones(1)))
    with pytest.raises(ValueError):
        BigradedRep(G=G, blocks=((5, 0),), entries=(np.zeros((0, 3), int), np.zeros(0)))
