"""Bigraded corepresentations over the finite instances."""

import numpy as np
import pytest

from pcqg.corep import (
    BigradedRep,
    regular_rep,
    tensor_reps,
    trivial_rep,
    verify_rep,
)
from pcqg.fdpcqg import (
    cyclic_groupoid,
    from_finite_groupoid_algebra,
    from_finite_groupoid_functions,
    pair_groupoid,
    symmetric_groupoid,
    transitive_groupoid,
)

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
    assert np.abs(E.coeffs[:, 0, 0] - G.algebra_unit()).max() == 0.0


@pytest.mark.parametrize("name", [n for n in sorted(INSTANCES) if n.endswith("_fn")])
def test_regular_rep_valid(name):
    G, g = INSTANCES[name]
    R = regular_rep(G, g)
    assert R.space_dim == len(g.arrows)
    _assert_rep_ok(R)
    # every slice is a partial permutation: entries in {0, 1}
    vals = np.unique(R.coeffs)
    assert set(vals.tolist()) <= {0.0, 1.0}


def test_regular_rep_grading_by_source():
    G, g = INSTANCES["pair2_fn"]
    R = regular_rep(G, g)
    for slot, h in enumerate(g.arrows):
        k = g.objects.index(g.src[h])
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
    assert np.abs(EE.coeffs - E.coeffs).max() == 0.0


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
    n_composable = len(g.compose)
    assert RR.space_dim == n_composable
    _assert_rep_ok(RR)


def test_tensor_associative():
    G, g = INSTANCES["pair2_fn"]
    R = regular_rep(G, g)
    E = trivial_rep(G)
    left = tensor_reps(tensor_reps(R, E), R)
    right = tensor_reps(R, tensor_reps(E, R))
    assert left.blocks == right.blocks
    assert np.abs(left.coeffs - right.coeffs).max() == 0.0


def test_corrupted_coefficient_detected():
    G, g = INSTANCES["pair2_fn"]
    R = regular_rep(G, g)
    bad = R.coeffs.copy()
    # a cross-block entry violates the bigrading constraint
    u, v = 0, R.space_dim - 1
    assert R.blocks[u] != R.blocks[v]
    bad[0, u, v] += 1e-3
    X = BigradedRep(G=G, blocks=R.blocks, coeffs=bad)
    failed = {c.label for c in verify_rep(X) if not c.passed}
    assert "co2" in failed
    bad_check = next(c for c in verify_rep(X) if c.label == "co2")
    assert bad_check.residual > 1e-4


def test_rep_shape_validation():
    G, _ = INSTANCES["z3_fn"]
    with pytest.raises(ValueError):
        BigradedRep(G=G, blocks=((0, 0),), coeffs=np.zeros((G.dim, 2, 2)))
    with pytest.raises(ValueError):
        BigradedRep(G=G, blocks=((5, 0),), coeffs=np.zeros((G.dim, 1, 1)))
