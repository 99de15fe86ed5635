import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqg.cset import SetKind
from pcqg.lattice import tau
from pcqg.uqsu11 import build_pi_T, compatible_sets, verify_uqsu11_relations
from pcqg.windowed import op_norm_bound, relation_residual
from uqsu11_helpers import build_verma, casimir_op, relation_conditioning


def find(sets, kind):
    return [cs for cs in sets if cs.kind is kind]


def test_compatible_sets_discrete_pair():
    sets = compatible_sets(1.0, -4.25, 0.5)
    assert len(sets) == 2
    plus = find(sets, SetKind.PLUS_SERIES)[0]
    minus = find(sets, SetKind.MINUS_SERIES)[0]
    assert plus.descriptor.z == pytest.approx(0.125)
    assert minus.descriptor.z == pytest.approx(8.0)
    # T points step by q from the root of the base point
    assert plus.t_preview[0] == pytest.approx(math.sqrt(0.125))
    assert plus.t_preview[1] == pytest.approx(math.sqrt(0.125) * 0.5)


def test_compatible_sets_full_orbits():
    sets = compatible_sets(1.0, 0.0, 0.5)
    assert {cs.descriptor.z for cs in sets} == {0.5, 1.0}


def test_compatible_sets_membership_excludes():
    # lattice of y^2 = 0.3 misses 1 and the series bases at c = -2.5
    assert compatible_sets(math.sqrt(0.3), -2.5, 0.5) == []


def test_pi_T_frozen_top_coefficient():
    sets = compatible_sets(1.0, -4.25, 0.5)
    plus = find(sets, SetKind.PLUS_SERIES)[0]
    rep = build_pi_T(plus, truncation=12)
    top = rep.window.index_of((0,))
    col = rep.u("E").matrix[:, top]
    norm = np.linalg.norm(col)
    coeff = math.sqrt(tau(0.0625) - 4.25)
    assert coeff == pytest.approx(3.4369318, abs=1e-6)
    assert norm == pytest.approx(coeff / 1.5, abs=1e-6)
    assert norm == pytest.approx(2.2912879, abs=1e-6)


def test_pi_T_descent_stop():
    # F kills the top vector of the plus series: series boundary
    sets = compatible_sets(1.0, -4.25, 0.5)
    plus = find(sets, SetKind.PLUS_SERIES)[0]
    rep = build_pi_T(plus, truncation=12)
    top = rep.window.index_of((0,))
    assert np.linalg.norm(rep.u("F").matrix[:, top]) == 0.0
    assert tau(0.25) == 4.25


def test_pi_T_trivial():
    sets = compatible_sets(1.0, -2.5, 0.5)
    triv = find(sets, SetKind.TRIVIAL)[0]
    rep = build_pi_T(triv)
    assert rep.window.size == 1
    assert rep.u("E").matrix[0, 0] == 0.0
    assert rep.u("F").matrix[0, 0] == 0.0
    assert rep.u("K").matrix[0, 0] == pytest.approx(1.0)


def test_casimir_scalar_all_kinds():
    for c in (-4.25, -2.5, -2.0, 0.0, 1.3):
        for cs in compatible_sets(1.0, c, 0.5):
            rep = build_pi_T(cs, truncation=10)
            C = casimir_op(rep)
            res = relation_residual(
                [(1.0, [C]), (-c, [rep.u("K") @ rep.u("Kinv")])],
                rep.margins(),
                label="casimir",
                exact_boundaries=rep.exact_boundaries,
            )
            assert res.residual < 1e-10, (c, cs.kind, res.residual)


def test_casimir_trivial_frozen():
    sets = compatible_sets(1.0, -2.5, 0.5)
    triv = find(sets, SetKind.TRIVIAL)[0]
    C = casimir_op(build_pi_T(triv))
    assert C.matrix[0, 0] == pytest.approx(-2.5)


def test_casimir_fault_detection():
    sets = compatible_sets(1.0, -4.25, 0.5)
    rep = build_pi_T(find(sets, SetKind.PLUS_SERIES)[0], truncation=12)
    C = casimir_op(rep)
    res = relation_residual(
        [(1.0, [C]), (-(-4.25 + 1e-3), [rep.u("K") @ rep.u("Kinv")])],
        rep.margins(),
        label="casimir-off",
        exact_boundaries=rep.exact_boundaries,
    )
    assert res.residual >= 0.9e-3


def test_relations_pass_for_all_compatible_sets():
    for c in (-4.25, -2.5, 0.0, 1.3, -2.0):
        for cs in compatible_sets(1.0, c, 0.5):
            rep = build_pi_T(cs, truncation=10)
            for r in verify_uqsu11_relations(rep):
                assert r.passed, (c, cs.kind, str(r))


def test_relations_pass_offbase_lattice():
    # y = sqrt(0.7): the y^2 lattice carries full orbits for c > -2
    y = math.sqrt(0.7)
    for cs in compatible_sets(y, 0.0, 0.5):
        rep = build_pi_T(cs, truncation=10)
        for r in verify_uqsu11_relations(rep):
            assert r.passed, str(r)


def test_negative_control_identity_ops():
    # substituting identities for E, F, K makes [F,E] degenerate (0 = 0)
    # but breaks KE = qEK by the scalar (1 - q); the harness must notice
    sets = compatible_sets(1.0, 0.0, 0.5)
    rep = build_pi_T(sets[0], truncation=10)
    from pcqg.windowed import identity_op

    ident = identity_op(rep.window)
    import dataclasses

    fake = dataclasses.replace(rep, ops=dict.fromkeys(rep.ops, ident))
    rels = {r.label: r for r in verify_uqsu11_relations(fake)}
    assert not rels["ke_commutation"].passed
    assert rels["ke_commutation"].residual == pytest.approx(0.5)
    # scaling K alone leaves KE = qEK intact but breaks the commutator
    fake2 = dataclasses.replace(
        rep, ops={**rep.ops, "K": 2.0 * rep.u("K"), "Kinv": 0.5 * rep.u("Kinv")}
    )
    rels2 = {r.label: r for r in verify_uqsu11_relations(fake2)}
    assert not rels2["ef_commutator"].passed


def test_unit_projections_sum_to_identity():
    sets = compatible_sets(1.0, -4.25, 0.5)
    rep = build_pi_T(find(sets, SetKind.MINUS_SERIES)[0], truncation=8)
    ax = rep.window.axes[0]
    total = sum(rep.unit(n).matrix for n in ax.exponents())
    assert np.allclose(total, np.eye(rep.window.size))
    for n in ax.exponents():
        assert np.linalg.matrix_rank(rep.unit(n).matrix) <= 1


def test_gauge_uniqueness_abs_entries():
    # rebuilding with a different truncation leaves shared |entries| equal
    sets = compatible_sets(1.0, -4.25, 0.5)
    plus = find(sets, SetKind.PLUS_SERIES)[0]
    r1 = build_pi_T(plus, truncation=8)
    r2 = build_pi_T(plus, truncation=12)
    k = r1.window.size
    assert np.allclose(
        np.abs(r1.u("E").matrix), np.abs(r2.u("E").matrix[:k, :k])
    )


def test_verma_frozen_coefficients():
    rep = build_verma(2.0, 0.5, 6)
    e0 = rep.window.index_of((0,))
    e1 = rep.window.index_of((1,))
    # E e_0 = e_1
    assert rep.u("E").matrix[e1, e0] == pytest.approx(1.0)
    # F e_0 = 0
    assert np.linalg.norm(rep.u("F").matrix[:, e0]) == 0.0
    # F e_1 = -2.5 e_0 at y=2, q=0.5
    assert rep.u("F").matrix[e0, e1] == pytest.approx(-2.5)


def test_verma_y1_degenerate():
    rep = build_verma(1.0, 0.5, 6)
    e0 = rep.window.index_of((0,))
    e1 = rep.window.index_of((1,))
    assert rep.u("F").matrix[e0, e1] == pytest.approx(0.0)


def test_verma_relations():
    rep = build_verma(2.0, 0.5, 10)
    rels = {r.label: r for r in verify_uqsu11_relations(rep)}
    assert rels["k_invertible"].passed
    assert rels["ke_commutation"].passed
    assert rels["ef_commutator"].passed
    assert rels["unit_grading"].passed
    assert not rels["ef_adjoint"].passed


def test_verma_casimir_scalar():
    rep = build_verma(2.0, 0.5, 10)
    C = casimir_op(rep)
    res = relation_residual(
        [(1.0, [C]), (-rep.c, [rep.u("K") @ rep.u("Kinv")])],
        rep.margins(),
        label="verma-casimir",
        exact_boundaries=rep.exact_boundaries,
    )
    assert res.residual < 1e-10
    assert rep.c == pytest.approx(-tau(4.0 / 0.5))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([0.3, 0.5, 0.8]),
    st.floats(min_value=-7.0, max_value=5.0),
)
def test_property_relations_hold(q, c):
    # tolerance scaled by the weight magnitude: small q makes the series
    # coefficients blow up and the float error grows proportionally
    for cs in compatible_sets(1.0, c, q):
        rep = build_pi_T(cs, truncation=10)
        tol = 1e-12 * relation_conditioning(rep)
        for r in verify_uqsu11_relations(rep, tol=tol):
            assert r.passed, (q, c, cs.kind, str(r), tol)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0.5, 0.8]), st.floats(min_value=-6.0, max_value=4.0))
def test_property_casimir_scalar(q, c):
    for cs in compatible_sets(1.0, c, q):
        rep = build_pi_T(cs, truncation=10)
        C = casimir_op(rep)
        res = relation_residual(
            [(1.0, [C]), (-c, [rep.u("K") @ rep.u("Kinv")])],
            rep.margins(),
            exact_boundaries=rep.exact_boundaries,
        )
        assert res.residual < 1e-12 * relation_conditioning(rep) + 1e-12


def test_plus_series_rep():
    sets = compatible_sets(1.0, -4.25, 0.5)
    plus = find(sets, SetKind.PLUS_SERIES)[0]
    # plus series base exponent 3 over the y^2 lattice
    assert plus.gamma_exponent == 3
    rep = build_pi_T(plus, truncation=6)
    assert rep.c == -4.25
    ((_, e_grid),) = rep.u("E").grids.items()
    assert np.count_nonzero(e_grid)
