"""Decoupling images, tensor-product bundles, and the Casimir spectrum."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pcqg.cset import SetKind
from pcqg.decoupling import (
    IrrepPair,
    build_phi_images,
    build_pi_ST,
    casimir_omega,
    default_c_grid,
    enumerate_irreps,
    grading_residuals,
    omega_residuals,
    pair_rejections,
    phi_relation_residuals,
    round_trip_residuals,
    spec_omega_brute_force,
    spec_omega_closed_form,
    support_residual,
)
from pcqg.dynsu2 import DynParams, build_pi_c, verify_dynsu2_relations
from pcqg.lattice import tau
from pcqg.uqsu11 import compatible_sets
from pcqg.windowed import op_norm_bound, relation_residual

Q = 0.5


@pytest.fixture(scope="module")
def pi_c_bundle():
    return build_pi_c(DynParams(q=Q, x=1.0, c=0.0))


def _assert_all_pass(residuals, expected_labels=None):
    failed = [str(r) for r in residuals if not r.passed]
    assert not failed, "\n".join(failed)
    if expected_labels is not None:
        assert {r.label for r in residuals} == set(expected_labels)


# -- images on the function-algebra side ------------------------------------


@pytest.mark.parametrize("c,x", [(0.0, 1.0), (1.5, 1.0), (1.5, 0.7), (-1.9, 1.0)])
def test_phi_battery_on_pi_c(c, x):
    b = build_pi_c(DynParams(q=Q, x=x, c=c))
    images = build_phi_images(b)
    res = phi_relation_residuals(images)
    _assert_all_pass(res)
    assert len(res) == 16
    _assert_all_pass(omega_residuals(images, c_expected=c))


def test_phi_unit_projections_localize(pi_c_bundle):
    images = build_phi_images(pi_c_bundle)
    win = pi_c_bundle.window
    # copy-1 projection at r: diagonal indicator of lambda*rho = r^2
    r = Q ** 0.5
    p1 = images.unit_1(r).matrix
    nl, nr = win.exponent_grids
    assert np.array_equal(np.diag(p1).reshape(win.shape), np.where(nl + nr == 1, 1.0, 0.0))
    # joint projection picks the single point lambda = q, rho = 1
    joint = (images.unit_1(Q ** 0.5) @ images.unit_2(Q ** 0.5)).matrix
    expect = np.zeros_like(joint)
    expect[win.index_of((1, 0)), win.index_of((1, 0))] = 1.0
    assert np.array_equal(joint, expect)


def test_phi_unit_product_vanishes_off_lattice(pi_c_bundle):
    # r/s = q^(1/4) is not a lattice ratio, so the joint projection is zero
    images = build_phi_images(pi_c_bundle)
    joint = images.unit_1(Q ** 0.5) @ images.unit_2(Q ** 0.25)
    assert np.count_nonzero(joint.matrix) == 0


@pytest.mark.parametrize("m", [0, 1, 2])
def test_unit_transport_weight_identity(pi_c_bundle, m):
    # [F1, E1] restricted to the r weight space is the scalar
    # (r^2 - r^-2)/(q - 1/q)
    images = build_phi_images(pi_c_bundle)
    r = Q ** (m / 2.0)
    p = images.unit_1(r)
    scalar = (r * r - r ** -2.0) / (Q - 1.0 / Q)
    res = relation_residual(
        [
            (1.0, [images.F1, images.E1, p]),
            (-1.0, [images.E1, images.F1, p]),
            (-scalar, [p]),
        ],
        pi_c_bundle.margins(),
        label="unit_transport",
        tol=1e-10,
    )
    assert res.passed, str(res)


def test_casimir_omega_two_copies_match(pi_c_bundle):
    images = build_phi_images(pi_c_bundle)
    o1 = casimir_omega(images, copy=1)
    o2 = casimir_omega(images, copy=2)
    # both are diagonal; compare away from the truncation edge
    win = pi_c_bundle.window
    d1 = np.diag(o1.matrix).reshape(win.shape)
    d2 = np.diag(o2.matrix).reshape(win.shape)
    nl, nr = win.exponent_grids
    inner = (abs(nl) <= 8) & (abs(nr) <= 8)
    assert inner.sum() == 17 * 17
    assert np.all(abs(d1 - d2)[inner] < 1e-10)
    assert np.all(abs(d1)[inner] < 1e-10)  # c = 0 bundle
    with pytest.raises(ValueError):
        casimir_omega(images, copy=3)


def test_omega_scalar_wrong_c_detected(pi_c_bundle):
    images = build_phi_images(pi_c_bundle)
    res = {r.label: r for r in omega_residuals(images, c_expected=1e-3)}
    assert res["omega_scalar"].residual > 1e-4
    assert res["omega_two_ways"].passed


# -- enumeration -------------------------------------------------------------


def test_enumerate_frozen_discrete_case():
    pairs = enumerate_irreps(Q, 1.0, -4.25)
    got = {(p.S.kind, p.S.gamma_exponent, p.T.kind, p.T.gamma_exponent) for p in pairs}
    assert got == {
        (SetKind.PLUS_SERIES, 3, SetKind.FULL_ORBIT, 1),
        (SetKind.MINUS_SERIES, -3, SetKind.FULL_ORBIT, 1),
    }


def test_enumerate_frozen_principal_case():
    pairs = enumerate_irreps(Q, 1.0, 0.0)
    got = {(p.S.gamma_exponent, p.T.gamma_exponent) for p in pairs}
    assert got == {(0, 0), (1, 1)}
    assert all(p.S.kind is SetKind.FULL_ORBIT for p in pairs)


def test_enumerate_right_endpoint_has_trivial():
    pairs = enumerate_irreps(Q, 1.0, Q + 1.0 / Q)
    kinds = {p.T.kind for p in pairs}
    assert SetKind.TRIVIAL in kinds
    assert all(p.S.kind is SetKind.FULL_ORBIT for p in pairs)


def test_enumerate_empty_off_spectrum():
    assert enumerate_irreps(Q, 1.0, -2.6) == []
    assert enumerate_irreps(Q, 1.0, 3.0) == []


def test_pair_rejection_names():
    S = compatible_sets(1.0, -4.25, Q)[0]
    bad_parity = [
        t
        for t in compatible_sets(1.0, 4.25, Q)
        if (t.gamma_exponent + S.gamma_exponent) % 2 != 0
    ][0]
    assert pair_rejections(S, bad_parity, 1.0) == ["product_in_x2_even_orbit"]

    wrong_lattice = compatible_sets(0.7, -4.25 , Q)
    if wrong_lattice:
        assert "S_in_x2_lattice" in pair_rejections(wrong_lattice[0], bad_parity, 1.0)

    wrong_c = compatible_sets(1.0, -1.5, Q)[0]
    assert "casimir_sum_zero" in pair_rejections(S, wrong_c, 1.0)

    with pytest.raises(ValueError, match="product_in_x2_even_orbit"):
        build_pi_ST(IrrepPair(S=S, T=bad_parity))


# -- tensor-product bundles ---------------------------------------------------


def _pairs_for(x, c):
    pairs = enumerate_irreps(Q, x, c)
    assert pairs
    return pairs


@pytest.mark.parametrize(
    "x,c",
    [
        (1.0, -4.25),
        (1.0, 0.0),
        (1.0, 2.5),
        (math.sqrt(0.7), 0.0),
        (math.sqrt(0.7), -2.0),
    ],
)
def test_pi_st_relation_battery(x, c):
    for pair in _pairs_for(x, c):
        st = build_pi_ST(pair, truncation=16)
        res = verify_dynsu2_relations(st, tol=1e-9)
        assert len(res) == 22
        _assert_all_pass(res)


def test_pi_st_norm_bounds_deep():
    for pair in _pairs_for(1.0, -4.25):
        st = build_pi_ST(pair, truncation=24)
        for name in ("alpha", "beta", "gamma", "delta"):
            assert op_norm_bound(st.u(name)) <= 1.0 + 1e-12


def test_pi_st_round_trip_and_grading():
    pair = _pairs_for(1.0, -4.25)[0]
    st = build_pi_ST(pair, truncation=24)
    _assert_all_pass(
        round_trip_residuals(st),
        ["roundtrip_alpha", "roundtrip_beta", "roundtrip_gamma", "roundtrip_delta"],
    )
    _assert_all_pass(grading_residuals(st))
    assert support_residual(st).passed
    assert st.truncated


def test_round_trip_on_pi_c(pi_c_bundle):
    _assert_all_pass(round_trip_residuals(pi_c_bundle))


def test_omega_on_st_deep_normalized():
    pair = _pairs_for(1.0, -4.25)[0]
    st = build_pi_ST(pair, truncation=24)
    images = build_phi_images(st)
    res = omega_residuals(images, c_expected=-4.25, tol=1e-12, normalized=True)
    _assert_all_pass(res)


def test_phi_and_omega_on_st_shallow_raw():
    # raw absolute residuals stay below 1e-10 while the window is shallow
    for pair in _pairs_for(1.0, -4.25):
        st = build_pi_ST(pair, truncation=8)
        images = build_phi_images(st)
        _assert_all_pass(phi_relation_residuals(images))
        _assert_all_pass(omega_residuals(images, c_expected=-4.25))


def test_pi_st_casimir_value_matches_bundle_c():
    pair = _pairs_for(math.sqrt(0.7), -2.0)[0]
    st = build_pi_ST(pair, truncation=12)
    images = build_phi_images(st)
    res = {r.label: r for r in omega_residuals(images, c_expected=st.c, normalized=True, tol=1e-12)}
    assert res["omega_scalar"].passed


def test_pi_st_json_summary():
    pair = _pairs_for(1.0, 0.0)[0]
    st = build_pi_ST(pair, truncation=8)
    d = st.to_json_dict()
    json.dumps(d, sort_keys=True)
    assert d["generators"] == ["alpha", "beta", "delta", "gamma"]
    assert d["pair"]["c"] == 0.0


# -- spectrum ---------------------------------------------------------------


def test_spectrum_closed_form_frozen_x1():
    d = spec_omega_closed_form(Q, 1.0)
    assert d.k0 == 0
    assert d.c0 == -2.5
    assert d.right == 2.5


def test_spectrum_closed_form_frozen_x07():
    d = spec_omega_closed_form(Q, math.sqrt(0.7))
    assert d.k0 == 0
    assert abs(d.c0 - (-max(tau(1.4), tau(0.7)))) < 1e-12
    assert abs(d.c0 - (-2.1285714285714286)) < 1e-12


@pytest.mark.parametrize(
    "c,want",
    [
        (3.0, False),
        (4.25, True),
        (-2.6, False),
        (0.0, True),
        (2.0, True),
        (2.5, True),
        (-2.5, True),
        (-4.25, True),
        (tau(Q ** 5), True),
        (-tau(Q ** -7), True),
        (8.5001, False),
    ],
)
def test_spectrum_membership_x1(c, want):
    d = spec_omega_closed_form(Q, 1.0)
    assert d.contains(c) is want


def test_spectrum_membership_x07():
    d = spec_omega_closed_form(Q, math.sqrt(0.7))
    assert d.contains(-tau(0.35)) is True
    assert d.contains(-4.25) is False  # the x=1 family point is off this lattice
    assert d.contains(-2.12) is True  # inside the interval
    assert d.contains(-2.14) is False  # below c0, not exceptional


@pytest.mark.parametrize("x", [1.0, math.sqrt(0.7)])
def test_spectrum_brute_force_agreement(x):
    report = spec_omega_brute_force(Q, x)
    assert report["grid_agreement"]["mismatches"] == 0
    assert report["grid_agreement"]["checked"] == len(default_c_grid(Q, x)) + 13 + 25
    for key in ("c0", "interval", "discrete_pos", "discrete_neg", "grid_agreement"):
        assert key in report
    json.dumps(report, sort_keys=True)


def test_spectrum_interval_edges_both_ways():
    x = math.sqrt(0.7)
    d = spec_omega_closed_form(Q, x)
    for c, want in ((d.c0 + 0.01, True), (d.c0 - 0.01, False)):
        assert d.contains(c) is want
        assert bool(enumerate_irreps(Q, x, c)) is want


@settings(max_examples=60, deadline=None)
@given(hst.floats(min_value=-8.0, max_value=8.0))
def test_spectrum_brute_matches_closed_everywhere(c):
    d = spec_omega_closed_form(Q, 1.0)
    assert bool(enumerate_irreps(Q, 1.0, c)) == d.contains(c)
