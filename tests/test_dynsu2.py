"""Weight representation of dynamical SU(2): relations, coproduct,
antipode, x-symmetry.

Tolerances: the relation battery uses operands normalized to O(1), so
interior residuals sit at float noise (1e-14 and below); the asserted
bounds keep headroom above that without admitting real defects, which
show up at 1e-3 or larger in the fault-injection tests.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from pcqg import dynsu2, windowed
from pcqg.dynsu2 import (
    EPSNU_TO_NAME,
    DynParams,
    GEN_NAMES,
    antipode_block_check,
    antipode_check,
    antipode_square_check,
    build_delta_images,
    build_pi_c,
    coproduct_compat_check,
    default_window,
    generator_norm_bounds,
    generator_weight,
    verify_dynsu2_relations,
    x_symmetry_check,
)
from pcqg.lattice import LatticeSpec, tau
from pcqg.windowed import (
    RelationResidual,
    Window,
    WindowAxis,
    WindowedOperator,
    identity_op,
    required_margins,
    tensor_op,
)
from pcqg.words import CoeffFn, dirac_projection
from windowed_helpers import zero_op


def bundle(q=0.5, x=1.0, c=0.0, half=10):
    p = DynParams(q=q, x=x, c=c)
    return build_pi_c(p, default_window(p, half=half))


def test_params_validation():
    with pytest.raises(ValueError):
        DynParams(q=1.0)
    with pytest.raises(ValueError):
        DynParams(q=0.5, x=0.0)
    with pytest.raises(ValueError):
        build_pi_c(DynParams(q=0.5, c=2.0))
    with pytest.raises(ValueError):
        build_pi_c(DynParams(q=0.5, c=-2.3))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            DynParams(q=0.5, x=bad)
        with pytest.raises(ValueError):
            DynParams(q=0.5, c=bad)


def test_frozen_corner_weights():
    # q=1/2, c=0, at the lattice point (1,1)
    assert generator_weight(+1, +1, 1.0, 1.0, 0.0, 0.5) == pytest.approx(
        0.7071067811865476, abs=1e-12
    )
    assert generator_weight(-1, +1, 1.0, 1.0, 0.0, 0.5) == pytest.approx(
        -0.7071067811865476, abs=1e-12
    )
    b = bundle()
    i_src = b.window.index_of((0, 0))
    assert b.u("delta").matrix[b.window.index_of((-1, -1)), i_src] == pytest.approx(
        0.7071067811865476
    )
    assert b.u("beta").matrix[b.window.index_of((1, -1)), i_src] == pytest.approx(
        -0.7071067811865476
    )


def test_weights_bounded_by_one():
    for q in (0.3, 0.5, 0.8):
        for c in (0.0, 1.9, -1.9):
            for x in (1.0, 0.7):
                for eps in (-1, 1):
                    for nu in (-1, 1):
                        for i in range(-6, 7):
                            for j in range(-6, 7):
                                w = generator_weight(
                                    eps, nu, x * q**i, x * q**j, c, q
                                )
                                assert abs(w) < 1.0


def test_generator_norm_bounds():
    for c in (0.0, 1.5, -1.9):
        nb = generator_norm_bounds(bundle(c=c, half=8))
        for name, s in nb.items():
            assert s <= 1.0 + 1e-12, name
            assert s > 0.3


RELATION_COUNT = 22


@pytest.mark.parametrize("c,x", [(0.0, 1.0), (1.5, 0.7), (-1.9, 1.0)])
def test_relation_battery(c, x):
    rs = verify_dynsu2_relations(bundle(c=c, x=x), tol=1e-11)
    assert len(rs) == RELATION_COUNT
    labels = [r.label for r in rs]
    assert len(set(labels)) == RELATION_COUNT
    bad = [str(r) for r in rs if not r.passed]
    assert not bad, bad


def test_defining_suite_is_a_subset_of_full():
    b = bundle(half=6)
    full = {r.label: r.residual for r in verify_dynsu2_relations(b)}
    defining = verify_dynsu2_relations(b, suite="defining")
    assert len(defining) == 14
    assert all(r.label.startswith(("ort_", "id2_", "slide_")) for r in defining)
    assert all(full[r.label] == r.residual for r in defining)


def test_battery_validates_word_excursions(monkeypatch):
    """Words keep their letters apart, so required_margins sees each shift."""
    b = bundle(half=4)
    bare = replace(b, pad=0)
    with pytest.raises(ValueError, match="truncation artifacts"):
        verify_dynsu2_relations(bare)
    # the row and column sums u u* and u* u return to their start: only the
    # intermediate shift needs a margin, and a pre-multiplied word hides it
    needed = {}
    real = windowed.relation_residual

    def spy(terms, margin, **kw):
        needed[kw["label"]] = required_margins(terms, b.window)
        return real(terms, margin, **kw)

    monkeypatch.setattr(windowed, "relation_residual", spy)
    verify_dynsu2_relations(b)
    for label in ("ort_row_1", "ort_row_2", "ort_col_1", "ort_col_2"):
        assert max(max(sides) for sides in needed[label]) == 1, label


def test_relation_battery_other_q():
    rs = verify_dynsu2_relations(bundle(q=0.8, c=0.4, half=8), tol=1e-11)
    assert all(r.passed for r in rs)


def test_theta_flip_detected():
    b = bundle()
    ops = dict(b.ops)
    ops["beta"] = (-1.0) * b.u("beta")
    b2 = replace(b, ops=ops)
    rs = {r.label: r for r in verify_dynsu2_relations(b2)}
    assert rs["ort_row_cross"].residual > 0.1
    assert rs["ort_col_cross"].residual > 0.1
    # sign-insensitive relations still pass: detection is specific
    assert rs["ort_row_1"].passed
    assert rs["extcom_beta"].passed


def _fault_at_origin(op, size):
    """op with size added to its weight at the exponent point (0, 0)."""
    ((d, g),) = op.grids.items()
    g = g.copy()
    g[np.unravel_index(op.window.index_of((0, 0)), g.shape)] += size
    return WindowedOperator(op.window, {d: g})


def test_single_entry_faults_detected():
    b = bundle(c=1.5, x=0.7, half=6)
    for name in GEN_NAMES:
        ops = dict(b.ops)
        ops[name] = _fault_at_origin(b.u(name), 1e-3)
        rs = verify_dynsu2_relations(replace(b, ops=ops))
        assert max(r.residual for r in rs) > 1e-4, name


def test_mul_and_projection():
    b = bundle(half=4)
    p = b.mul_fn(dirac_projection(1, -2, b.q, b.params.x))
    assert np.allclose(p.matrix @ p.matrix, p.matrix)
    assert np.count_nonzero(p.matrix) == 1
    i = b.window.index_of((1, -2))
    assert p.matrix[i, i] == 1.0
    f = b.mul_fn(lambda l, r: tau(l) * r)
    lam, rho = b.window.value_grids
    lv, rv = lam[1 + 4, 0], rho[0, -2 + 4]
    assert (lv, rv) == (b.window.axes[0].spec.value(1), b.window.axes[1].spec.value(-2))
    assert f.matrix[i, i] == pytest.approx(tau(lv) * rv)


# -- coproduct --------------------------------------------------------------


def test_coproduct_images_satisfy_relations():
    b1 = bundle(c=0.0, half=5)
    b2 = bundle(c=1.0, half=5)
    rs = coproduct_compat_check(b1, b2, half=3, tol=1e-10)
    assert len(rs) == RELATION_COUNT
    bad = [str(r) for r in rs if not r.passed]
    assert not bad, bad


def test_coproduct_requires_shared_lattice():
    with pytest.raises(ValueError):
        build_delta_images(bundle(c=0.0, x=1.0, half=3), bundle(c=0.0, x=0.7, half=3))


def uncompressed_unitarity_gap(b1, b2, half=2):
    """Row-sum check on the raw two-leg tensor product, without compression.

    Returns (residual against the matching projection, residual against
    the full identity).  The first is small, the second is large: the
    row sum of the coproduct images equals the coproduct of the unit
    (the matched-middle support projection), not the identity, so
    dropping the middle-index restriction is detectably wrong.
    """
    spec = LatticeSpec(q=b1.params.q, base=b1.params.x)
    ax = WindowAxis(spec, -half, half)
    leg = Window((ax, ax))
    raw = Window((ax,) * 4)
    legops1 = build_pi_c(b1.params, leg).ops
    legops2 = build_pi_c(b2.params, leg).ops

    # matching projection: middle exponents equal
    _, v, w, _ = raw.exponent_grids
    P = WindowedOperator(raw, {(0,) * 4: np.broadcast_to(v == w, raw.shape)})
    eps = -1
    row = zero_op(raw)
    for nu in (-1, +1):
        U = zero_op(raw)
        for mu in (-1, +1):
            U = U + tensor_op(legops1[EPSNU_TO_NAME[eps, mu]], legops2[EPSNU_TO_NAME[mu, nu]], raw)
        U = U @ P
        row = row + U @ U.adjoint()
    # compare only away from the leg-window edges (margin 1 per axis)
    return (row - P).max_abs(1), (row - identity_op(raw)).max_abs(1)


def test_coproduct_negative_control_unit():
    """Row sums reproduce the coproduct of the unit, not the identity."""
    d_match, d_ident = uncompressed_unitarity_gap(
        bundle(c=0.0, half=2), bundle(c=1.0, half=2), half=2
    )
    assert d_match < 1e-12
    assert d_ident > 0.9


# -- antipode ---------------------------------------------------------------


def test_antipode_transforms_all_relations():
    b = bundle()
    rs = antipode_check(b, tol=1e-10)
    assert len(rs) == 14
    bad = [str(r) for r in rs if not r.passed]
    assert not bad, bad


def test_antipode_at_second_c():
    rs = antipode_check(bundle(c=1.5, x=0.7), tol=1e-10)
    assert all(r.passed for r in rs)


def test_antipode_blocks_match_swapped_adjoint():
    assert antipode_block_check(bundle()).passed
    assert antipode_block_check(bundle(c=-1.2, x=0.7)).passed


def test_antipode_square_modular_scalar():
    b = bundle()
    r = antipode_square_check(b)
    assert r.passed
    # the square is NOT the identity: the block scalar deviates from 1
    yv, zv = 0.5**2, 0.5**-1
    scalar = (tau(yv) * tau(0.5 * zv)) / (tau(0.5 * yv) * tau(zv))
    assert scalar == pytest.approx(8.5 / 20.3125)
    assert abs(scalar - 1.0) > 0.5


def test_antipode_negative_control(monkeypatch):
    """Swapping generators without the star is not an antipode."""
    b = bundle()
    wrong = {"a": "a", "b": "g", "g": "b", "d": "d"}
    monkeypatch.setattr(dynsu2, "S_LETTER", wrong)
    rs = antipode_check(b)
    assert max(r.residual for r in rs) > 0.01


def test_antipode_wrong_localization_control(monkeypatch):
    """Keeping coefficient functions unswapped breaks the transport."""
    monkeypatch.setattr(CoeffFn, "swapped", lambda self: self)
    rs = antipode_check(bundle())
    assert max(r.residual for r in rs) > 0.01


# -- x-symmetry and lattice rebase ------------------------------------------


def test_x_symmetry_exact_at_x1():
    rs = x_symmetry_check(bundle(half=6), tol=1e-13)
    assert len(rs) == 4
    for r in rs:
        assert r.passed, str(r)


def test_x_symmetry_generic_x():
    rs = x_symmetry_check(bundle(x=0.7, c=1.5, half=6), tol=1e-13)
    for r in rs:
        assert r.passed, str(r)


def test_x_symmetry_needs_sign():
    rs = {r.label: r for r in x_symmetry_check(bundle(half=6), signed=False)}
    assert rs["xsym_beta"].residual > 0.1
    assert rs["xsym_gamma"].residual > 0.1
    assert rs["xsym_alpha"].passed
    assert rs["xsym_delta"].passed


def lattice_rebase_check(b1, tol=1e-12):
    """x and qx generate the same lattice: the two builds agree pointwise.

    The (q, qx) window shifted one exponent down enumerates the same
    point values, so each generator matrix must coincide entrywise.
    """
    params = b1.params
    half = (b1.window.axes[0].size - 1) // 2
    spec2 = LatticeSpec(q=params.q, base=params.q * params.x)
    ax2 = WindowAxis(spec2, -half - 1, half - 1)
    win2 = Window((ax2, ax2))
    b2 = build_pi_c(DynParams(params.q, params.q * params.x, params.c), win2)
    worst = 0.0
    for name in GEN_NAMES:
        # same shape and point values, so b2's grids read on b1's window
        rebased = WindowedOperator(b1.window, b2.u(name).grids)
        worst = np.maximum(worst, (b1.u(name) - rebased).max_abs())
    return RelationResidual(
        label="rebase", residual=float(worst), margins=b1.margins(0), tol=tol
    )


def test_lattice_rebase():
    assert lattice_rebase_check(bundle(half=6)).passed
    assert lattice_rebase_check(bundle(x=0.7, c=-0.5, half=6)).passed


@pytest.mark.parametrize(
    "check", [antipode_block_check, antipode_square_check, lattice_rebase_check]
)
def test_block_checks_keep_a_nan_residual(monkeypatch, check):
    """A nan block defect after a finite one fails the check: the running
    maximum propagates it instead of keeping the finite value."""
    values = iter([1e-16, float("nan")])
    monkeypatch.setattr(WindowedOperator, "max_abs", lambda self, margin=0: next(values, 0.0))
    r = check(bundle(half=6))
    assert math.isnan(r.residual) and not r.passed
