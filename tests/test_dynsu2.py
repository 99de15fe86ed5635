"""Weight representation of dynamical SU(2): relations, coproduct,
antipode, x-symmetry.

Tolerances: the relation battery uses operands normalized to O(1), so
interior residuals sit at float noise (1e-14 and below); the asserted
bounds keep headroom above that without admitting real defects, which
show up at 1e-3 or larger in the fault-injection tests.
"""

import math

import numpy as np
import pytest

from pcqg import dynsu2
from pcqg.dynsu2 import (
    DynParams,
    GEN_NAMES,
    PiCBundle,
    antipode_block_check,
    antipode_check,
    antipode_square_check,
    build_delta_images,
    build_pi_c,
    coproduct_compat_check,
    default_window,
    generator_norm_bounds,
    generator_weight,
    lattice_rebase_check,
    uncompressed_unitarity_gap,
    verify_dynsu2_relations,
    x_symmetry_check,
)
from pcqg.lattice import tau
from pcqg.windowed import WindowedOperator, required_margins
from pcqg.words import CoeffFn


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
    assert b.delta.matrix[b.window.index_of((-1, -1)), i_src] == pytest.approx(
        0.7071067811865476
    )
    assert b.beta.matrix[b.window.index_of((1, -1)), i_src] == pytest.approx(
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


class _NoMarginBundle(PiCBundle):
    def margins(self, pad: int = 2):
        return super().margins(0)


def test_battery_validates_word_excursions(monkeypatch):
    """Words keep their letters apart, so required_margins sees each shift."""
    b = bundle(half=4)
    bare = _NoMarginBundle(params=b.params, window=b.window, ops=b.ops)
    with pytest.raises(ValueError, match="truncation artifacts"):
        verify_dynsu2_relations(bare)
    # the row and column sums u u* and u* u return to their start: only the
    # intermediate shift needs a margin, and a pre-multiplied word hides it
    needed = {}
    real = dynsu2.relation_residual

    def spy(terms, margin, **kw):
        needed[kw["label"]] = required_margins(terms, b.window)
        return real(terms, margin, **kw)

    monkeypatch.setattr(dynsu2, "relation_residual", spy)
    verify_dynsu2_relations(b)
    for label in ("ort_row_1", "ort_row_2", "ort_col_1", "ort_col_2"):
        assert max(max(sides) for sides in needed[label]) == 1, label


def test_relation_battery_other_q():
    rs = verify_dynsu2_relations(bundle(q=0.8, c=0.4, half=8), tol=1e-11)
    assert all(r.passed for r in rs)


def test_theta_flip_detected():
    b = bundle()
    ops = dict(b.ops)
    bad_beta = WindowedOperator(
        b.window,
        -b.beta.matrix,
        b.beta.shift_degree,
        b.beta.displacement,
    )
    ops["beta"] = bad_beta
    b2 = PiCBundle(params=b.params, window=b.window, ops=ops)
    rs = {r.label: r for r in verify_dynsu2_relations(b2)}
    assert rs["ort_row_cross"].residual > 0.1
    assert rs["ort_col_cross"].residual > 0.1
    # sign-insensitive relations still pass: detection is specific
    assert rs["ort_row_1"].passed
    assert rs["extcom_beta"].passed


def test_single_entry_faults_detected():
    b = bundle(c=1.5, x=0.7, half=6)
    for name in GEN_NAMES:
        op = b.u(name)
        src = b.window.index_of((0, 0))
        tgt = int(np.nonzero(op.matrix[:, src])[0][0])
        m = op.matrix.copy()
        m[tgt, src] += 1e-3
        ops = dict(b.ops)
        ops[name] = WindowedOperator(b.window, m, op.shift_degree, op.displacement)
        rs = verify_dynsu2_relations(
            PiCBundle(params=b.params, window=b.window, ops=ops)
        )
        assert max(r.residual for r in rs) > 1e-4, name


def test_mul_and_projection():
    b = bundle(half=4)
    p = b.projection(1, -2)
    assert np.allclose(p.matrix @ p.matrix, p.matrix)
    assert np.count_nonzero(p.matrix) == 1
    f = b.mul_fn(lambda l, r: tau(l) * r)
    i = b.window.index_of((1, -2))
    lv, rv = (pt.value for pt in b.window.points_of(i))
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


def test_lattice_rebase():
    assert lattice_rebase_check(bundle(half=6)).passed
    assert lattice_rebase_check(bundle(x=0.7, c=-0.5, half=6)).passed
