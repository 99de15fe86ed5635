import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqg.lattice import LatticeSpec, tau
from pcqg.windowed import (
    Window,
    WindowAxis,
    WindowedOperator,
    identity_op,
    mul_op,
    op_norm_bound,
    relation_residual,
    required_margins,
    shift_op,
    window_1d,
)
from windowed_helpers import zero_op

SPEC = LatticeSpec(q=0.5, base=1.0)


def w1(n_min=-20, n_max=20):
    return window_1d(SPEC, n_min, n_max)


def w2(n=10):
    ax = WindowAxis(SPEC, -n, n)
    return Window((ax, ax))


def _exponents_at(w, i):
    """Exponents of basis vector i, read off the window's exponent grids."""
    return tuple(int(np.broadcast_to(g, w.shape).flat[i]) for g in w.exponent_grids)


def test_window_ordering():
    w = w2(1)
    assert w.size == 9
    assert _exponents_at(w, 0) == (-1, -1)
    assert _exponents_at(w, 8) == (1, 1)
    assert w.index_of((0, 1)) == 5
    for i in range(w.size):
        assert w.index_of(_exponents_at(w, i)) == i
        unravelled = np.unravel_index(i, w.shape)
        assert _exponents_at(w, i) == tuple(ax.n_min + int(k) for ax, k in zip(w.axes, unravelled))


def test_window_value_grids():
    spec = LatticeSpec(q=0.8, base=0.7)
    w = Window((WindowAxis(spec, -3, 2), WindowAxis(SPEC, 0, 4)))
    lam, rho = w.value_grids
    assert lam.shape == (6, 1) and rho.shape == (1, 5)
    # the axis tables are LatticeSpec.value, bit for bit
    assert lam.ravel().tolist() == [spec.value(n) for n in range(-3, 3)]
    assert rho.ravel().tolist() == [SPEC.value(n) for n in range(5)]
    assert [g.ravel().tolist() for g in w.exponent_grids] == [list(range(-3, 3)), list(range(5))]
    with pytest.raises(ValueError):
        lam[0, 0] = 1.0
    assert w.value_grids is w.value_grids


def test_constructors_call_their_function_once():
    w = w2(3)
    calls = []

    def f(lam, rho):
        calls.append((lam.shape, rho.shape))
        return lam * rho

    op = mul_op(f, w)
    assert calls == [((7, 1), (1, 7))]
    lam, rho = (np.broadcast_to(g, w.shape) for g in w.value_grids)
    assert np.array_equal(op.grids[(0, 0)], lam * rho)
    calls.clear()
    s = shift_op(f, (1, -2), w)
    # only the points whose image stays inside: 6 of 7 rows, 5 of 7 columns
    assert calls == [((6, 1), (1, 5))]
    g = s.grids[(1, -2)]
    assert np.array_equal(g[:6, 2:], (lam * rho)[:6, 2:])
    assert not g[6].any() and not g[:, :2].any()


def test_window_size_guard():
    # refused before any grid or point table is allocated
    with pytest.raises(ValueError, match="exceeds limit"):
        window_1d(SPEC, 0, 10**9)
    with pytest.raises(ValueError, match="exceeds limit"):
        Window((WindowAxis(SPEC, 0, 10**5),) * 3)
    # past the dense size, operators still work but the dense view is refused
    w = window_1d(SPEC, 0, 5000)
    ident = identity_op(w)
    assert op_norm_bound(ident @ ident.adjoint()) == 1.0
    with pytest.raises(ValueError, match="dense limit"):
        ident.matrix


def test_mul_op_unit_and_dirac():
    w = w1(-1, 1)
    ident = mul_op(lambda v: 1.0, w)
    assert np.allclose(ident.matrix, np.eye(3))
    dirac = mul_op(lambda v: SPEC.indicator(v, 0), w)
    assert np.allclose(np.diag(dirac.matrix), [0, 1, 0])
    assert dirac.shift_degree == (0,)


def test_mul_op_tau_frozen():
    # points at exponents -1,0,1 are 2, 1, 0.5; tau swaps ends equally
    w = w1(-1, 1)
    op = mul_op(tau, w)
    assert np.allclose(np.diag(op.matrix), [2.5, 2.0, 2.5])


def test_shift_op_truncation():
    w = w1(0, 2)
    s = shift_op(lambda v: 1.0, (+1,), w)
    # column of the top exponent leaves the window
    expected = np.zeros((3, 3))
    expected[1, 0] = 1.0
    expected[2, 1] = 1.0
    assert np.allclose(s.matrix, expected)
    assert s.displacement == (1,)


def test_shift_inverse_on_interior():
    w = w1(-5, 5)
    up = shift_op(lambda v: 1.0, (+1,), w)
    dn = shift_op(lambda v: 1.0, (-1,), w)
    ident = identity_op(w)
    res = relation_residual(
        [(1.0, [up, dn]), (-1.0, [ident])], ((1, 0),), label="updown"
    )
    assert res.residual == 0.0
    # the excursion of up.dn is one step down, none up
    assert required_margins([(1.0, [up, dn])], w) == ((1, 0),)


def test_margin_rejection():
    w = w1(-5, 5)
    dn = shift_op(lambda v: 1.0, (-1,), w)
    up = shift_op(lambda v: 1.0, (+1,), w)
    with pytest.raises(ValueError, match="truncation artifacts"):
        relation_residual([(1.0, [up, dn])], 0, label="too-small")


def test_exact_boundary_override():
    # weight vanishing at the window edge: margin 0 is legitimate there
    w = w1(0, 6)
    down = shift_op(lambda v: 1.0 - SPEC.indicator(v, 0), (-1,), w)
    up = down.adjoint()
    # down then up is the identity except at the annihilated bottom point
    proj = mul_op(lambda v: 1.0 - SPEC.indicator(v, 0), w)
    res = relation_residual(
        [(1.0, [up, down]), (-1.0, [proj])],
        ((0, 1),),
        label="ladder",
        exact_boundaries=frozenset({(0, "low")}),
    )
    assert res.residual < 1e-14


def test_adjoint_involution_and_antihom():
    w = w1(-4, 4)
    a = shift_op(lambda v: tau(v) ** 0.5, (+1,), w)
    b = mul_op(lambda v: 1j * v, w)
    assert np.allclose(a.adjoint().adjoint().matrix, a.matrix)
    assert np.allclose((a @ b).adjoint().matrix, (b.adjoint() @ a.adjoint()).matrix)


def test_residual_detects_fault():
    w = w2(5)
    up = shift_op(lambda lam, rho: 0.5, (+1, 0), w)
    dn = up.adjoint()
    ident = identity_op(w)
    good = relation_residual(
        [(4.0, [up, dn]), (-1.0, [ident])], 1, label="normalized"
    )
    assert good.residual < 1e-14
    # perturb the weight of delta_(0,0) -> delta_(1,0)
    grid = up.grids[(1, 0)].copy()
    grid[np.unravel_index(w.index_of((0, 0)), w.shape)] += 1e-3
    bad = WindowedOperator(w, {(1, 0): grid})
    res = relation_residual([(4.0, [bad, bad.adjoint()]), (-1.0, [ident])], 1)
    assert res.residual >= 1e-3


def test_interior_exactness_window_doubling():
    def build(n):
        w = w1(-n, n)
        up = shift_op(lambda v: 1.0 / tau(v), (+1,), w)
        dn = up.adjoint()
        ident = identity_op(w)
        comm = relation_residual(
            [(1.0, [up, dn]), (-1.0, [dn, up])], 1, label="comm"
        )
        return comm.residual

    r_small, r_big = build(8), build(16)
    assert abs(r_small - r_big) < 1e-12


def test_op_norm_bound():
    w = w1(-3, 3)
    assert op_norm_bound(identity_op(w)) == pytest.approx(1.0)
    assert op_norm_bound(2.0 * identity_op(w)) == pytest.approx(2.0)
    assert op_norm_bound(zero_op(w)) == 0.0


def test_json_export_shape():
    w = w1(0, 1)
    s = shift_op(lambda v: 2.0, (+1,), w)
    assert s.matrix.tolist() == [[0, 0], [2.0, 0]]
    ax = w.to_json_dict()["axes"][0]
    assert ax["q"] == 0.5 and ax["n_min"] == 0 and ax["n_max"] == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(5, 9))
def test_mixed_displacement_margins(d1, d2, n):
    # sum of two shifts with different displacements loses exactness;
    # required margin falls back to the shift-degree bound
    w = w1(-n, n)
    a = shift_op(lambda v: 1.0, (d1,), w)
    b = shift_op(lambda v: 1.0, (d2,), w)
    s = a + b
    if d1 == d2:
        assert s.displacement == (d1,)
    else:
        assert s.displacement == (None,)
        lo, hi = required_margins([(1.0, [s])], w)[0]
        assert lo == max(abs(d1), abs(d2)) and hi == lo


def test_max_abs_keeps_a_nan_in_any_grid():
    """A nan in a later grid is the maximum, not dropped behind a finite one."""
    w = w1(-3, 3)
    grid = np.ones(w.shape)
    op = WindowedOperator(w, {(0,): grid, (1,): np.where(np.arange(w.size) == 2, np.nan, grid)})
    assert np.isnan(op.max_abs())
    assert WindowedOperator(w, {(0,): grid, (1,): 2 * grid}).max_abs() == 2.0
