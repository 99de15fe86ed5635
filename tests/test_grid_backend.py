"""Differential test of the weighted-shift grid backend against dense numpy.

Every operator is also materialized as a dense matrix; products, adjoints,
sums and relation residuals computed on grids must match the same
arithmetic done with numpy on those matrices.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from pcqg.decoupling import build_pi_ST, enumerate_irreps
from pcqg.dynsu2 import (
    DynParams,
    build_delta_images,
    build_pi_c,
    default_window,
    letter_operator,
)
from pcqg.lattice import LatticeSpec, tau
from pcqg.windowed import (
    Window,
    WindowAxis,
    WindowedOperator,
    mul_op,
    relation_residual,
    shift_op,
)
from pcqg.words import LETTERS, STARRED

SPEC = LatticeSpec(q=0.5, base=1.0)
ATOL = 1e-15
SIZES = hst.lists(hst.integers(2, 5), min_size=1, max_size=3)
SEEDS = hst.integers(0, 2**32 - 1)
STEPS = ("mul", "rmul", "add", "sub", "adj", "scale")


def _window(sizes):
    return Window(tuple(WindowAxis(SPEC, -1, s - 2) for s in sizes))


def _coeff(rng, shape=None):
    """Complex numbers of modulus at most 1/2 (one, or an array of `shape`)."""
    re, im = rng.uniform(-0.35, 0.35, size=(2,) if shape is None else (2, *shape))
    return complex(re, im) if shape is None else re + 1j * im


def _random_grid(rng):
    """An array weight: random coefficients on the grids' broadcast shape."""
    return lambda *grids: _coeff(rng, np.broadcast_shapes(*(g.shape for g in grids)))


def _random_op(rng, window):
    """A diagonal or a weighted shift with random weights of modulus <= 1/2."""
    if rng.integers(3) == 0:
        return mul_op(_random_grid(rng), window)
    d = rng.integers(-2, 3, size=window.dim)
    return shift_op(_random_grid(rng), d, window)


def _dense_residual(terms, margins, window):
    total = sum(z * reduce(np.matmul, [op.matrix for op in word]) for z, word in terms)
    # the exponents of basis vector i, per axis
    exponents = [np.broadcast_to(g, window.shape).ravel() for g in window.exponent_grids]
    keep = [
        i
        for i in range(window.size)
        if all(
            lo <= ex[i] - ax.n_min and hi <= ax.n_max - ex[i]
            for ax, ex, (lo, hi) in zip(window.axes, exponents, margins)
        )
    ]
    if not keep:
        return None
    return float(np.max(np.linalg.norm(total[:, keep], axis=0)))


def _all_sides(window):
    return frozenset((a, side) for a in range(window.dim) for side in ("low", "high"))


def _check_residual(rng, terms, window):
    """relation_residual against dense column norms, on random margins."""
    margins = tuple(tuple(int(m) for m in rng.integers(0, 3, size=2)) for _ in window.axes)
    want = _dense_residual(terms, margins, window)
    exact = _all_sides(window)
    if want is None:
        with pytest.raises(ValueError, match="no interior"):
            relation_residual(terms, margins, exact_boundaries=exact)
    else:
        got = relation_residual(terms, margins, exact_boundaries=exact).residual
        assert abs(got - want) <= ATOL


@settings(max_examples=30, deadline=None)
@given(SIZES, SEEDS, hst.lists(hst.sampled_from(STEPS), min_size=1, max_size=8))
def test_random_expressions_match_dense(sizes, seed, steps):
    rng = np.random.default_rng(seed)
    w = _window(sizes)
    op = _random_op(rng, w)
    dense = op.matrix
    for step in steps:
        other = _random_op(rng, w)
        if step == "mul":
            op, dense = op @ other, dense @ other.matrix
        elif step == "rmul":
            op, dense = other @ op, other.matrix @ dense
        elif step == "add":
            op, dense = op + other, dense + other.matrix
        elif step == "sub":
            op, dense = op - other, dense - other.matrix
        elif step == "adj":
            op, dense = op.adjoint(), dense.conj().T
        else:
            z = _coeff(rng)
            op, dense = z * op, z * dense
        # keep the operand scale at most 1, so ATOL is a few ulps of it
        scale = max(1.0, float(np.abs(dense).max()))
        op, dense = op * (1.0 / scale), dense * (1.0 / scale)
        assert np.abs(op.matrix - dense).max() <= ATOL
    _check_residual(rng, [(1.0, [op]), (_coeff(rng), [_random_op(rng, w), other])], w)


def _pi_c():
    p = DynParams(q=0.5, x=0.7, c=0.6)
    return build_pi_c(p, default_window(p, half=3))


def _coproduct():
    p1, p2 = DynParams(q=0.5, c=0.4), DynParams(q=0.5, c=-1.1)
    b1 = build_pi_c(p1, default_window(p1, half=2))
    b2 = build_pi_c(p2, default_window(p2, half=2))
    return build_delta_images(b1, b2, half=2)


def _pi_st():
    return build_pi_ST(enumerate_irreps(0.5, 1.0, 0.3)[0], truncation=6)


BUNDLES = {"pi_c": _pi_c(), "coproduct": _coproduct(), "pi_ST": _pi_st()}


@pytest.mark.parametrize("name", sorted(BUNDLES))
@settings(max_examples=10, deadline=None)
@given(SEEDS, hst.lists(hst.sampled_from(LETTERS + STARRED + ("f",)), min_size=1, max_size=5))
def test_generator_words_match_dense(name, seed, letters):
    b = BUNDLES[name]
    rng = np.random.default_rng(seed)
    a0, a1 = rng.uniform(0.1, 1.0, size=2)
    f = lambda lam, rho: a0 * tau(lam) / (tau(lam) + tau(rho)) + a1 * lam * rho / (1 + lam * rho)
    word = [b.mul_fn(f) if ch == "f" else letter_operator(ch, b) for ch in letters]
    got = reduce(lambda x, y: x @ y, word)
    want = reduce(np.matmul, [op.matrix for op in word])
    assert np.abs(got.matrix - want).max() <= ATOL
    assert np.abs(got.adjoint().matrix - want.conj().T).max() <= ATOL
    other = letter_operator(LETTERS[seed % 4], b)
    assert np.abs((got + other).matrix - (want + other.matrix)).max() <= ATOL
    _check_residual(rng, [(1.0, word), (-0.5, [other])], b.window)


def _split(window, m):
    """The operator of a dense matrix: one grid per displacement of a nonzero entry."""
    coords = np.indices(window.shape).reshape(window.dim, -1).T
    rows, cols = np.nonzero(m)
    disp = coords[rows] - coords[cols]
    grids = {}
    for d in np.unique(disp, axis=0):
        at = (disp == d).all(axis=1)
        g = np.zeros(window.shape, dtype=complex)
        g[tuple(coords[cols[at]].T)] = m[rows[at], cols[at]]
        grids[tuple(d.tolist())] = g
    return WindowedOperator(window, grids)


@settings(max_examples=30, deadline=None)
@given(SIZES, SEEDS, hst.floats(0.0, 1.0))
def test_dense_split_round_trip(sizes, seed, density):
    rng = np.random.default_rng(seed)
    w = _window(sizes)
    n = w.size
    values = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = np.where(rng.random((n, n)) < density, values, 0)
    op = _split(w, m)
    assert op.matrix.tobytes() == m.tobytes()
    # one grid per displacement of a nonzero entry, each entry in one grid
    counts = [np.count_nonzero(g) for g in op.grids.values()]
    assert all(counts) and sum(counts) == np.count_nonzero(m)
