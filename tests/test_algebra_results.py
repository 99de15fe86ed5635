"""Algebra results built without the constructor's checks, and cached starred letters.

`@`, `+`, `*` and `adjoint` build their results from grids they computed,
without re-running the public constructor's validation, and a bundle builds
each starred letter once.  These tests hold both to the dense matrices and to
the invariants the constructor would have enforced.
"""

import numpy as np
import pytest

from pcqg.dynsu2 import DynParams, antipode_check, build_pi_c, default_window, reduce_and_check
from pcqg.lattice import LatticeSpec
from pcqg.windowed import Window, WindowAxis, WindowedOperator, mul_op, shift_op
from pcqg.words import parse_word

SPEC = LatticeSpec(q=0.6, base=1.1)
ATOL = 1e-15


def _window(sizes):
    return Window(tuple(WindowAxis(SPEC, -1, s - 2) for s in sizes))


def _shift(rng, d, window):
    def weight(*grids):
        shape = np.broadcast_shapes(*(g.shape for g in grids))
        return rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)

    return shift_op(weight, d, window)


def _assert_valid(op, window):
    for d, g in op.grids.items():
        assert isinstance(d, tuple) and len(d) == window.dim
        assert g.dtype == complex and g.shape == window.shape


@pytest.mark.parametrize("sizes", [(5,), (3, 4, 2), (2, 3, 2, 3)], ids=["1-axis", "3-axis", "4-axis"])
def test_algebra_results_match_dense_and_own_their_grids(sizes):
    rng = np.random.default_rng(len(sizes))
    w = _window(sizes)
    unit = np.eye(w.dim, dtype=int)
    d1, d2 = tuple(unit[0]), tuple(unit[-1] - unit[0])
    # a sum, a sum whose displacements cancel against it, and a shift past
    # the window's edge (empty region, an all-zero grid)
    s = _shift(rng, d1, w) + _shift(rng, d2, w)
    t = _shift(rng, tuple(-k for k in d1), w) + _shift(rng, tuple(-k for k in d2), w)
    t = t + mul_op(lambda *g: 0.3 + sum(g), w)
    far = _shift(rng, tuple(sizes[a] if a == 0 else 0 for a in range(w.dim)), w)
    assert not np.any(far.matrix)
    operands = (s, t, far)
    before = [{d: g.copy() for d, g in op.grids.items()} for op in operands]
    S, T, F = (op.matrix for op in operands)

    results = [
        (s.adjoint(), S.conj().T),
        ((s + t).adjoint(), (S + T).conj().T),
        (s @ t, S @ T),
        (t @ s, T @ S),
        (s @ far, S @ F),
        (far.adjoint() @ t, F.conj().T @ T),
        (s + far, S + F),
        (far + t, F + T),
        (far.adjoint(), F.conj().T),
        ((0.5 - 0.25j) * s, (0.5 - 0.25j) * S),
        (t * 2.0, T * 2.0),
        (s - t, S - T),
    ]
    for op, dense in results:
        _assert_valid(op, w)
        assert np.abs(op.matrix - dense).max() <= ATOL
    # an in-place write to a result leaves its operands unchanged
    for op, _ in results:
        for g in op.grids.values():
            g[...] = 7.0
    for op, grids in zip(operands, before):
        assert list(op.grids) == list(grids)
        for d, g in grids.items():
            assert op.grids[d].tobytes() == g.tobytes()


@pytest.mark.parametrize("sizes", [(5,), (3, 4, 2), (2, 3, 2, 3)], ids=["1-axis", "3-axis", "4-axis"])
def test_public_constructor_still_validates(sizes):
    w = _window(sizes)
    zero = (0,) * w.dim
    with pytest.raises(ValueError, match="does not match"):
        WindowedOperator(w, {zero: np.zeros(w.shape + (1,))})
    with pytest.raises(ValueError, match="does not match"):
        WindowedOperator(w, {zero + (0,): np.zeros(w.shape)})
    with pytest.raises(ValueError, match="does not match"):
        WindowedOperator(w, {zero[:-1]: np.zeros(w.shape)})
    op = WindowedOperator(w, {zero: np.ones(w.shape, dtype=int)})
    assert op.grids[zero].dtype == complex


def _count_adjoints(monkeypatch):
    calls = []
    original = WindowedOperator.adjoint

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(WindowedOperator, "adjoint", counted)
    return calls


def _assert_once_per_generator(calls, bundles):
    for b in bundles:
        names = [name for op in calls for name, g in b.ops.items() if op is g]
        assert len(names) == len(set(names))
    # every adjoint taken was a generator's
    assert len(calls) == sum(op is g for op in calls for b in bundles for g in b.ops.values())


def _assert_cached_equals_fresh(b):
    for name, op in b.ops.items():
        cached, fresh = b.u_star(name), op.adjoint()
        assert b.u_star(name) is cached
        assert list(cached.grids) == list(fresh.grids)
        for d, g in fresh.grids.items():
            assert cached.grids[d].tobytes() == g.tobytes()


def _pi_c(c, q=0.73, x=1.3):
    p = DynParams(q=q, x=x, c=c)
    return build_pi_c(p, default_window(p, half=6))


def test_antipode_check_builds_each_starred_letter_once(monkeypatch):
    b = _pi_c(-0.4)
    calls = _count_adjoints(monkeypatch)
    assert all(r.passed for r in antipode_check(b))
    assert calls
    _assert_once_per_generator(calls, [b])
    monkeypatch.undo()
    _assert_cached_equals_fresh(b)


def test_reduce_and_check_builds_each_starred_letter_once(monkeypatch):
    letters, coeff = parse_word("b'a'd'a'd'g'", 0.73, 1.3)
    b_pair = (_pi_c(-1.2), _pi_c(0.9))
    calls = _count_adjoints(monkeypatch)
    rep = reduce_and_check(letters, b_pair, coeff=coeff)
    assert rep["ok"] and max(rep["oracle_residuals"]) < 1e-9
    assert calls
    _assert_once_per_generator(calls, b_pair)
    monkeypatch.undo()
    for b in b_pair:
        _assert_cached_equals_fresh(b)
