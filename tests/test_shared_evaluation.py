"""Shared coefficient evaluation: words.shared_evaluation() and its use.

Inside a scope each (CoeffFn node, input bytes) pair is evaluated once and
its grid reused.  The memo must be exact (every grid has the bytes of a
plain evaluation), must pay off on the heavy words of the rewriter workload
(counted in calls of words.weight_w), and must not outlive its scope: no
scope is left open and no memoized grid stays alive after
dynsu2.reduce_and_check returns, also when its body raised.
"""

import gc
import weakref

import numpy as np
import pytest

from pcqg import dynsu2, words
from pcqg.dynsu2 import DynParams, build_pi_c, default_window, reduce_and_check
from pcqg.words import CoeffFn, RuleSet, parse_word, reduce_word, shared_evaluation

# (word, q, x, c, c2): the heaviest rewriter job, and a six-star word on a
# lattice whose values are not powers of two
HEAVY = [
    ("b'a'd'a'd'g'", 0.5, 1.0, -1.2, 0.9),
    ("a'b'g'd'b'a'", 0.6, 1.1, 0.5, -0.7),
]


def _pair(q, x, c, c2):
    return tuple(
        build_pi_c(DynParams(q, x, cc), default_window(DynParams(q, x, cc), half=6))
        for cc in (c, c2)
    )


def _reduced(word, q, x):
    letters, _ = parse_word(word, q, x)
    return letters, reduce_word(letters, RuleSet(q)).terms


def _bytes(grid, shape):
    return np.ascontiguousarray(np.broadcast_to(grid, shape)).tobytes()


@pytest.mark.parametrize("word, q, x, c, c2", HEAVY)
def test_shared_grids_are_bitwise_plain_evaluations(word, q, x, c, c2):
    _, terms = _reduced(word, q, x)
    window = _pair(q, x, c, c2)[0].window
    grids = window.value_grids
    plain = [_bytes(t.coeff(*grids), window.shape) for t in terms]
    with shared_evaluation():
        shared = [_bytes(t.coeff(*grids), window.shape) for t in terms]
        first = terms[0].coeff(*grids)
        assert terms[0].coeff(*grids) is first
    assert shared == plain


def test_memo_key_is_exact():
    f = CoeffFn(lambda lv, rv: lv * rv, "LR")
    lv, rv = np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]])
    assert f(lv, rv) is not f(lv, rv)
    assert f(lv, rv).flags.writeable
    with shared_evaluation():
        assert f(lv, rv) is f(lv, rv)
        assert not f(lv, rv).flags.writeable
        # equal bytes hit; a different shape or value does not
        assert f(lv.copy(), rv.copy()) is f(lv, rv)
        assert f(lv.reshape(1, 2), rv) is not f(lv, rv)
        assert f(np.nextafter(lv, 3.0), rv) is not f(lv, rv)


def test_reduce_and_check_shares_weight_evaluations(monkeypatch):
    word, q, x, c, c2 = HEAVY[0]
    pair = _pair(q, x, c, c2)
    letters, terms = _reduced(word, q, x)
    calls = []
    real = words.weight_w
    monkeypatch.setattr(words, "weight_w", lambda *a: calls.append(1) or real(*a))
    for b in pair:
        for t in terms:
            t.coeff(*b.window.value_grids)
    unshared = len(calls)
    calls.clear()
    rep = reduce_and_check(letters, pair)
    assert rep["ok"] and max(rep["oracle_residuals"]) < 1e-9
    assert 10 * len(calls) <= unshared, (len(calls), unshared)


def _spy_grids(monkeypatch):
    """Weak references to every grid a CoeffFn returns."""
    refs = []
    call = CoeffFn.__call__

    def spy(self, lv, rv):
        out = call(self, lv, rv)
        if isinstance(out, np.ndarray):
            refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(CoeffFn, "__call__", spy)
    return refs


def test_no_memo_outlives_reduce_and_check(monkeypatch):
    word, q, x, c, c2 = HEAVY[0]
    letters, _ = parse_word(word, q, x)
    refs = _spy_grids(monkeypatch)
    assert reduce_and_check(letters, _pair(q, x, c, c2))["ok"]
    gc.collect()
    assert refs and all(r() is None for r in refs)
    assert words._MEMO.get() is None


def test_scope_closes_when_the_body_raises(monkeypatch):
    word, q, x, c, c2 = HEAVY[1]
    letters, _ = parse_word(word, q, x)
    refs = _spy_grids(monkeypatch)

    def fail(*args, **kwargs):
        raise RuntimeError("residual failed")

    monkeypatch.setattr(dynsu2, "relation_residual", fail)
    with pytest.raises(RuntimeError):
        reduce_and_check(letters, _pair(q, x, c, c2))
    gc.collect()
    assert refs and all(r() is None for r in refs)
    assert words._MEMO.get() is None


def test_nested_scope_restores_the_outer_one():
    with shared_evaluation():
        outer = words._MEMO.get()
        with shared_evaluation():
            assert words._MEMO.get() is not outer
        assert words._MEMO.get() is outer
    assert words._MEMO.get() is None
