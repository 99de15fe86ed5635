"""Interior margins of every generator family, pinned.

A relation residual is measured on the basis vectors at least a margin away
from each window end: the default pad on an artificial cut and nothing on
an exact end, where the series terminates.  The values below are those of
the pi_c bundle, the three-axis coproduct images, pi_T for each kind of
compatible set, the lowest-weight model, and pi_S (x) pi_T for a principal
and a discrete pair.
"""

import pytest

from pcqg.cset import SetKind
from pcqg.decoupling import build_pi_ST, enumerate_irreps
from pcqg.dynsu2 import DynParams, build_delta_images, build_pi_c, default_window
from pcqg.uqsu11 import build_pi_T, compatible_sets
from uqsu11_helpers import build_verma

Q = 0.5


def _pi_c(c):
    params = DynParams(q=Q, x=1.0, c=c)
    return build_pi_c(params, default_window(params, half=4))


def test_pi_c_margins():
    b = _pi_c(0.0)
    assert b.margins() == ((2, 2), (2, 2))
    assert b.margins(3) == ((3, 3), (3, 3))
    assert b.margins(0) == ((0, 0), (0, 0))


def test_delta_image_margins():
    db = build_delta_images(_pi_c(0.0), _pi_c(1.3), half=2)
    assert db.margins() == ((2, 2), (2, 2), (2, 2))


@pytest.mark.parametrize(
    "c,kind,want",
    [
        (-4.25, SetKind.PLUS_SERIES, ((0, 2),)),
        (-4.25, SetKind.MINUS_SERIES, ((2, 0),)),
        (4.25, SetKind.FULL_ORBIT, ((2, 2),)),
        (-(Q + 1.0 / Q), SetKind.TRIVIAL, ((0, 0),)),
    ],
)
def test_pi_T_margins(c, kind, want):
    sets = [s for s in compatible_sets(1.0, c, Q) if s.kind is kind]
    assert sets
    for s in sets:
        assert build_pi_T(s, truncation=6).margins() == want


def test_verma_margins():
    assert build_verma(0.7, Q, 4).margins() == ((0, 2),)


def _pi_st(c, s_kind):
    pairs = [p for p in enumerate_irreps(Q, 1.0, c) if p.S.kind is s_kind]
    assert pairs
    return build_pi_ST(pairs[0], truncation=8)


def test_pi_st_margins_principal_pair():
    st = _pi_st(0.0, SetKind.FULL_ORBIT)
    assert st.margins() == ((3, 3), (3, 3))
    assert st.margins(2) == ((2, 2), (2, 2))
    assert st.truncated


@pytest.mark.parametrize(
    "s_kind,want",
    [
        (SetKind.PLUS_SERIES, ((0, 3), (3, 3))),
        (SetKind.MINUS_SERIES, ((3, 0), (3, 3))),
    ],
)
def test_pi_st_margins_discrete_pair(s_kind, want):
    st = _pi_st(-4.25, s_kind)
    assert st.margins() == want
    assert st.truncated
