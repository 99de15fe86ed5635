"""Differential test of the array-valued coefficients against a scalar oracle.

The oracle is the per-point evaluation the windowed strand used before its
coefficient functions became array functions: a closure called once per
basis vector on tuples of lattice points, with the weights written with
math.sqrt and Python float arithmetic.  Every grid the array path builds must equal the
oracle's bit for bit.
"""

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from pcqg.decoupling import build_phi_images, build_pi_ST, enumerate_irreps
from pcqg.dynsu2 import (
    NAME_TO_EPSNU,
    DynParams,
    battery_relations,
    build_delta_images,
    build_pi_c,
    default_window,
)
from pcqg.lattice import LatticeSpec, tau, weight_w
from pcqg.uqsu11 import build_pi_T, compatible_sets
from pcqg.windowed import WindowedOperator
from pcqg.words import RuleSet, dirac_projection, parse_word, reduce_word

# (q, x, c); at q = 0.6, x = 1.1 the point x q^-5 is one where numpy's
# reciprocal rounds v ** -1 differently from Python's float power
PARAMS = [(0.5, 1.0, 0.0), (0.8, 0.7, 0.3), (0.73, 1.3, -1.4), (0.6, 1.1, 0.9)]


# -- the oracle ----------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """A lattice point as the per-point closures saw it."""

    n: int
    value: float


def _points(window):
    """The points of every basis vector, in basis order."""
    axes = ([Point(n, ax.spec.value(n)) for n in ax.exponents()] for ax in window.axes)
    return list(itertools.product(*axes))


def scalar_mul_grid(f, window):
    """f(*points) at every basis vector, in basis order."""
    return np.array([f(*pts) for pts in _points(window)], dtype=complex).reshape(window.shape)


def scalar_shift_grid(weight, d, window):
    """weight(*points) wherever the image p + d stays inside, else 0."""
    grid = np.zeros(window.shape, dtype=complex)
    for idx, pts in zip(np.ndindex(window.shape), _points(window)):
        if all(0 <= i + k < n for i, k, n in zip(idx, d, window.shape)):
            grid[idx] = weight(*pts)
    return grid


def scalar_values(f):
    """A function of the (lambda, rho) values, as a pi_c per-point closure."""
    return lambda p1, p2: f(p1.value, p2.value)


def scalar_generator_weight(eps, nu, yv, zv, c, q):
    num = tau(yv**eps * zv**nu / q) + eps * nu * c
    den = tau(yv**eps) * tau(zv**nu / q)
    theta = -1.0 if (eps, nu) == (-1, 1) else 1.0
    return theta * math.sqrt(num / den)


def scalar_rules(q):
    """The RuleSet functions as scalar closures, keyed by label."""

    def sp(v):
        return math.sqrt(weight_w(v, +1, q))

    def sm(v):
        return math.sqrt(weight_w(v, -1, q))

    return {
        "s-(R)/s-(L)": lambda l, r: sm(r) / sm(l),
        "s+(R)/s-(L)": lambda l, r: sp(r) / sm(l),
        "s-(R)/s+(L)": lambda l, r: sm(r) / sp(l),
        "s+(R)/s+(L)": lambda l, r: sp(r) / sp(l),
        "s-(R)/s+(R)": lambda l, r: sm(r) / sp(r),
        "(t(L/q)/t(qL))^.5": lambda l, r: math.sqrt(tau(l / q) / tau(q * l)),
        "(t(qL)/t(L/q))^.5": lambda l, r: math.sqrt(tau(q * l) / tau(l / q)),
        "s+(R)/s-(R)": lambda l, r: sp(r) / sm(r),
        "s-(L)s+(R)/s+(L)s-(R)": lambda l, r: (sm(l) * sp(r)) / (sp(l) * sm(r)),
        "(w+(R)-w+(L))/s+(L)s-(R)": lambda l, r: (weight_w(r, +1, q) - weight_w(l, +1, q))
        / (sp(l) * sm(r)),
        "s-(L)/s-(R)": lambda l, r: sm(l) / sm(r),
        "s-(L)/s+(L)": lambda l, r: sm(l) / sp(l),
    }


def scalar_dirac(i, j, q, x):
    """The float-compare indicator of the point (x q^i, x q^j)."""
    yv, zv = x * q**i, x * q**j
    return lambda lv, rv: float(abs(lv - yv) <= 1e-9 * yv and abs(rv - zv) <= 1e-9 * zv)


def _assert_same(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _pi_c(q, x, c, half=5):
    p = DynParams(q=q, x=x, c=c)
    return build_pi_c(p, default_window(p, half=half))


def _mul_grid(op):
    (grid,) = op.grids.values()
    return grid


# -- coefficient functions -------------------------------------------------------


@pytest.mark.parametrize("q,x,c", PARAMS)
def test_rule_functions_match_scalar_closures(q, x, c):
    b = _pi_c(q, x, c)
    rules = RuleSet(q)
    fns = [fn for _, _, fn in rules.star_rules.values()]
    fns += [fn for _, fn in rules.swap_rules.values()]
    fns += [rules.gb_swap, rules.gb_unit, rules.ad_unit, rules.ad_bg, rules.da_unit, rules.da_bg]
    oracle = scalar_rules(q)
    assert {fn.label for fn in fns} == set(oracle)
    for fn in fns:
        _assert_same(_mul_grid(b.mul_fn(fn)), scalar_mul_grid(scalar_values(oracle[fn.label]), b.window))


@pytest.mark.parametrize("q,x,c", PARAMS)
def test_battery_functions_match_per_point_evaluation(q, x, c):
    """Every coefficient of the relation battery, whole grid against per point."""
    b = _pi_c(q, x, c)
    seen = 0
    for terms in battery_relations(q, "full").values():
        for _, left, t in terms:
            for fn in (left, t.coeff):
                if fn is not None:
                    _assert_same(_mul_grid(b.mul_fn(fn)), scalar_mul_grid(scalar_values(fn), b.window))
                    seen += 1
    assert seen > 22


@pytest.mark.parametrize("q,x,c", PARAMS)
def test_projection_matches_float_compare(q, x, c):
    """The exponent-scale indicator picks the point the value compare picked."""
    b = _pi_c(q, x, c, half=4)
    hits = []
    for i, j in ((0, 0), (1, -2), (-3, 3)):
        for dl, dr in itertools.product((-1, 0, 1), repeat=2):
            got = dirac_projection(i, j, q, x).shifted(dl, dr, q)
            sl, sr = q**dl, q**dr
            old = scalar_dirac(i, j, q, x)
            want = scalar_mul_grid(lambda p1, p2: old(sl * p1.value, sr * p2.value), b.window)
            _assert_same(_mul_grid(b.mul_fn(got)), want)
            hits.append(np.count_nonzero(want))
    assert hits == [1] * 27


def _random_word(rng, length):
    """Letters with optional stars and one P(i, j) projection somewhere."""
    letters = [rng.choice("abgd") + ("'" if rng.random() < 0.4 else "") for _ in range(length)]
    pos = rng.randrange(length + 1)
    i, j = rng.randrange(-2, 3), rng.randrange(-2, 3)
    return "".join(letters[:pos]) + f"P({i},{j})" + "".join(letters[pos:])


@pytest.mark.parametrize("q,x,c", PARAMS)
def test_reduced_word_coefficients_match_per_point_evaluation(q, x, c):
    """reduce_word's composed functions: one array call against every point."""
    rng = random.Random(f"oracle:{q}:{x}")
    b = _pi_c(q, x, c, half=6)
    rules = RuleSet(q)
    checked = 0
    for length in (1, 2, 3, 4, 5, 6):
        for _ in range(5):
            letters, coeff = parse_word(_random_word(rng, length), q, x)
            rep = reduce_word(letters, rules, coeff=coeff)
            assert not rep.budget_hit
            for t in rep.terms:
                want = scalar_mul_grid(scalar_values(t.coeff), b.window)
                _assert_same(_mul_grid(b.mul_fn(t.coeff)), want)
                checked += 1
    assert checked >= 40


# -- bundles -------------------------------------------------------------------


@pytest.mark.parametrize("q,x,c", PARAMS)
def test_pi_c_generators_match_oracle(q, x, c):
    b = _pi_c(q, x, c)
    for name, (eps, nu) in NAME_TO_EPSNU.items():
        d = (-eps, -nu)

        def weight(p1, p2, e=eps, n=nu):
            return scalar_generator_weight(e, n, p1.value, p2.value, c, q)

        assert list(b.u(name).grids) == [d]
        _assert_same(b.u(name).grids[d], scalar_shift_grid(weight, d, b.window))


@pytest.mark.parametrize("q,x,c", PARAMS[1:])
def test_coproduct_images_match_oracle(q, x, c):
    c2 = -0.5 * c + 0.2
    p1, p2 = DynParams(q=q, x=x, c=c), DynParams(q=q, x=x, c=c2)
    db = build_delta_images(build_pi_c(p1), build_pi_c(p2), half=5)
    for name, (eps, nu) in NAME_TO_EPSNU.items():
        assert len(db.u(name).grids) == 2
        for mu in (-1, +1):
            d = (-eps, -mu, -nu)

            def weight(a, v, z, e=eps, m=mu, n=nu):
                return scalar_generator_weight(e, m, a.value, v.value, c, q) * (
                    scalar_generator_weight(m, n, v.value, z.value, c2, q)
                )

            _assert_same(db.u(name).grids[d], scalar_shift_grid(weight, d, db.window))
    f = RuleSet(q).gb_unit
    want = scalar_mul_grid(lambda a, v, z: f(a.value, z.value), db.window)
    _assert_same(_mul_grid(db.mul_fn(f)), want)


def _pi_t_sets():
    out = []
    for y, c, q in ((0.7, -2.5, 0.5), (1.0, 0.3, 0.8), (0.7, 3.1, 0.6), (1.0, -2.5, 0.5)):
        out += compatible_sets(y, c, q)
    return out


def test_pi_t_weights_match_oracle():
    sets = _pi_t_sets()
    assert {s.kind.value for s in sets} >= {"plus_series", "minus_series", "full_orbit", "trivial"}
    for cs in sets:
        rep = build_pi_T(cs, truncation=12)
        q, c = cs.q, cs.c
        scale = 1.0 / abs(q - 1.0 / q)

        def e_weight(p):
            return math.sqrt(max(tau(q * p.value * p.value) + c, 0.0)) * scale

        _assert_same(rep.u("E").grids[(1,)], scalar_shift_grid(e_weight, (1,), rep.window))
        _assert_same(_mul_grid(rep.u("K")), scalar_mul_grid(lambda p: p.value, rep.window))
        _assert_same(_mul_grid(rep.u("Kinv")), scalar_mul_grid(lambda p: 1.0 / p.value, rep.window))


@pytest.mark.parametrize("q,x,c", [(0.5, 1.0, 0.3), (0.8, 0.7, -0.6), (0.6, 1.1, 1.2)])
def test_pi_st_matches_oracle(q, x, c):
    pairs = enumerate_irreps(q, x, c)
    assert pairs
    for pair in pairs:
        st = build_pi_ST(pair, truncation=10)
        kappa = 1.0 / q - q

        def values(f):
            return lambda pS, pT: f(pS.value * pT.value, pS.value / pT.value)

        def diag(f):
            return WindowedOperator(st.window, {(0, 0): scalar_mul_grid(f, st.window)})

        ga = diag(lambda pS, pT: 1.0 / math.sqrt(tau(pS.value * pT.value) * tau(q * pS.value / pT.value)))
        gb = diag(lambda pS, pT: 1.0 / math.sqrt(tau(pS.value * pT.value) * tau(pS.value / (q * pT.value))))
        want = {
            "alpha": kappa * (st.lifted["E1"] @ ga),
            "beta": kappa * (st.lifted["E2"] @ gb),
            "gamma": (-kappa) * (st.lifted["F2"] @ ga),
            "delta": kappa * (st.lifted["F1"] @ gb),
        }
        for name, op in want.items():
            assert list(st.u(name).grids) == list(op.grids)
            for d, g in op.grids.items():
                _assert_same(st.u(name).grids[d], g)
        f = RuleSet(q).gb_unit
        _assert_same(_mul_grid(st.mul_fn(f)), scalar_mul_grid(values(f), st.window))
        images = build_phi_images(st)
        _assert_same(_mul_grid(images.K1), scalar_mul_grid(values(lambda l, p: math.sqrt(l * p)), st.window))
        _assert_same(_mul_grid(images.K2inv), scalar_mul_grid(values(lambda l, p: math.sqrt(p / l)), st.window))
        lat = LatticeSpec(q=q)
        r = st.window.axes[0].spec.value(1)
        unit = values(lambda l, p: 1.0 if lat.exponent_of(l * p / (r * r)) == 0 else 0.0)
        want = scalar_mul_grid(unit, st.window)
        assert np.count_nonzero(want)
        _assert_same(_mul_grid(images.unit_1(r)), want)
