import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqg.cset import classify_irreducible_csets
from pcqg.decoupling import exceptional_points, spec_omega_closed_form
from pcqg.lattice import LatticeSpec, power, tau, weight_w


def test_tau_frozen_values():
    assert tau(0.5) == pytest.approx(2.5, abs=1e-15)
    assert tau(1.0) == pytest.approx(2.0, abs=1e-15)
    assert tau(2.0) == pytest.approx(2.5, abs=1e-15)
    assert tau(0.25) == pytest.approx(4.25, abs=1e-15)


def test_tau_rejects_nonpositive():
    with pytest.raises(ValueError):
        tau(0.0)
    with pytest.raises(ValueError):
        tau(-1.0)


@pytest.mark.parametrize("bad", [0.0, -1e-300, -2.0])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_tau_checks_positivity_over_the_whole_array(bad, where):
    v = np.linspace(0.5, 3.5, 7)
    assert np.array_equal(tau(v), v + 1.0 / v)
    v[where] = bad
    with pytest.raises(ValueError, match="positive argument"):
        tau(v)
    with pytest.raises(ValueError, match="positive argument"):
        tau(v.reshape(7, 1) * np.ones((1, 2)))
    with pytest.raises(ValueError, match="positive argument"):
        weight_w(v, 1, 0.5)


def test_scalar_callers_get_python_floats():
    # scalars in, Python floats out: no 0-d arrays reach a JSON report
    assert type(tau(0.3)) is float and type(weight_w(0.3, -1, 0.8)) is float
    assert type(power(0.3, -1)) is float
    spectrum = spec_omega_closed_form(0.8, 0.7).to_json_dict()
    numbers = [spectrum["c0"], *spectrum["interval"], *spectrum["discrete_pos_values"]]
    numbers += spectrum["discrete_neg_values"] + exceptional_points(0.8, 0.7)
    assert numbers and all(type(v) is float for v in numbers)
    sets = classify_irreducible_csets(-2.5, 0.5)
    assert sets and all(type(d.z) is float for d in sets if d.z is not None)


def test_power_rounds_like_python():
    # numpy's reciprocal and power round v ** -1 differently from Python's
    # float power for some v; power() must match Python bit for bit
    v = np.exp(np.random.default_rng(3).uniform(-20, 20, size=5000))
    want = [x**-1 for x in v.tolist()]
    assert power(v, -1).tolist() == want
    assert power(v.reshape(50, 100), -1).ravel().tolist() == want
    assert power(v, 1) is v


def test_weight_w_frozen_value():
    # tau(0.5 * 1) / tau(1) = 2.5 / 2
    assert weight_w(1.0, +1, 0.5) == pytest.approx(1.25, abs=1e-15)
    # w_-(1) at q=0.5: tau(2)/tau(1) = 1.25 as well, by inversion symmetry
    assert weight_w(1.0, -1, 0.5) == pytest.approx(1.25, abs=1e-15)


def test_weight_w_validates_args():
    with pytest.raises(ValueError):
        weight_w(1.0, 0, 0.5)
    with pytest.raises(ValueError):
        weight_w(1.0, 1, 1.5)


positive = st.floats(min_value=1e-6, max_value=1e6)
qs = st.floats(min_value=0.05, max_value=0.95)


@given(positive)
def test_tau_lower_bound_and_symmetry(v):
    t = tau(v)
    assert t >= 2.0 - 1e-12
    assert t == pytest.approx(tau(1.0 / v), rel=1e-12)


@given(positive, positive)
def test_tau_submultiplicative(a, b):
    # tau(ab) + 2 <= tau(a) tau(b)
    assert tau(a * b) + 2.0 <= tau(a) * tau(b) * (1 + 1e-12) + 1e-12


@given(positive, positive)
def test_tau_product_identity(a, b):
    # tau(ab) + tau(a/b) = tau(a) tau(b)
    lhs = tau(a * b) + tau(a / b)
    rhs = tau(a) * tau(b)
    assert lhs == pytest.approx(rhs, rel=1e-9)


@given(qs, positive)
def test_weight_inverse_identities(q, v):
    # w_-(qv) = 1 / w_+(v) and w_eps(v) = w_eps(1/v)... the latter holds for
    # the symmetrized argument: w_eps(1/v) = tau(q^eps/v)/tau(v)
    assert weight_w(q * v, -1, q) == pytest.approx(1.0 / weight_w(v, +1, q), rel=1e-9)


@given(qs, positive)
def test_weight_mirror_identity(q, v):
    # w_eps evaluated at v and at 1/v with opposite sign agree:
    # tau(q^eps v)/tau(v) == tau(q^(-eps)/v)/tau(1/v)
    assert weight_w(v, +1, q) == pytest.approx(weight_w(1.0 / v, -1, q), rel=1e-9)


@settings(max_examples=200)
@given(qs, st.floats(min_value=0.1, max_value=10.0), st.integers(-60, 60), st.sampled_from([1, 2]))
def test_lattice_exponent_round_trip(q, base, n, denom):
    spec = LatticeSpec(q=q, base=base, step_denominator=denom)
    v = spec.value(n)
    assert spec.exponent_of(v) == n


def test_lattice_rejects_off_lattice():
    spec = LatticeSpec(q=0.5, base=1.0)
    assert spec.exponent_of(0.7) is None
    assert 0.7 not in spec
    assert 0.25 in spec


def test_lattice_half_steps():
    spec = LatticeSpec(q=0.5, base=2.0, step_denominator=2)
    v = spec.value(3)  # 2 * 0.5^(3/2)
    assert v == pytest.approx(2.0 * math.sqrt(0.125), rel=1e-14)
    assert spec.exponent_of(v) == 3


def test_lattice_validation():
    with pytest.raises(ValueError):
        LatticeSpec(q=1.2)
    with pytest.raises(ValueError):
        LatticeSpec(q=0.5, base=-1.0)
    with pytest.raises(ValueError):
        LatticeSpec(q=0.5, step_denominator=3)


@settings(max_examples=100)
@given(qs, st.floats(min_value=0.1, max_value=10.0), st.integers(-40, 40), st.sampled_from([1, 2]))
def test_indicator_is_exponent_of_on_arrays(q, base, n, denom):
    spec = LatticeSpec(q=q, base=base, step_denominator=denom)
    exps = np.arange(n - 3, n + 4)
    values = np.array([spec.value(int(k)) for k in exps])
    assert spec.indicator(values, n).tolist() == (exps == n).tolist()
    # a value moved by float multiplications still hits its point
    moved = spec.value(n - 1) * q ** (1.0 / denom)
    assert spec.indicator(np.array([moved, -moved, 0.0]), n).tolist() == [1.0, 0.0, 0.0]
