"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single `criterion N [name]: PASS/FAIL` line (visible
with -s or in captured output) and asserts the same condition, so the
pytest -v listing carries one pass/fail line per criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pcqg.cset import compare_on_window
from pcqg.decoupling import (
    build_phi_images,
    build_pi_ST,
    default_c_grid,
    enumerate_irreps,
    omega_residuals,
    phi_relation_residuals,
    round_trip_residuals,
    spec_omega_brute_force,
    spec_omega_closed_form,
)
from pcqg.dynsu2 import (
    GEN_NAMES,
    DynParams,
    build_pi_c,
    default_window,
    generator_norm_bounds,
    reduce_and_check,
    verify_dynsu2_relations,
)
from pcqg.fdpcqg import (
    from_finite_groupoid_algebra,
    from_finite_groupoid_functions,
    haar_cesaro,
    haar_linear_solve,
    haar_residuals,
    raum_instance,
    standard_groupoids,
    uniform_haar_oracle,
    verify_axioms,
)
from pcqg.lattice import tau
from pcqg.uqsu11 import build_pi_T, compatible_sets, verify_uqsu11_relations
from pcqg.windowed import WindowedOperator, relation_residual
from pcqg.words import LETTERS, STARRED
from uqsu11_helpers import casimir_op


# collected by the conftest terminal-summary hook so the lines survive
# pytest's stdout capture
VERDICTS: list = []


def _verdict(n, name, ok, detail=""):
    line = f"criterion {n} [{name}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    VERDICTS.append(line)
    print(line)
    assert ok, f"criterion {n} ({name}): {detail}"


def test_criterion_1_cset_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    n_values = 0
    for q in (0.3, 0.5, 0.8):
        cs = list(np.linspace(-8.0, 8.0, 160))
        cs += [-tau(q**k) for k in range(-12, 13)]
        cs += [tau(q**k) for k in range(0, 13)]
        cs += [-2.0, 2.0]
        assert len(cs) >= 200
        n_values += len(cs)
        for c in cs:
            rep = compare_on_window(float(c), q, 24)
            if not rep["equal"]:
                failures.append((q, float(c)))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _verdict(
        1,
        "c-set oracle equivalence",
        ok,
        f"{n_values} c values, {len(failures)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_pi_t_validity():
    worst = 0.0
    n_reps = 0
    for y in (1.0, 0.7):
        for c in (0.0, 1.3, -2.0, -2.5, -4.25):
            for cs in compatible_sets(y, c, 0.5):
                rep = build_pi_T(cs, truncation=10)
                n_reps += 1
                for r in verify_uqsu11_relations(rep):
                    worst = max(worst, r.residual)
                C = casimir_op(rep)
                res = relation_residual(
                    [(1.0, [C]), (-c, [rep.u("K") @ rep.u("Kinv")])],
                    rep.margins(),
                    label="casimir",
                    exact_boundaries=rep.exact_boundaries,
                )
                worst = max(worst, res.residual)
    ok = n_reps > 0 and worst < 1e-10
    _verdict(2, "pi_T validity", ok, f"{n_reps} representations, worst residual {worst:.2e}")


PI_C_CONFIGS = [(x, c) for x in (1.0, 0.7) for c in (0.0, 1.5, -1.9)]


def test_criterion_3_pi_c_validity_and_fault_detection():
    worst = 0.0
    undetected = []
    for x, c in PI_C_CONFIGS:
        b = build_pi_c(DynParams(q=0.5, x=x, c=c))
        assert b.window.shape == (21, 21)
        for r in verify_dynsu2_relations(b):
            worst = max(worst, r.residual)
        # single-entry faults of size 1e-3 on each generator must be seen
        origin = np.unravel_index(b.window.index_of((0, 0)), b.window.shape)
        for name in GEN_NAMES:
            ((d, g),) = b.u(name).grids.items()
            g = g.copy()
            g[origin] += 1e-3
            ops = dict(b.ops)
            ops[name] = WindowedOperator(b.window, {d: g})
            faulted = replace(b, ops=ops)
            detected = max(r.residual for r in verify_dynsu2_relations(faulted))
            if detected <= 1e-4:
                undetected.append((x, c, name))
    ok = worst < 1e-10 and not undetected
    _verdict(
        3,
        "pi_c validity",
        ok,
        f"worst residual {worst:.2e}, undetected faults {len(undetected)}",
    )


def test_criterion_4_decoupling():
    worst = 0.0
    for x, c in ((1.0, 0.0), (0.7, 1.5), (1.0, -1.9)):
        b = build_pi_c(DynParams(q=0.5, x=x, c=c))
        images = build_phi_images(b)
        for r in phi_relation_residuals(images):
            worst = max(worst, r.residual)
        for r in omega_residuals(images, c_expected=c):
            worst = max(worst, r.residual)
        for r in round_trip_residuals(b):
            worst = max(worst, r.residual)
    ok = worst < 1e-10
    _verdict(4, "decoupling", ok, f"worst residual {worst:.2e}")


def test_criterion_5_spectrum_reproduction():
    t0 = time.perf_counter()
    d1 = spec_omega_closed_form(0.5, 1.0)
    exact_x1 = d1.c0 == pytest.approx(-2.5, abs=1e-12)
    x07 = math.sqrt(0.7)
    d2 = spec_omega_closed_form(0.5, x07)
    expected = -max(tau(1.4), tau(0.7))
    exact_x07 = d2.c0 == pytest.approx(expected, abs=1e-12) and abs(d2.c0 + 2.12857) < 1e-5
    mismatches = 0
    checked = 0
    for x in (1.0, x07):
        rep = spec_omega_brute_force(
            0.5, x, c_grid=default_c_grid(0.5, x, n=400), window=12
        )
        mismatches += rep["grid_agreement"]["mismatches"]
        checked += rep["grid_agreement"]["checked"]
    elapsed = time.perf_counter() - t0
    ok = exact_x1 and exact_x07 and mismatches == 0 and checked >= 800 and elapsed < 300.0
    _verdict(
        5,
        "spectrum reproduction",
        ok,
        f"c0(x=1)={d1.c0}, c0(x2=0.7)={d2.c0:.6f}, {checked} points, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def _zoo_instances():
    out = {}
    for name, gpd in sorted(standard_groupoids().items()):
        out[name + "_fn"] = (from_finite_groupoid_functions(gpd), gpd, True)
        out[name + "_alg"] = (from_finite_groupoid_algebra(gpd), gpd, False)
    return out


def test_criterion_6_haar_constructive():
    instances = _zoo_instances()
    assert len(instances) >= 6
    worst_gap = 0.0
    worst_resid = 0.0
    worst_oracle = 0.0
    for name, (G, gpd, commutative) in instances.items():
        ces = haar_cesaro(G)
        sol = haar_linear_solve(G)
        gap = max(
            np.abs(ces.phi(k, m).vector - sol.phi(k, m).vector).max(initial=0.0)
            for k in range(G.n_objects)
            for m in range(G.n_objects)
        )
        worst_gap = max(worst_gap, gap)
        for fam in (ces, sol):
            for r in haar_residuals(G, fam):
                worst_resid = max(worst_resid, r.residual)
        if commutative:
            oracle = uniform_haar_oracle(G, gpd)
            worst_oracle = max(
                worst_oracle,
                max(
                    np.abs(sol.phi(k, m).vector - oracle.phi(k, m).vector).max(initial=0.0)
                    for k in range(G.n_objects)
                    for m in range(G.n_objects)
                ),
            )
    ok = worst_gap < 1e-8 and worst_resid < 1e-10 and worst_oracle < 1e-10
    _verdict(
        6,
        "Haar constructive",
        ok,
        f"{len(instances)} instances, route gap {worst_gap:.2e}, "
        f"invariance {worst_resid:.2e}, oracle {worst_oracle:.2e}",
    )


def test_criterion_7_axiom_discrimination():
    raum = verify_axioms(raum_instance())
    raum_exact = raum.failed_axioms() == ["D2"]
    clean = [
        name
        for name, (G, _, _) in _zoo_instances().items()
        if not verify_axioms(G).passed
    ]
    ok = raum_exact and not clean
    _verdict(
        7,
        "axiom discrimination",
        ok,
        f"raum fails {raum.failed_axioms()}, groupoid failures {clean}",
    )


def test_criterion_8_rewriter_soundness():
    rng = np.random.default_rng(20240817)
    alphabet = list(LETTERS + STARRED)
    p1 = DynParams(q=0.5, x=1.0, c=0.0)
    p2 = DynParams(q=0.5, x=1.0, c=1.3)
    pair = (
        build_pi_c(p1, default_window(p1, half=6)),
        build_pi_c(p2, default_window(p2, half=6)),
    )
    worst = 0.0
    not_idempotent = 0
    failures = 0
    for _ in range(500):
        length = int(rng.integers(1, 7))
        letters = tuple(rng.choice(alphabet) for _ in range(length))
        rep = reduce_and_check(letters, pair, max_len=8)
        if not rep["ok"]:
            failures += 1
            continue
        worst = max(worst, max(rep["oracle_residuals"]))
        if not rep["idempotent"]:
            not_idempotent += 1
    ok = failures == 0 and worst < 1e-9 and not_idempotent == 0
    _verdict(
        8,
        "rewriter soundness",
        ok,
        f"500 words, worst residual {worst:.2e}, "
        f"{failures} failures, {not_idempotent} non-idempotent",
    )


def test_criterion_9_norm_bound():
    worst = 0.0
    n_ops = 0
    for x, c in PI_C_CONFIGS:
        b = build_pi_c(DynParams(q=0.5, x=x, c=c))
        for bound in generator_norm_bounds(b).values():
            worst = max(worst, bound)
            n_ops += 1
    for x, c in ((1.0, -4.25), (1.0, 0.0), (0.7, -2.0)):
        for pair in enumerate_irreps(0.5, x, c):
            st = build_pi_ST(pair, truncation=16)
            for bound in generator_norm_bounds(st).values():
                worst = max(worst, bound)
                n_ops += 1
    ok = n_ops > 0 and worst <= 1.0 + 1e-12
    _verdict(9, "norm bound", ok, f"{n_ops} generator images, max singular value {worst:.12f}")
