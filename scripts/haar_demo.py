"""Invariant integrals on the groupoid zoo, both construction routes.

For each instance: the corner-trace seed is already invariant (0
iterations), so we also restart the averaging from a deliberately skewed
faithful corner state to watch the Cesaro convergence, then compare
everything against the linear solve and, for function algebras, the
uniform measure.

Usage: python3 scripts/haar_demo.py [--skew 0.35]
"""

import argparse

import numpy as np

from pcqg.fdpcqg import (
    GradedFunctional,
    from_finite_groupoid_algebra,
    from_finite_groupoid_functions,
    haar_cesaro,
    haar_linear_solve,
    haar_residuals,
    standard_groupoids,
    uniform_haar_oracle,
)


def family_diff(G, a, b):
    return max(
        np.abs(a.phi(k, m).vector - b.phi(k, m).vector).max(initial=0.0)
        for k in range(G.n_objects)
        for m in range(G.n_objects)
    )


def skewed_seeds(G, skew, rng):
    seeds = {}
    diagonal = np.arange(G.n_objects) * (G.n_objects + 1)  # (k, k) raveled
    for k, unit in enumerate(G.unit_vectors(diagonal)):
        w = np.where(np.abs(unit) > 0, 1.0 + skew * rng.random(G.dim), 0.0)
        # normalize as a corner state and project onto the corner grading
        vec = w / (w @ unit)
        seeds[k] = GradedFunctional.graded(G, vec, (k, k, k, k))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--skew", type=float, default=0.35)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    print(f"{'instance':>18s} {'dim':>4s} {'iters':>6s} {'ces-vs-solve':>13s} "
          f"{'worst resid':>12s} {'vs uniform':>11s}")
    for name, gpd in sorted(standard_groupoids().items()):
        for form, build in (("fn", from_finite_groupoid_functions),
                            ("alg", from_finite_groupoid_algebra)):
            G = build(gpd)
            ces = haar_cesaro(G, seed_states=skewed_seeds(G, args.skew, rng))
            sol = haar_linear_solve(G)
            iters = max(c["iterations"] for c in ces.diagnostics["corners"].values())
            diff = family_diff(G, ces, sol)
            worst = max(r.residual for r in haar_residuals(G, sol))
            if form == "fn":
                uni = family_diff(G, sol, uniform_haar_oracle(G, gpd))
                uni_s = f"{uni:11.2e}"
            else:
                uni_s = f"{'n/a':>11s}"
            label = f"{name}_{form}"
            print(f"{label:>18s} {G.dim:4d} {iters:6d} {diff:13.2e} {worst:12.2e} {uni_s}")
            assert diff < 1e-8 and worst < 1e-10


if __name__ == "__main__":
    main()
