"""su(1,1) models and operators that only the tests use.

`build_verma` is a lowest-weight model that is not star-compatible, the
tests' example of a representation outside the pi_T family; `casimir_op`
evaluates the Casimir's term list on a representation; and
`relation_conditioning` scales the relation tolerance of deep windows.
"""

import numpy as np

from pcqg.lattice import LatticeSpec, tau
from pcqg.uqsu11 import UqRep, casimir_terms
from pcqg.windowed import WindowedOperator, evaluate_terms, mul_op, shift_op, window_1d


def casimir_op(rep: UqRep) -> WindowedOperator:
    """The Casimir of the representation; scalar c on the interior."""
    return evaluate_terms(casimir_terms(*rep.generators(), rep.q))


def relation_conditioning(rep: UqRep) -> float:
    """Largest magnitude appearing among the relation operands.

    Float error of the relation residuals is bounded by a small multiple
    of machine epsilon times this scale; windows with unbounded weights
    (deep series truncations, small q) should test against a tolerance
    proportional to it.
    """
    E, _, K, _ = rep.generators()
    terms = casimir_terms(*rep.generators(), rep.q) + [(1.0, [K, E])]
    return max(1.0, *(evaluate_terms([(1.0, word)]).max_abs() for _, word in terms))


def build_verma(y: float, q: float, n_max: int) -> UqRep:
    """Lowest-weight model on e_0..e_{n_max}; not star-compatible.

    E steps up with coefficient 1; F carries the full two-factor weight;
    K is diagonal y q^n.  F annihilates e_0, so the low end is algebraic.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if y <= 0:
        raise ValueError("y must be positive")
    spec = LatticeSpec(q=q, base=y)
    win = window_1d(spec, 0, n_max)

    # F moves e_n down to e_{n-1}, so its weight is read at n = 1..n_max;
    # the q-powers are Python scalars, tabulated by exponent
    s = (q - 1.0 / q) ** -2
    f_weights = np.array([
        s * (q**n - q**-n) * (q ** (n - 1) * y * y - q ** (1 - n) / (y * y))
        for n in range(1, n_max + 1)
    ])

    ops = {
        "E": shift_op(lambda r: 1.0, (+1,), win),
        "F": shift_op(lambda r: f_weights, (-1,), win),
        "K": mul_op(lambda r: r, win),
        "Kinv": mul_op(lambda r: 1.0 / r, win),
    }
    # Casimir scalar of the lowest-weight module with K e_0 = y
    c = -tau(y * y / q)
    return UqRep(c=c, q=q, window=win, ops=ops, exact_boundaries=frozenset({(0, "low")}))
