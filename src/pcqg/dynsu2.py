"""Dynamical quantum SU(2): weight representations and structure checks.

The algebra has four generators arranged in a 2x2 matrix u_{eps,nu}
(alpha, beta, gamma, delta), graded over a two-sided exponent lattice,
with coefficient functions f(lambda, rho) sliding through generators by
lattice shifts.  For -2 < c < 2 the weight representation pi_c realizes
every generator as a weighted shift with all weights of modulus < 1;
pi_c at two different c values is the oracle for every symbolic claim
in this module (rewriting rules, antipode, coproduct compatibility).

The relations are written once, as symbolic term lists in
defining_relations, which both the operator battery and the antipode
check read.  The table holds
  * ort_*: the six orthogonality lines of the generator matrix (row/column
    sums and crosses),
  * id2_*: the four star-elimination identities in the uniform right-hand
    form u* = sign * partner * f, taken from RuleSet.star_rules,
  * extcom_*: the four extended commutation identities, in a normalized
    form (both sides divided by tau(lambda)tau(rho)) so every operand
    stays O(1) on any window; the literal form differs by an invertible
    positive diagonal and is equivalent.
The battery (battery_relations) reports the star entries as adjoint_*
and derives two more families from the table and the letters:
  * id2_*: the display form of each star identity, its function slid from
    the right end to the left end by the word's net displacement,
  * slide_*: coefficient-function sliding f0 u = u f0(shifted) for each
    generator, with a generic test function f0.
Suite "defining" is ort + id2 + slide (14 checks), "full" is all 22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import LatticeSpec, power, tau, weight_w
from .windowed import (
    Bundle,
    RelationResidual,
    Window,
    WindowAxis,
    WindowedOperator,
    evaluate_terms,
    identity_op,
    op_norm_bound,
    relation_residual,
    shift_op,
    table_residuals,
)
from .words import (
    EPS_NU,
    LETTERS,
    STARRED,
    CoeffFn,
    RuleSet,
    Term,
    dirac_projection,
    letter_displacement,
    monomial_signature,
    push_right,
    reduce_word,
    shared_evaluation,
    star_step,
)

GEN_NAMES = ("alpha", "beta", "gamma", "delta")
LETTER_TO_NAME = dict(zip(LETTERS, GEN_NAMES))
NAME_TO_EPSNU = {LETTER_TO_NAME[ch]: en for ch, en in EPS_NU.items()}
EPSNU_TO_NAME = {en: name for name, en in NAME_TO_EPSNU.items()}
ONE = CoeffFn.one()


@dataclass(frozen=True)
class DynParams:
    q: float
    x: float = 1.0
    c: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.q, self.x, self.c)):
            raise ValueError("q, x and c must be finite")
        if not 0 < self.q < 1:
            raise ValueError("q must be in (0,1)")
        if self.x <= 0:
            raise ValueError("x must be positive")


def generator_weight(eps: int, nu: int, yv, zv, c: float, q: float):
    """Shift weight of u_{eps,nu} at the points (y, z), sign included.

    yv and zv are value grids (or scalars) that broadcast together.
    """
    ye, zn = power(yv, eps), power(zv, nu)
    num = tau(ye * zn / q) + eps * nu * c
    den = tau(ye) * tau(zn / q)
    theta = -1.0 if (eps, nu) == (-1, 1) else 1.0
    return theta * np.sqrt(num / den)


@dataclass(frozen=True, kw_only=True)
class PiCBundle(Bundle):
    """pi_c on a two-axis window of (lambda, rho) exponents."""

    params: DynParams


def default_window(params: DynParams, half: int = 10) -> Window:
    spec = LatticeSpec(q=params.q, base=params.x)
    ax = WindowAxis(spec, -half, half)
    return Window((ax, ax))


def build_pi_c(params: DynParams, window: Optional[Window] = None) -> PiCBundle:
    if abs(params.c) >= 2:
        raise ValueError("pi_c needs -2 < c < 2; use the product picture beyond")
    if window is None:
        window = default_window(params)
    q, c = params.q, params.c
    ops = {}
    for name, (eps, nu) in NAME_TO_EPSNU.items():
        ops[name] = shift_op(
            lambda lv, rv, e=eps, n=nu: generator_weight(e, n, lv, rv, c, q),
            (-eps, -nu),
            window,
        )
    return PiCBundle(q=q, params=params, window=window, ops=ops)


# -- the relation table and the battery ---------------------------------------


def letter_operator(ch: str, b) -> WindowedOperator:
    """The bundle's operator for one letter, starred letters as adjoints."""
    name = LETTER_TO_NAME[ch[0]]
    return b.u_star(name) if ch.endswith("*") else b.u(name)


def defining_relations(q: float) -> dict[str, list[tuple[complex, Term]]]:
    """The fourteen defining relations as symbolic term lists (sum = 0).

    The star identities (id2_*) are read off RuleSet.star_rules in the
    uniform right-hand form u* = sign * partner * f.  Extended-commutation
    lines appear in the normalized form; coefficient functions are already
    pushed to the right end of each word (the adjoint pairs have net
    displacement zero, so the functions pass through unchanged).
    """
    kappa = q - 1.0 / q

    def T(letters, fn=ONE):
        return Term(tuple(letters), fn)

    rel = {
        "ort_row_1": [(1, T(["a", "a*"])), (1, T(["b", "b*"])), (-1, T([]))],
        "ort_row_2": [(1, T(["g", "g*"])), (1, T(["d", "d*"])), (-1, T([]))],
        "ort_row_cross": [(1, T(["a", "g*"])), (1, T(["b", "d*"]))],
        "ort_col_1": [(1, T(["a*", "a"])), (1, T(["g*", "g"])), (-1, T([]))],
        "ort_col_2": [(1, T(["b*", "b"])), (1, T(["d*", "d"])), (-1, T([]))],
        "ort_col_cross": [(1, T(["a*", "b"])), (1, T(["g*", "d"]))],
    }
    for star, (sign, partner, fn) in RuleSet(q).star_rules.items():
        rel["id2_" + LETTER_TO_NAME[star[0]]] = [
            (1, T([star])),
            (-sign, T([partner], fn)),
        ]

    def extcom(ch, er, el, num):
        # w_er(rho) u* u - w_el(lambda) u u* = kappa num / (tau(lambda) tau(rho))
        w_r = CoeffFn(lambda l, r: weight_w(r, er, q), f"w{er:+d}(R)")
        w_l = CoeffFn(lambda l, r: weight_w(l, el, q), f"w{el:+d}(L)")
        rhs = CoeffFn(lambda l, r: kappa * num(l, r) / (tau(l) * tau(r)), f"rhs_{ch}")
        return [(1, T([ch + "*", ch], w_r)), (-1, T([ch, ch + "*"], w_l)), (-1, T([], rhs))]

    rel["extcom_alpha"] = extcom("a", +1, -1, lambda l, r: l * r - 1 / (l * r))
    rel["extcom_beta"] = extcom("b", -1, -1, lambda l, r: l / r - r / l)
    rel["extcom_gamma"] = extcom("g", +1, +1, lambda l, r: r / l - l / r)
    rel["extcom_delta"] = extcom("d", -1, +1, lambda l, r: 1 / (l * r) - l * r)
    return rel


# Battery families in report order, and the families each suite runs:
# ort_*, id2_* and slide_* are the definitional relations; adjoint_*
# restates the star identities in the uniform right-hand form, extcom_*
# are consequences.
SUITES = {
    "defining": ("ort", "id2", "slide"),
    "full": ("ort", "id2", "adjoint", "slide", "extcom"),
}

# A battery term (z, left, t) stands for z * left * t: an optional
# coefficient function in front of the term's letters.
BatteryTerm = tuple[complex, Optional[CoeffFn], Term]


def _coeff_to_left(t: Term, q: float) -> tuple[Optional[CoeffFn], Term]:
    """Slide t's coefficient from the right end of its word to the left end."""
    if t.coeff is ONE:
        return None, t
    dl = sum(letter_displacement(ch)[0] for ch in t.letters)
    dr = sum(letter_displacement(ch)[1] for ch in t.letters)
    return t.coeff.shifted(-dl, -dr, q), Term(t.letters, ONE)


def battery_relations(q: float, suite: str = "full") -> dict[str, list[BatteryTerm]]:
    """The suite's relations, labelled and in report order.

    ort_*, adjoint_* and extcom_* are the table entries as written; id2_*
    is the display form of each star identity (function slid to the left
    end); slide_* is f0 u - u f0(shifted) for a generic test function f0.
    """
    families = {name: {} for name in SUITES["full"]}
    for name, terms in defining_relations(q).items():
        family, gen = name.split("_", 1)
        plain = [(z, None, t) for z, t in terms]
        if family == "id2":
            families["adjoint"]["adjoint_" + gen] = plain
            plain = [(z, *_coeff_to_left(t, q)) for z, t in terms]
        families[family][name] = plain
    f0 = CoeffFn(lambda l, r: tau(l) + 2.0 * tau(q * r) + l * r, "f0")
    for ch, name in LETTER_TO_NAME.items():
        moved = f0.shifted(*letter_displacement(ch), q)
        families["slide"]["slide_" + name] = [
            (1, f0, Term((ch,), ONE)),
            (-1, None, Term((ch,), moved)),
        ]
    return {
        label: terms
        for family in SUITES[suite]
        for label, terms in families[family].items()
    }


def verify_dynsu2_relations(
    b: Bundle, tol: float = 1e-10, suite: str = "full"
) -> list[RelationResidual]:
    """Residuals of the suite's relations on the bundle's interior.

    b is any Bundle of the four generators alpha, beta, gamma and delta
    with (lambda, rho) coordinates: pi_c, the compressed coproduct images
    or pi_ST.  Each term is evaluated as the operator word left function,
    letters, coefficient function (no diagonal for a unit function), so
    required_margins sees every intermediate shift.
    """
    ops = {ch: letter_operator(ch, b) for ch in LETTERS + STARRED}

    def word(left, t):
        out = [b.mul_fn(left)] if left is not None else []
        out += [ops[ch] for ch in t.letters]
        if t.coeff is not ONE:
            out.append(b.mul_fn(t.coeff))
        return out or [identity_op(b.window)]

    table = (
        (label, [(z, word(left, t)) for z, left, t in terms])
        for label, terms in battery_relations(b.q, suite).items()
    )
    return table_residuals(table, b.margins(), b.exact_boundaries, tol)


def generator_norm_bounds(b: Bundle) -> dict:
    return {name: op_norm_bound(b.u(name)) for name in GEN_NAMES}


# -- coproduct compatibility ------------------------------------------------


def build_delta_images(b1: PiCBundle, b2: PiCBundle, half: int = 4) -> Bundle:
    """Coproduct images on the matched-middle compressed space.

    Basis vectors carry three exponents (y, v, z); the image of u_{eps,nu}
    is the sum over the middle signature mu of a three-axis shift whose
    weight is the product of the two leg weights.  Coefficient functions
    act through the outer axes only, matching the coproduct of a
    diagonal function.
    """
    if b1.params.q != b2.params.q or b1.params.x != b2.params.x:
        raise ValueError("coproduct legs must share q and x")
    q = b1.params.q
    c1, c2 = b1.params.c, b2.params.c
    spec = LatticeSpec(q=q, base=b1.params.x)
    ax = WindowAxis(spec, -half, half)
    win = Window((ax, ax, ax))
    ops = {}
    for name, (eps, nu) in NAME_TO_EPSNU.items():
        total = None
        for mu in (-1, +1):
            piece = shift_op(
                lambda y, v, z, e=eps, m=mu, n=nu: generator_weight(e, m, y, v, c1, q)
                * generator_weight(m, n, v, z, c2, q),
                (-eps, -mu, -nu),
                win,
            )
            total = piece if total is None else total + piece
        ops[name] = total
    return Bundle(q=q, window=win, ops=ops, coords=lambda y, v, z: (y, z))


def coproduct_compat_check(
    b1: PiCBundle, b2: PiCBundle, half: int = 4, tol: float = 1e-10
) -> list[RelationResidual]:
    """The coproduct images satisfy the full relation battery."""
    db = build_delta_images(b1, b2, half=half)
    return verify_dynsu2_relations(db, tol=tol)


# -- symbolic term evaluation (shared by antipode and rewriter checks) ------


def term_operator(t: Term, b: PiCBundle) -> WindowedOperator:
    out = b.mul_fn(t.coeff)
    for ch in reversed(t.letters):
        out = letter_operator(ch, b) @ out
    return out


def _terms_operator(terms: list[tuple[complex, Term]], b: PiCBundle) -> WindowedOperator:
    """The operator of sum(z * term)."""
    return evaluate_terms([(z, [term_operator(t, b)]) for z, t in terms])


def terms_residual(
    terms: list[tuple[complex, Term]], b: PiCBundle, label: str, tol: float = 1e-10
) -> RelationResidual:
    rt = [(z, [term_operator(t, b)]) for z, t in terms]
    return relation_residual(rt, b.margins(3), label=label, tol=tol)


# -- antipode ---------------------------------------------------------------

S_LETTER = {"a": "a*", "b": "g*", "g": "b*", "d": "d*"}


def star_eliminate(terms: list[tuple[complex, Term]], rules: RuleSet):
    """Replace starred letters via the adjoint identities; no reordering."""
    work = list(terms)
    out = []
    while work:
        z, t = work.pop()
        step = star_step(t, rules)
        if step is None:
            out.append((z, t))
        else:
            sign, t2 = step
            work.append((z * sign, t2))
    return out


def s_transform(terms: list[tuple[complex, Term]], q: float):
    """Apply the antipode to a star-free term list.

    Anti-multiplicative on letters (word reversed, each letter sent to
    the starred partner with indices swapped), coefficient functions get
    their arguments swapped and are pushed back to the right end.
    """
    out = []
    for z, t in terms:
        if not t.is_star_free():
            raise ValueError("star-eliminate before applying the antipode")
        new_letters = tuple(S_LETTER[ch] for ch in reversed(t.letters))
        out.append((z, Term(new_letters, push_right(t.coeff.swapped(), new_letters, q))))
    return out


def _antipode(terms: list[tuple[complex, Term]], rules: RuleSet):
    return s_transform(star_eliminate(terms, rules), rules.q)


def antipode_check(b: PiCBundle, tol: float = 1e-10) -> list[RelationResidual]:
    """Antipode consistency in pi_c.

    Every defining relation is star-eliminated, S-transformed (word
    reversal plus the letter swap; coefficient arguments swapped) and the
    resulting identity is evaluated in pi_c.
    """
    rules = RuleSet(b.params.q)
    return [
        terms_residual(_antipode(terms, rules), b, label=f"S[{name}]", tol=tol)
        for name, terms in defining_relations(rules.q).items()
    ]


def antipode_block_check(b: PiCBundle, tol: float = 1e-12) -> RelationResidual:
    """Blockwise corepresentation condition for the antipode.

    For sample interior blocks: the S-image of the (eps,nu;y,z) block,
    computed through the symbolic machinery, must equal the adjoint of
    the (nu,eps;z,y) block of the generating matrix.
    """
    q, x = b.params.q, b.params.x
    rules = RuleSet(q)
    worst = 0.0
    for letter, (eps, nu) in EPS_NU.items():
        for (i, j) in ((0, 0), (1, -1), (-2, 3)):
            src = Term((letter,), dirac_projection(i, j, q, x))
            lhs = _terms_operator(_antipode([(1.0, src)], rules), b)
            # swapped-block adjoint: u_{nu,eps} localized at (j, i)
            sw_name = EPSNU_TO_NAME[nu, eps]
            rhs = (b.u(sw_name) @ b.mul_fn(dirac_projection(j, i, q, x))).adjoint()
            worst = np.maximum(worst, (lhs - rhs).max_abs())
    return RelationResidual(
        label="antipode_block", residual=float(worst), margins=b.margins(), tol=tol
    )


def antipode_square_check(b: PiCBundle, tol: float = 1e-12) -> RelationResidual:
    """S^2 restores each generator block up to the modular weight ratio.

    S^2(u at (eps,nu;y,z)) = (tau(y) tau(q^{-nu} z)) / (tau(q^{-eps} y) tau(z))
    times the original block: grading restored, scalar generally not 1.
    """
    q, x = b.params.q, b.params.x
    rules = RuleSet(q)
    worst = 0.0
    for letter, (eps, nu) in EPS_NU.items():
        for (i, j) in ((0, 0), (2, -1)):
            src = Term((letter,), dirac_projection(i, j, q, x))
            lhs = _terms_operator(_antipode(_antipode([(1.0, src)], rules), rules), b)
            yv, zv = x * q**i, x * q**j
            scalar = (tau(yv) * tau(q**-nu * zv)) / (tau(q**-eps * yv) * tau(zv))
            rhs = scalar * (letter_operator(letter, b) @ b.mul_fn(dirac_projection(i, j, q, x)))
            worst = np.maximum(worst, (lhs - rhs).max_abs())
    return RelationResidual(
        label="antipode_square", residual=float(worst), margins=b.margins(), tol=tol
    )


# -- the x <-> 1/x symmetry -------------------------------------------------


def x_symmetry_check(
    b1: PiCBundle, tol: float = 1e-12, signed: bool = True
) -> list[RelationResidual]:
    """Intertwines pi_c over the x lattice with pi_c over the 1/x lattice.

    The unitary is exponent negation composed with the diagonal sign
    (-1)^floor((m-n)/2); the sign repairs the theta mismatch between
    beta and gamma under the index flip.  signed=False drops the diagonal
    part (negative control: the off-diagonal generators then fail).
    """
    params = b1.params
    half = (b1.window.axes[0].size - 1) // 2
    params2 = DynParams(q=params.q, x=1.0 / params.x, c=params.c)
    b2 = build_pi_c(params2, default_window(params2, half=half))

    # T delta_p = sign(-p) delta_{-p}: on grids, a displacement d becomes -d
    # and the grid is read at -p; both windows are symmetric about 0
    mirror = tuple(slice(None, None, -1) for _ in b1.window.axes)
    signs = np.ones(b2.window.shape)
    if signed:
        a, c2 = np.indices(b2.window.shape) - half
        signs = (-1.0) ** ((c2 - a) // 2)
    sign_op = WindowedOperator(b2.window, {(0, 0): signs})

    out = []
    for name, (eps, nu) in NAME_TO_EPSNU.items():
        flipped = {tuple(-k for k in d): g[mirror] for d, g in b1.u(name).grids.items()}
        mirrored = WindowedOperator(b2.window, flipped)
        diff = sign_op @ mirrored @ sign_op - b2.u(EPSNU_TO_NAME[-eps, -nu])
        out.append(
            RelationResidual(
                label=f"xsym_{name}",
                residual=diff.max_abs(),
                margins=b1.margins(0),
                tol=tol,
            )
        )
    return out


# -- word reduction with the pi_c oracle ------------------------------------


def reduce_and_check(
    letters: tuple[str, ...],
    b_pair: tuple[PiCBundle, PiCBundle],
    max_len: int = 8,
    coeff: CoeffFn = ONE,
) -> dict:
    """Reduce the term letters * coeff to normal form and verify against pi_c.

    coeff is the word's trailing coefficient function (parse_word's P(i,j)
    projections, say).  Two bundles at distinct c rule out accidental
    kernel coincidences.  Returns the report dict used by the CLI:
    monomial signatures, coefficient labels, oracle residuals, idempotence
    flag.
    """
    q = b_pair[0].params.q
    rules = RuleSet(q)
    rep = reduce_word(letters, rules, coeff=coeff, max_len=max_len)
    if rep.budget_hit:
        return {
            "ok": False,
            "error": "step budget exceeded",
            "offending": "".join(rep.offending.letters) if rep.offending else None,
            "steps": rep.steps,
        }
    residuals = []
    # the terms share coefficient subtrees, and both bundles share q, x and
    # the window, so one scope evaluates each (node, grid) pair once
    with shared_evaluation():
        for b in b_pair:
            orig = term_operator(Term(tuple(letters), coeff), b)
            red = _terms_operator([(1.0, t) for t in rep.terms], b)
            margin = max(len(letters), 2)
            r = relation_residual(
                [(1.0, [orig]), (-1.0, [red])],
                b.margins(margin),
                label="reduce",
            )
            residuals.append(r.residual)
    # idempotence: reducing each output term changes nothing
    idempotent = True
    for t in rep.terms:
        again = reduce_word(t.letters, rules, coeff=t.coeff, max_len=max(len(t.letters), 1))
        if len(again.terms) != 1 or again.terms[0].letters != t.letters:
            idempotent = False
    return {
        "ok": True,
        "steps": rep.steps,
        "terms": [
            {
                "monomial": monomial_signature(t),
                "coeff": t.coeff.label,
            }
            for t in rep.terms
        ],
        "oracle_residuals": residuals,
        "idempotent": idempotent,
    }
