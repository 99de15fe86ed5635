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
from typing import Callable, Optional

import numpy as np

from .lattice import LatticeSpec, tau, weight_w
from .windowed import (
    RelationResidual,
    Window,
    WindowAxis,
    WindowedOperator,
    identity_op,
    mul_op,
    op_norm_bound,
    relation_residual,
    shift_op,
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


def generator_weight(
    eps: int, nu: int, yv: float, zv: float, c: float, q: float
) -> float:
    """Shift weight of u_{eps,nu} at the point (y, z), sign included."""
    num = tau(yv**eps * zv**nu / q) + eps * nu * c
    den = tau(yv**eps) * tau(zv**nu / q)
    theta = -1.0 if (eps, nu) == (-1, 1) else 1.0
    return theta * math.sqrt(num / den)


@dataclass(frozen=True)
class PiCBundle:
    params: DynParams
    window: Window
    ops: dict

    @property
    def q(self) -> float:
        return self.params.q

    def u(self, name: str) -> WindowedOperator:
        return self.ops[name]

    @property
    def alpha(self):
        return self.ops["alpha"]

    @property
    def beta(self):
        return self.ops["beta"]

    @property
    def gamma(self):
        return self.ops["gamma"]

    @property
    def delta(self):
        return self.ops["delta"]

    def mul_fn(self, f: Callable[[float, float], complex]) -> WindowedOperator:
        """Diagonal operator of a function of the (lambda, rho) values."""
        return mul_op(lambda p1, p2: f(p1.value, p2.value), self.window)

    def projection(self, i: int, j: int) -> WindowedOperator:
        """Unit projection onto the basis vector at exponents (i, j)."""
        return mul_op(
            lambda p1, p2: 1.0 if (p1.n, p2.n) == (i, j) else 0.0, self.window
        )

    def margins(self, pad: int = 2):
        return tuple((pad, pad) for _ in self.window.axes)

    def exact_boundaries(self) -> frozenset:
        return frozenset()


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
            lambda p1, p2, e=eps, n=nu: generator_weight(
                e, n, p1.value, p2.value, c, q
            ),
            (-eps, -nu),
            window,
        )
    return PiCBundle(params=params, window=window, ops=ops)


# -- the relation table and the battery ---------------------------------------


def letter_operator(ch: str, b) -> WindowedOperator:
    """The bundle's operator for one letter, starred letters as adjoints."""
    op = b.u(LETTER_TO_NAME[ch[0]])
    return op.adjoint() if ch.endswith("*") else op


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
    b, tol: float = 1e-10, suite: str = "full"
) -> list[RelationResidual]:
    """Residuals of the suite's relations on the bundle's interior.

    Works on anything exposing q, window, u(name), mul_fn, margins, and
    exact_boundaries; in particular pi_c bundles, compressed coproduct-image
    bundles and pi_ST bundles.  Each term is evaluated as the operator word
    left function, letters, coefficient function (no diagonal for a unit
    function), so required_margins sees every intermediate shift.
    """
    ops = {ch: letter_operator(ch, b) for ch in LETTERS + STARRED}
    margins = b.margins()
    exact = b.exact_boundaries()

    def word(left, t):
        out = [b.mul_fn(left)] if left is not None else []
        out += [ops[ch] for ch in t.letters]
        if t.coeff is not ONE:
            out.append(b.mul_fn(t.coeff))
        return out or [identity_op(b.window)]

    return [
        relation_residual(
            [(z, word(left, t)) for z, left, t in terms],
            margins,
            label=label,
            tol=tol,
            exact_boundaries=exact,
        )
        for label, terms in battery_relations(b.q, suite).items()
    ]


def generator_norm_bounds(b) -> dict:
    return {name: op_norm_bound(b.u(name)) for name in GEN_NAMES}


# -- coproduct compatibility ------------------------------------------------


@dataclass(frozen=True)
class DeltaImageBundle:
    """Coproduct images on the matched-middle compressed space.

    Basis vectors carry three exponents (y, v, z); the image of u_{eps,nu}
    is the sum over the middle signature mu of a three-axis shift whose
    weight is the product of the two leg weights.  Coefficient functions
    act through the outer axes only, matching the coproduct of a
    diagonal function.
    """

    q: float
    c1: float
    c2: float
    window: Window
    ops: dict

    def u(self, name: str) -> WindowedOperator:
        return self.ops[name]

    def mul_fn(self, f) -> WindowedOperator:
        return mul_op(lambda p1, p2, p3: f(p1.value, p3.value), self.window)

    def margins(self, pad: int = 2):
        return tuple((pad, pad) for _ in self.window.axes)

    def exact_boundaries(self) -> frozenset:
        return frozenset()


def build_delta_images(b1: PiCBundle, b2: PiCBundle, half: int = 4) -> DeltaImageBundle:
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
                lambda p1, p2, p3, e=eps, m=mu, n=nu: generator_weight(
                    e, m, p1.value, p2.value, c1, q
                )
                * generator_weight(m, n, p2.value, p3.value, c2, q),
                (-eps, -mu, -nu),
                win,
            )
            total = piece if total is None else total + piece
        ops[name] = total
    return DeltaImageBundle(q=q, c1=c1, c2=c2, window=win, ops=ops)


def coproduct_compat_check(
    b1: PiCBundle, b2: PiCBundle, half: int = 4, tol: float = 1e-10
) -> list[RelationResidual]:
    """The coproduct images satisfy the full relation battery."""
    db = build_delta_images(b1, b2, half=half)
    return verify_dynsu2_relations(db, tol=tol)


def uncompressed_unitarity_gap(
    b1: PiCBundle, b2: PiCBundle, half: int = 2
) -> tuple[float, float]:
    """Row-sum check on the raw two-leg tensor product, without compression.

    Returns (residual against the matching projection, residual against
    the full identity).  The first is small, the second is large: the
    row sum of the coproduct images equals the coproduct of the unit
    (the matched-middle support projection), not the identity, so
    dropping the middle-index restriction is detectably wrong.
    """
    q = b1.params.q
    spec = LatticeSpec(q=q, base=b1.params.x)
    ax = WindowAxis(spec, -half, half)
    leg = Window((ax, ax))
    n = ax.size
    legops1 = build_pi_c(b1.params, leg).ops
    legops2 = build_pi_c(b2.params, leg).ops

    # matching projection: middle exponents equal
    dim = leg.size * leg.size
    P = np.zeros((dim, dim))
    for i in range(leg.size):
        (_, vi) = leg.exponents_of(i)
        for j in range(leg.size):
            (wj, _) = leg.exponents_of(j)
            if vi == wj:
                k = i * leg.size + j
                P[k, k] = 1.0

    eps = -1
    row = np.zeros((dim, dim), dtype=complex)
    for nu in (-1, +1):
        U = np.zeros((dim, dim), dtype=complex)
        for mu in (-1, +1):
            U += np.kron(
                legops1[EPSNU_TO_NAME[eps, mu]].matrix,
                legops2[EPSNU_TO_NAME[mu, nu]].matrix,
            )
        U = U @ P
        row += U @ U.conj().T
    # compare only away from the leg-window edges (margin 1 per axis)
    keep = []
    for i in range(leg.size):
        yi, vi = leg.exponents_of(i)
        for j in range(leg.size):
            wj, zj = leg.exponents_of(j)
            if all(abs(t) <= half - 1 for t in (yi, vi, wj, zj)):
                keep.append(i * leg.size + j)
    keep = np.array(keep)
    d_match = np.abs(row - P)[np.ix_(keep, keep)].max()
    d_ident = np.abs(row - np.eye(dim))[np.ix_(keep, keep)].max()
    return float(d_match), float(d_ident)


# -- symbolic term evaluation (shared by antipode and rewriter checks) ------


def term_operator(t: Term, b: PiCBundle) -> WindowedOperator:
    out = b.mul_fn(t.coeff)
    for ch in reversed(t.letters):
        out = letter_operator(ch, b) @ out
    return out


def _terms_operator(terms: list[tuple[complex, Term]], b: PiCBundle) -> WindowedOperator:
    """The operator of sum(z * term)."""
    out = None
    for z, t in terms:
        op = z * term_operator(t, b)
        out = op if out is None else out + op
    return out


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
            worst = max(worst, float(np.abs(lhs.matrix - rhs.matrix).max()))
    return RelationResidual(
        label="antipode_block", residual=worst, margins=b.margins(), tol=tol
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
            worst = max(worst, float(np.abs(lhs.matrix - rhs.matrix).max()))
    return RelationResidual(
        label="antipode_square", residual=worst, margins=b.margins(), tol=tol
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
    n = b1.window.size

    V = np.zeros((n, n))
    for k in range(n):
        ny, nz = b1.window.exponents_of(k)
        V[b2.window.index_of((-ny, -nz)), k] = 1.0
    dvals = np.ones(n)
    if signed:
        for k in range(n):
            a, c2 = b2.window.exponents_of(k)
            dvals[k] = (-1.0) ** ((c2 - a) // 2)
    D = np.diag(dvals)
    T = D @ V
    Tinv = V.T @ D

    out = []
    for name, (eps, nu) in NAME_TO_EPSNU.items():
        diff = T @ b1.u(name).matrix @ Tinv - b2.u(EPSNU_TO_NAME[-eps, -nu]).matrix
        out.append(
            RelationResidual(
                label=f"xsym_{name}",
                residual=float(np.abs(diff).max()),
                margins=b1.margins(0),
                tol=tol,
            )
        )
    return out


def lattice_rebase_check(b1: PiCBundle, tol: float = 1e-12) -> RelationResidual:
    """x and qx generate the same lattice: the two builds agree pointwise.

    The (q, qx) window shifted one exponent down enumerates the same
    point values, so each generator matrix must coincide entrywise.
    """
    params = b1.params
    half = (b1.window.axes[0].size - 1) // 2
    spec2 = LatticeSpec(q=params.q, base=params.q * params.x)
    ax2 = WindowAxis(spec2, -half - 1, half - 1)
    win2 = Window((ax2, ax2))
    b2 = build_pi_c(DynParams(params.q, params.q * params.x, params.c), win2)
    worst = 0.0
    for name in GEN_NAMES:
        worst = max(
            worst, float(np.abs(b1.u(name).matrix - b2.u(name).matrix).max())
        )
    return RelationResidual(
        label="rebase", residual=worst, margins=b1.margins(0), tol=tol
    )


# -- word reduction with the pi_c oracle ------------------------------------


def reduce_and_check(
    letters: tuple[str, ...],
    b_pair: tuple[PiCBundle, PiCBundle],
    max_len: int = 8,
) -> dict:
    """Reduce a word to the normal-form basis and verify against pi_c.

    Two bundles at distinct c rule out accidental kernel coincidences.
    Returns the report dict used by the CLI: monomial signatures,
    coefficient labels, oracle residuals, idempotence flag.
    """
    q = b_pair[0].params.q
    rules = RuleSet(q)
    rep = reduce_word(letters, rules, max_len=max_len)
    if rep.budget_hit:
        return {
            "ok": False,
            "error": "step budget exceeded",
            "offending": "".join(rep.offending.letters) if rep.offending else None,
            "steps": rep.steps,
        }
    residuals = []
    for b in b_pair:
        orig = term_operator(Term(tuple(letters), ONE), b)
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
