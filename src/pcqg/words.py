"""Symbolic words in the dynamical SU(2) generators, and their rewriting.

Letters are a, b, g, d (alpha, beta, gamma, delta), optionally starred.
A term is a letter string times a coefficient function of (lambda, rho)
kept at the right end.  Coefficient functions are array functions composed
of tau, the one-step weights w_plus/w_minus, lattice shifts and Dirac
projections: moving one through a letter composes a new function and
evaluates nothing, so there is no numeric drift from premature evaluation.
An operator is built by calling the composed function once, on the value
grids of a window.

The rewrite tree shares subtrees between its output terms, so the terms'
coefficient functions are trees with common nodes.  Inside a
shared_evaluation() scope each (node, input) pair is evaluated once and its
grid reused by every parent that asks for it again; dynsu2.reduce_and_check
opens one scope around both oracle evaluations of a word.  Outside a scope
every call evaluates, as a plain function would.

The normal form is the spanning-set shape: a^k b^l g^m * f or
d^k b^l g^m * f.  Rules are oriented: stars eliminated first, functions
pushed right, then adjacent-pair reorderings with a<b<g<d and mixed
a/d heads removed by the two affine head rules.  Termination is not
proven, only budgeted; soundness is established against the weight
representation as an oracle (two c values).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .lattice import LatticeSpec, tau, weight_w

LETTERS = ("a", "b", "g", "d")
STARRED = tuple(ch + "*" for ch in LETTERS)

# exponent displacement of each starless letter on the (lambda, rho) axes:
# the letter with signature (eps, nu) shifts exponents by (-eps, -nu)
EPS_NU = {"a": (-1, -1), "b": (-1, +1), "g": (+1, -1), "d": (+1, +1)}


def letter_displacement(letter: str) -> tuple[int, int]:
    base = letter[0]
    eps, nu = EPS_NU[base]
    d = (-eps, -nu)
    if letter.endswith("*"):
        d = (-d[0], -d[1])
    return d


@dataclass(frozen=True)
class CoeffFn:
    """Coefficient function of the two diagonal values, with a label.

    fn takes the lambda and rho value grids (arrays that broadcast against
    each other) and returns a grid of the same broadcast shape, or a scalar
    for a constant; label is a display string, best-effort only.  const,
    scaled, products, sums, shifts and swaps compose array functions, so a
    stacked composition is evaluated once per operator, and pointwise it
    does the same float operations a scalar evaluation would.

    The combinators call their operand nodes, not the operands' fn, so
    every evaluation in a tree goes through __call__, where an open
    shared_evaluation() scope returns the grid already computed for the
    same node and inputs.  The memo key is the node's identity and the
    exact type, dtype, shape and bytes of both inputs, never a tolerance:
    a hit returns what evaluating would return, so reports cannot move.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str

    def __call__(self, lv, rv):
        memo = _MEMO.get()
        if memo is None:
            return self.fn(lv, rv)
        key = (id(self), _input_key(lv), _input_key(rv))
        hit = memo.get(key)
        if hit is None:
            out = self.fn(lv, rv)
            if isinstance(out, np.ndarray):
                out.flags.writeable = False  # shared: a write would reach every parent
            # the node is held with its grid, so its id is not reused
            hit = memo[key] = (self, out)
        return hit[1]

    @staticmethod
    def const(z: complex) -> "CoeffFn":
        return CoeffFn(lambda lv, rv: z, _fmt_scalar(z))

    @staticmethod
    def one() -> "CoeffFn":
        """The unit function; always the same object, so `is` detects it."""
        return _ONE

    def scaled(self, z: complex) -> "CoeffFn":
        if z == 1:
            return self
        return CoeffFn(lambda lv, rv: z * self(lv, rv), f"{_fmt_scalar(z)}*{self.label}")

    def __mul__(self, other: "CoeffFn") -> "CoeffFn":
        return CoeffFn(
            lambda lv, rv: self(lv, rv) * other(lv, rv), f"{self.label}*{other.label}"
        )

    def __add__(self, other: "CoeffFn") -> "CoeffFn":
        return CoeffFn(
            lambda lv, rv: self(lv, rv) + other(lv, rv), f"({self.label}+{other.label})"
        )

    def shifted(self, dl: int, dr: int, q: float) -> "CoeffFn":
        """f(lambda, rho) -> f(q^dl lambda, q^dr rho)."""
        if dl == 0 and dr == 0:
            return self
        sl, sr = q**dl, q**dr
        return CoeffFn(
            lambda lv, rv: self(sl * lv, sr * rv),
            f"{self.label}[q^{dl}L,q^{dr}R]",
        )

    def swapped(self) -> "CoeffFn":
        return CoeffFn(lambda lv, rv: self(rv, lv), f"{self.label}[swap]")


# The memo of the open shared_evaluation() scope, None outside any scope.
_MEMO: ContextVar[Optional[dict]] = ContextVar("coeff_memo", default=None)


@contextmanager
def shared_evaluation() -> Iterator[None]:
    """Evaluate each (CoeffFn node, inputs) pair once inside the block.

    Grids computed in the block are shared between all callers that ask
    for the same node on the same inputs, so they are returned read-only.
    The memo lives only as long as the block: it is
    dropped on exit, also when the block raises.  Inputs are per-axis value
    grids, so a key costs O(axis length), not O(basis size).
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _input_key(v) -> tuple:
    a = np.asarray(v)
    return type(v), a.dtype.str, a.shape, a.tobytes()


_ONE = CoeffFn(lambda lv, rv: 1.0, "1")


def _fmt_scalar(z: complex) -> str:
    if isinstance(z, complex) and z.imag != 0:
        return f"({z.real:g}{z.imag:+g}i)"
    r = z.real if isinstance(z, complex) else z
    if r == int(r):
        return str(int(r))
    return f"{r:g}"


def dirac_projection(i: int, j: int, q: float, x: float) -> CoeffFn:
    """Indicator of the single lattice point (x q^i, x q^j).

    The one projection helper: applied to a bundle through mul_fn it is the
    unit projection onto the basis vector at exponents (i, j).  Membership
    is decided on the exponent scale (LatticeSpec.indicator), so it still
    holds after the function is pushed through letters.
    """
    lat = LatticeSpec(q=q, base=x)
    return CoeffFn(lambda lv, rv: lat.indicator(lv, i) * lat.indicator(rv, j), f"P({i},{j})")


@dataclass(frozen=True)
class Term:
    """Product of letters followed by one coefficient function."""

    letters: tuple[str, ...]
    coeff: CoeffFn

    def __post_init__(self):
        for ch in self.letters:
            if ch not in LETTERS and ch not in STARRED:
                raise ValueError(f"unknown letter {ch!r}")

    def is_star_free(self) -> bool:
        return all(not ch.endswith("*") for ch in self.letters)

    def is_normal(self) -> bool:
        if not self.is_star_free():
            return False
        s = "".join(self.letters)
        head = s.lstrip("a") if s.startswith("a") else s.lstrip("d")
        # after stripping the head run, only b's then g's may remain
        rest = head.lstrip("b")
        return set(rest) <= {"g"} and _sorted_within(s)


def _sorted_within(s: str) -> bool:
    # valid shapes: a...ab...bg...g or d...db...bg...g
    import re

    return re.fullmatch(r"(a*|d*)b*g*", s) is not None


def monomial_signature(t: Term) -> tuple[str, int, int, int]:
    """(head letter, k, l, m) of a normal term."""
    s = "".join(t.letters)
    head = "a" if s.startswith("a") else ("d" if s.startswith("d") else "")
    k = len(s) - len(s.lstrip(head)) if head else 0
    rest = s[k:]
    l = len(rest) - len(rest.lstrip("b"))
    m = len(rest) - l
    return head, k, l, m


# -- rewrite rules ---------------------------------------------------------


class RuleSet:
    """Oriented rules targeting the spanning-set normal form, for one q."""

    def __init__(self, q: float):
        if not 0 < q < 1:
            raise ValueError("q must be in (0,1)")
        self.q = q

        def s(eps):
            return lambda v: np.sqrt(weight_w(v, eps, q))

        sp, sm = s(+1), s(-1)

        def cf(fn, label):
            return CoeffFn(fn, label)

        # star elimination: letter* -> (sign, letter, trailing function)
        self.star_rules: dict[str, tuple[complex, str, CoeffFn]] = {
            "a*": (1.0, "d", cf(lambda lv, rv: sm(rv) / sm(lv), "s-(R)/s-(L)")),
            "b*": (-1.0, "g", cf(lambda lv, rv: sp(rv) / sm(lv), "s+(R)/s-(L)")),
            "g*": (-1.0, "b", cf(lambda lv, rv: sm(rv) / sp(lv), "s-(R)/s+(L)")),
            "d*": (1.0, "a", cf(lambda lv, rv: sp(rv) / sp(lv), "s+(R)/s+(L)")),
        }

        # swaps: (pair) -> (swapped pair, trailing function)
        self.swap_rules: dict[str, tuple[str, CoeffFn]] = {
            "ba": ("ab", cf(lambda lv, rv: sm(rv) / sp(rv), "s-(R)/s+(R)")),
            "ga": (
                "ag",
                cf(
                    lambda lv, rv: np.sqrt(tau(lv / q) / tau(q * lv)),
                    "(t(L/q)/t(qL))^.5",
                ),
            ),
            "bd": (
                "db",
                cf(
                    lambda lv, rv: np.sqrt(tau(q * lv) / tau(lv / q)),
                    "(t(qL)/t(L/q))^.5",
                ),
            ),
            "gd": ("dg", cf(lambda lv, rv: sp(rv) / sm(rv), "s+(R)/s-(R)")),
        }

        # gb -> bg*F + G (affine)
        self.gb_swap = cf(
            lambda lv, rv: (sm(lv) * sp(rv)) / (sp(lv) * sm(rv)),
            "s-(L)s+(R)/s+(L)s-(R)",
        )
        self.gb_unit = cf(
            lambda lv, rv: (weight_w(rv, +1, q) - weight_w(lv, +1, q))
            / (sp(lv) * sm(rv)),
            "(w+(R)-w+(L))/s+(L)s-(R)",
        )

        # head elimination: ad and da -> unit term + bg term
        self.ad_unit = cf(lambda lv, rv: sm(lv) / sm(rv), "s-(L)/s-(R)")
        self.ad_bg = cf(lambda lv, rv: sp(rv) / sm(rv), "s+(R)/s-(R)")
        self.da_unit = self.star_rules["d*"][2]  # the d* function s+(R)/s+(L)
        self.da_bg = cf(lambda lv, rv: sm(lv) / sp(lv), "s-(L)/s+(L)")


def push_right(
    coeff: CoeffFn, through: tuple[str, ...], q: float
) -> CoeffFn:
    """Move a coefficient function right through the given letters."""
    out = coeff
    for ch in through:
        dl, dr = letter_displacement(ch)
        # f L = L f(q^{-eps} ., q^{-nu} .): the shift equals the letter's
        # exponent displacement, starred letters included
        out = out.shifted(dl, dr, q)
    return out


@dataclass
class ReduceReport:
    terms: list[Term]
    steps: int
    budget_hit: bool = False
    offending: Optional[Term] = None


def reduce_word(
    letters: tuple[str, ...],
    rules: RuleSet,
    coeff: Optional[CoeffFn] = None,
    max_len: int = 8,
    step_budget: int = 20000,
) -> ReduceReport:
    """Rewrite a single word into the normal-form basis.

    Returns the reduced term list; terms with identical letter strings
    are merged by adding coefficient functions.  Raises on words longer
    than max_len; a blown step budget is reported, not raised.
    """
    if len(letters) > max_len:
        raise ValueError(f"word length {len(letters)} exceeds bound {max_len}")
    work = [Term(tuple(letters), coeff if coeff is not None else CoeffFn.one())]
    done: dict[tuple[str, ...], CoeffFn] = {}
    steps = 0
    q = rules.q

    while work:
        t = work.pop()
        if steps > step_budget:
            return ReduceReport(
                terms=_collect(done), steps=steps, budget_hit=True, offending=t
            )
        steps += 1
        rewritten = _apply_one(t, rules, q)
        if rewritten is None:
            key = t.letters
            done[key] = done[key] + t.coeff if key in done else t.coeff
        else:
            work.extend(rewritten)
    return ReduceReport(terms=_collect(done), steps=steps)


def _collect(done: dict) -> list[Term]:
    return [Term(k, v) for k, v in sorted(done.items())]


def star_step(t: Term, rules: RuleSet) -> Optional[tuple[complex, Term]]:
    """Replace the leftmost starred letter by its adjoint identity.

    Returns the rule's sign and the new term, whose coefficient carries the
    rule's function pushed to the right end; None for a star-free term.
    """
    ls = t.letters
    for i, ch in enumerate(ls):
        if ch.endswith("*"):
            sign, rep, fn = rules.star_rules[ch]
            tail = ls[i + 1 :]
            new_coeff = push_right(fn, tail, rules.q) * t.coeff
            return sign, Term(ls[:i] + (rep,) + tail, new_coeff)
    return None


def _apply_one(t: Term, rules: RuleSet, q: float) -> Optional[list[Term]]:
    """One leftmost rewrite; None when the term is already normal."""
    # stars first
    star = star_step(t, rules)
    if star is not None:
        sign, new = star
        return [Term(new.letters, new.coeff.scaled(sign))]
    ls = t.letters
    # adjacent-pair rules
    for i in range(len(ls) - 1):
        pair = ls[i] + ls[i + 1]
        tail = ls[i + 2 :]
        if pair in rules.swap_rules:
            swapped, fn = rules.swap_rules[pair]
            new_letters = ls[:i] + (swapped[0], swapped[1]) + tail
            new_coeff = push_right(fn, tail, q) * t.coeff
            return [Term(new_letters, new_coeff)]
        if pair == "gb":
            t1 = Term(
                ls[:i] + ("b", "g") + tail,
                push_right(rules.gb_swap, tail, q) * t.coeff,
            )
            t2 = Term(ls[:i] + tail, push_right(rules.gb_unit, tail, q) * t.coeff)
            return [t1, t2]
        if pair in ("ad", "da"):
            unit_fn = rules.ad_unit if pair == "ad" else rules.da_unit
            bg_fn = rules.ad_bg if pair == "ad" else rules.da_bg
            t1 = Term(ls[:i] + tail, push_right(unit_fn, tail, q) * t.coeff)
            t2 = Term(
                ls[:i] + ("b", "g") + tail,
                push_right(bg_fn, tail, q) * t.coeff,
            )
            return [t1, t2]
    return None


# -- parsing (CLI word syntax) ---------------------------------------------


def parse_word(text: str, q: float, x: float) -> tuple[tuple[str, ...], CoeffFn]:
    """Parse letters `a b g d` with optional `'` star and P(i,j) projections.

    Whitespace is ignored; juxtaposition is product.  Projections combine
    into the trailing coefficient function (shifted through the letters
    to their right, so the written order is honored).
    """
    letters: list[str] = []
    coeff = CoeffFn.one()
    pending: list[tuple[CoeffFn, int]] = []  # (fn, position in letters)
    i = 0
    s = text.strip()
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "abgd":
            if i + 1 < len(s) and s[i + 1] == "'":
                letters.append(ch + "*")
                i += 2
            else:
                letters.append(ch)
                i += 1
            continue
        if ch == "P":
            j = s.index(")", i)
            inner = s[i + 2 : j]
            yi, zi = (int(p) for p in inner.split(","))
            pending.append((dirac_projection(yi, zi, q, x), len(letters)))
            i = j + 1
            continue
        raise ValueError(f"unexpected character {ch!r} in word")
    for fn, pos in pending:
        coeff = coeff * push_right(fn, tuple(letters[pos:]), q)
    return tuple(letters), coeff
