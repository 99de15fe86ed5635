"""Adapted subsets of a single q^2 orbit and their classification.

A point z > 0 is eps-adapted for the spectral parameter c when
0 <= c + tau(q^(-eps) z). A c-set is a nonempty set of adapted points closed
under the forced-step rule: strict eps-adaptedness of z forces q^(-2 eps) z
into the set. Irreducible means not a disjoint union of two such sets.

Two independent routes are provided. `classify_irreducible_csets` implements
the closed-form classification (full orbits in an open middle interval,
one-sided series hanging off the tau(w) = -c boundary, and the fixed point
{1} when w == q). `brute_force_csets` enumerates closures point by point on
a finite orbit window and knows nothing about the classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .lattice import EXPONENT_REL_TOL, LatticeSpec, tau

__all__ = [
    "SetKind",
    "CSetDescriptor",
    "WindowSet",
    "is_adapted",
    "solve_wc",
    "classify_irreducible_csets",
    "brute_force_csets",
    "materialize_on_window",
    "compare_on_window",
    "BOUNDARY_TOL",
]

# Detection tolerance for c + tau(.) == 0, scaled above |c| = 1 so that the
# test stays meaningful when tau reaches 1e4 and beyond.
BOUNDARY_TOL = 1e-10


def _btol(c: float) -> float:
    return BOUNDARY_TOL * max(1.0, abs(c))


def is_adapted(z: float, c: float, q: float, eps: int, strict: bool = False) -> bool:
    """Whether z is eps-adapted for c: 0 <= c + tau(q^(-eps) z).

    With strict=True the inequality must hold by more than the boundary
    tolerance; without it, boundary points count as adapted.
    """
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    margin = c + tau(q ** (-eps) * z)
    if strict:
        return margin > _btol(c)
    return margin > -_btol(c)


def solve_wc(c: float) -> float:
    """The unique w in (0, 1] with tau(w) = -c, for c <= -2."""
    if c > -2.0:
        raise ValueError(f"solve_wc requires c <= -2, got {c}")
    disc = c * c - 4.0
    if disc < 0.0:  # c within rounding of -2
        disc = 0.0
    # rationalized form: the direct difference -c - sqrt(disc) cancels
    # catastrophically once -c is large, pushing w off the lattice
    return 2.0 / (-c + math.sqrt(disc))


class SetKind(Enum):
    FULL_ORBIT = "full_orbit"
    PLUS_SERIES = "plus_series"
    MINUS_SERIES = "minus_series"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class CSetDescriptor:
    """One irreducible c-set.

    FULL_ORBIT: the whole orbit z q^(2Z). In symbolic mode z is None and
    z_range carries the open/half-open interval of orbit representatives.
    PLUS_SERIES: z q^(2N), descending from the top point z, which satisfies
    c + tau(z/q) = 0. MINUS_SERIES: z q^(-2N), ascending from the bottom
    point z with c + tau(qz) = 0. TRIVIAL: the fixed point {1}, only at w = q.

    When produced under a lattice restriction, z_exponent is the integer
    exponent of z in that lattice and `lattice` records it.
    """

    kind: SetKind
    c: float
    q: float
    z: float | None = None
    z_range: tuple[float, float, bool, bool] | None = None  # lo, hi, lo_open, hi_open
    z_exponent: int | None = None
    lattice: LatticeSpec | None = None

    def series_label(self) -> str:
        """Informal family label, echoed in reports only."""
        if self.kind is SetKind.TRIVIAL:
            return "trivial"
        if self.kind is SetKind.PLUS_SERIES:
            return "discrete_plus"
        if self.kind is SetKind.MINUS_SERIES:
            return "discrete_minus"
        if self.c >= 2.0:
            return "strange_orbit"
        if self.c > -2.0:
            return "principal_orbit"
        return "complementary_orbit"


def classify_irreducible_csets(
    c: float,
    q: float,
    restrict_to: LatticeSpec | None = None,
) -> list[CSetDescriptor]:
    """All irreducible c-sets, optionally restricted to subsets of a lattice.

    Unrestricted, full-orbit families over a continuum of representatives are
    returned symbolically via z_range; series and the trivial set are always
    concrete. With restrict_to, every descriptor is concrete and carries the
    lattice exponent of its base point; sets not contained in the lattice are
    dropped.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0, 1), got {q}")
    out: list[CSetDescriptor] = []
    tol = _btol(c)

    if c > -2.0 + tol:
        # Every orbit is an irreducible c-set; representatives in [q, 1/q).
        out.append(
            CSetDescriptor(
                kind=SetKind.FULL_ORBIT,
                c=c,
                q=q,
                z_range=(q, 1.0 / q, False, True),
            )
        )
    else:
        w = solve_wc(c)
        at_minus_two = w >= 1.0 - EXPONENT_REL_TOL
        w_eq_q = abs(math.log(w) / math.log(q) - 1.0) < EXPONENT_REL_TOL

        # Full orbits with a representative strictly inside (q/w, w/q).
        if w > q * (1.0 + EXPONENT_REL_TOL):
            out.append(
                CSetDescriptor(
                    kind=SetKind.FULL_ORBIT,
                    c=c,
                    q=q,
                    z_range=(q / w, w / q, True, True),
                )
            )
        # One-sided series at the tau(w) = -c boundary.
        out.append(CSetDescriptor(kind=SetKind.PLUS_SERIES, c=c, q=q, z=q * w))
        out.append(CSetDescriptor(kind=SetKind.MINUS_SERIES, c=c, q=q, z=1.0 / (q * w)))
        if w > q * (1.0 + EXPONENT_REL_TOL) and not at_minus_two:
            # Second boundary pair; coincides with the first exactly at c = -2.
            out.append(CSetDescriptor(kind=SetKind.PLUS_SERIES, c=c, q=q, z=q / w))
            out.append(CSetDescriptor(kind=SetKind.MINUS_SERIES, c=c, q=q, z=w / q))
        if w_eq_q:
            out.append(CSetDescriptor(kind=SetKind.TRIVIAL, c=c, q=q, z=1.0))

    if restrict_to is None:
        return out
    return _restrict(out, restrict_to)


def _restrict(descs: list[CSetDescriptor], lat: LatticeSpec) -> list[CSetDescriptor]:
    if lat.step_denominator != 1:
        raise ValueError("c-set restriction expects an integer-step lattice")
    q = lat.q
    out: list[CSetDescriptor] = []
    seen: set[tuple[SetKind, int]] = set()

    def push(d: CSetDescriptor, n: int) -> None:
        key = (d.kind, n)
        if key in seen:
            return
        seen.add(key)
        out.append(CSetDescriptor(d.kind, d.c, d.q, lat.value(n), d.z_range, n, lat))

    for d in descs:
        if d.kind is SetKind.FULL_ORBIT and d.z is None:
            lo, hi, lo_open, hi_open = d.z_range
            # Lattice exponents n with value(n) in the interval. value is
            # decreasing in n, so bounds flip on the exponent scale.
            lq = math.log(q)
            e_hi = math.log(hi / lat.base) / lq  # smallest exponent (hi end)
            e_lo = math.log(lo / lat.base) / lq  # largest exponent (lo end)
            n_min = math.ceil(e_hi - EXPONENT_REL_TOL)
            n_max = math.floor(e_lo + EXPONENT_REL_TOL)
            for n in range(n_min, n_max + 1):
                e = float(n)
                if hi_open and e < e_hi + EXPONENT_REL_TOL:
                    continue
                if lo_open and e > e_lo - EXPONENT_REL_TOL:
                    continue
                # One representative per q^2 orbit: normalize n into the two
                # residues present; the interval spans at most two of them.
                push(d, n)
            continue
        n = lat.exponent_of(d.z) if d.z is not None else None
        if d.kind is SetKind.TRIVIAL:
            n = lat.exponent_of(1.0)
            if n is not None:
                push(d, n)
            continue
        if n is not None:
            push(d, n)

    # Orbit dedupe for full orbits: representatives differing by 2 in the
    # exponent describe the same set.
    final: list[CSetDescriptor] = []
    orbit_reps: set[int] = set()
    for d in out:
        if d.kind is SetKind.FULL_ORBIT:
            found = any((d.z_exponent - r) % 2 == 0 for r in orbit_reps)
            if found:
                continue
            orbit_reps.add(d.z_exponent)
        final.append(d)
    return final


@dataclass(frozen=True)
class WindowSet:
    """A c-set candidate found on a finite orbit window.

    exponents are orbit steps k, the point being anchor * q^(2k), sorted
    ascending. limited_* flags mark window edges where the forced step left
    the window, so the set is inconclusive (not falsified) there.
    """

    exponents: tuple[int, ...]
    limited_low: bool  # forced step beyond k = +N (values below the window)
    limited_high: bool  # forced step beyond k = -N (values above the window)


def brute_force_csets(
    c: float,
    q: float,
    window_exponent: int,
    anchor: float = 1.0,
) -> list[WindowSet]:
    """Enumerate irreducible c-sets on {anchor q^(2k) : |k| <= N} by closure.

    Knows nothing of the classification: marks each window point adapted or
    not, follows the forced-step rule to close up single points, discards
    closures that swallow a non-adapted point, and returns the distinct
    all-adapted closures. Forced steps off the window edge set the limited
    flags instead of failing.
    """
    n = window_exponent
    if n < 4:
        raise ValueError("window_exponent must be >= 4")
    ks = range(-n, n + 1)
    val = {k: anchor * q ** (2 * k) for k in ks}
    adapted = {
        k: is_adapted(val[k], c, q, +1) and is_adapted(val[k], c, q, -1) for k in ks
    }
    # strict +1 adaptedness forces q^-2 z, one orbit step up in value (k - 1);
    # strict -1 adaptedness forces q^2 z (k + 1).
    force_up = {k: is_adapted(val[k], c, q, +1, strict=True) for k in ks}
    force_down = {k: is_adapted(val[k], c, q, -1, strict=True) for k in ks}

    results: dict[tuple[int, ...], WindowSet] = {}
    for start in ks:
        if not adapted[start]:
            continue
        todo = [start]
        closure: set[int] = set()
        limited_low = limited_high = False
        dead = False
        while todo:
            k = todo.pop()
            if k in closure:
                continue
            if k < -n:
                limited_high = True
                continue
            if k > n:
                limited_low = True
                continue
            if not adapted[k]:
                dead = True
                break
            closure.add(k)
            if force_up[k]:
                todo.append(k - 1)
            if force_down[k]:
                todo.append(k + 1)
        if dead or not closure:
            continue
        key = tuple(sorted(closure))
        if key not in results:
            results[key] = WindowSet(
                exponents=key, limited_low=limited_low, limited_high=limited_high
            )
    return list(results.values())


def materialize_on_window(
    desc: CSetDescriptor,
    q: float,
    window_exponent: int,
    anchor: float = 1.0,
) -> tuple[int, ...] | None:
    """Orbit-step exponents of desc's points inside the anchor window.

    Returns None when the descriptor's orbit misses the window's orbit, or
    when no point lands inside. Exponent arithmetic only; k counts orbit
    steps, point = anchor * q^(2k).
    """
    n = window_exponent
    if desc.kind is SetKind.TRIVIAL:
        # anchor * q^(2k) == 1 exactly when 2k equals the exponent of 1 in
        # the anchor orbit lattice.
        orbit = LatticeSpec(q=q, base=anchor)
        e = orbit.exponent_of(1.0)
        if e is None or e % 2 != 0:
            return None
        k = e // 2
        if abs(k) > n:
            return None
        return (k,)
    if desc.z is None:
        raise ValueError("materialize requires a concrete descriptor")
    orbit = LatticeSpec(q=q, base=anchor)
    e = orbit.exponent_of(desc.z)
    if e is None or e % 2 != 0:
        return None
    k0 = e // 2  # desc.z == anchor * q^(2 k0)
    if desc.kind is SetKind.FULL_ORBIT:
        return tuple(range(-n, n + 1))
    if desc.kind is SetKind.PLUS_SERIES:
        # points z q^(2j), j >= 0: steps k0 + j
        lo = max(k0, -n)
        if lo > n:
            return None
        return tuple(range(lo, n + 1))
    # MINUS_SERIES: z q^(-2j), j >= 0: steps k0 - j
    hi = min(k0, n)
    if hi < -n:
        return None
    return tuple(range(-n, hi + 1))


def compare_on_window(
    c: float,
    q: float,
    window_exponent: int,
    anchor: float = 1.0,
) -> dict:
    """Set equality of classified and brute-forced c-sets on one window.

    Returns a report dict with both sides' point sets (as sorted exponent
    tuples) and the boolean verdict. Empty materializations are dropped on
    the classification side, mirroring the oracle's nonemptiness.
    """
    classified = classify_irreducible_csets(c, q)
    mat: set[tuple[int, ...]] = set()
    for d in classified:
        if d.kind is SetKind.FULL_ORBIT and d.z is None:
            # symbolic family: the anchor orbit itself is the only candidate
            # on this window; check its representative lies in the range
            rep = _orbit_rep_in_range(d, q, anchor)
            if rep is None:
                continue
            pts = tuple(range(-window_exponent, window_exponent + 1))
        else:
            pts = materialize_on_window(d, q, window_exponent, anchor)
        if pts:
            mat.add(pts)
    brute = {ws.exponents for ws in brute_force_csets(c, q, window_exponent, anchor)}
    return {
        "c": c,
        "q": q,
        "anchor": anchor,
        "window_exponent": window_exponent,
        "classified": sorted(mat),
        "brute_force": sorted(brute),
        "equal": mat == brute,
    }


def _orbit_rep_in_range(
    d: CSetDescriptor, q: float, anchor: float
) -> float | None:
    """Representative of the anchor's q^2 orbit inside d.z_range, if any."""
    lo, hi, lo_open, hi_open = d.z_range
    lq = math.log(q)
    e_hi = math.log(hi) / lq
    e_lo = math.log(lo) / lq
    e_anchor = math.log(anchor) / lq
    # candidates e_anchor + 2m in [e_hi, e_lo] (exponent interval)
    m_min = math.ceil((e_hi - e_anchor) / 2.0 - EXPONENT_REL_TOL)
    m_max = math.floor((e_lo - e_anchor) / 2.0 + EXPONENT_REL_TOL)
    for m in range(m_min, m_max + 1):
        e = e_anchor + 2 * m
        if hi_open and e < e_hi + EXPONENT_REL_TOL:
            continue
        if lo_open and e > e_lo - EXPONENT_REL_TOL:
            continue
        return anchor * q ** (2 * m)
    return None
