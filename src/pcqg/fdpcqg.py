"""Finite-dimensional partial compact quantum groups from structure constants.

An instance is a finite-dimensional *-algebra with a distinguished family of
unit projections indexed by object pairs and a coproduct given by structure
constants.  Everything here is finite linear algebra over real structure
constants: axiom checks reduce to tensor identities and column-span
comparisons, and the invariant integral is computed twice (Cesaro iteration
and a linear solve) so the two routes can be compared.

Finite groupoids act as the instance generators, in both the function-algebra
form (commutative, coproduct dual to composition) and the groupoid-algebra
form (cocommutative, group-like basis).  A groupoid is one set of index
tables (endpoints, composition, inverse, identities); its names turn into
indices only when a file is read and back only when one is written.

An instance holds mult, star, units and coproduct as their nonzero entries
alone, COO index/value arrays in one canonical order.  A file's dense star
rows and unit vectors become entries when it is read (`coo`) and are dense
again only in the file written back.  The checks work along the grading by
the unit projections 1^k_l, with Delta(1^k_l) = sum_m 1^k_m (x) 1^m_l, so
their cost follows the nonzero entries rather than d^4 or d^6.  Every
identity of the axiom checker, Delta(1) included, is contracted from the
entries, each pairwise contraction one dense product per connected block of
the operands' nonzero pattern, and the contractions of one dependency level
one product in all.  The density axioms D1 and D2 take one SVD per
connected block of their five column sets, with ranks cut at RANK_CUTOFF
times the largest singular value over all blocks of a set (the s_max of one
dense SVD).  One rule tells a vanishing unit (`FinitePQG.unit_runs`).

The Haar states phi_km live on the diagonal corners 1^k_m A 1^k_m.  The
corner maps a -> 1^k_m a 1^l_n are held as their nonzero entries
(`FinitePQG.corner_entries`), sorted by grading, and read a run at a time.
The corner bases come from one block-split SVD of all diagonal corners
(`coo.split_blocks`), and each basis entry is matched with the unit and
coproduct entries it meets, so only the system's rows that receive an
entry are laid out.  The Cesaro convolutions and the invariance residuals
are sums over the coproduct's and the units' entries.
Intermediates are checked for inf and nan before they reach LAPACK
(`NonFiniteError`); an overflowing structure constant makes the stage that
sees it a failed check, never a hang or a usage error.  A Cesaro corner
with no invariant state stops once its averages stop improving.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .coo import (RANK_CUTOFF, columns, coo, coo_einsum, coo_max_diffs, matches,
                  split_blocks, split_spans, summed)

__all__ = [
    "AXIOM_LABELS",
    "FiniteGroupoid",
    "pair_groupoid",
    "cyclic_groupoid",
    "symmetric_groupoid",
    "transitive_groupoid",
    "disjoint_union",
    "standard_groupoids",
    "FinitePQG",
    "from_finite_groupoid_functions",
    "from_finite_groupoid_algebra",
    "raum_instance",
    "CheckResult",
    "AxiomReport",
    "verify_axioms",
    "GradedFunctional",
    "convolve",
    "HaarFamily",
    "haar_cesaro",
    "haar_linear_solve",
    "haar_residuals",
    "uniform_haar_oracle",
]

ZERO_TOL = 1e-12

# Cesaro budget: convolutions per corner, the averaging window between
# residual checks, and how many averages may pass without a new lowest
# residual before the corner counts as stalled
CESARO_ITERATIONS = 100_000
CESARO_WINDOW = 64
CESARO_STALL = 8

# the named axioms; the report carries structural sanity checks besides these
AXIOM_LABELS = ("U1", "U2", "C", "U3", "D1", "D2")


# -- finite groupoids ---------------------------------------------------------


def _take(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[idx], and -1 where idx lies outside the table."""
    inside = (idx >= 0) & (idx < len(table))
    return np.append(table, -1)[np.where(inside, idx, -1)]


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """Finite groupoid as index tables over its arrows and objects.

    Arrow g runs from object src[g] to object tgt[g].  Arrows compose left
    to right: (g, h) is composable iff tgt[g] == src[h], and then comp[g, h]
    is the index of gh, with src(gh) = src(g) and tgt(gh) = tgt(h); comp is
    -1 on the pairs that do not compose.  inverse[g] and identities[k] are
    arrow indices.  The names are kept for the files and the reports.
    Construction validates the category and inverse axioms by array checks
    on the tables and raises ValueError on malformed data.
    """

    objects: tuple[str, ...]
    arrows: tuple[str, ...]
    src: np.ndarray
    tgt: np.ndarray
    comp: np.ndarray
    inverse: np.ndarray
    identities: np.ndarray

    def __post_init__(self):
        if not self.objects:
            raise ValueError("objects: expected at least one object")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        if len(set(self.arrows)) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        n, d = len(self.objects), len(self.arrows)
        src, tgt, comp = self.src, self.tgt, self.comp
        name = lambda i: repr(self.arrows[i])
        outside = lambda idx, size: (idx < 0) | (idx >= size)
        if np.shape(src) != (d,) or np.shape(tgt) != (d,):
            raise ValueError("src and tgt must hold one object index per arrow")
        bad = outside(src, n) | outside(tgt, n)
        if bad.any():
            raise ValueError(f"arrow {name(bad.argmax())} has missing or unknown endpoints")
        if np.shape(comp) != (d, d) or not np.array_equal(comp >= 0, tgt[:, None] == src):
            raise ValueError("composition table does not match composable pairs")
        unknown = comp >= d
        bad = (comp >= 0) & (
            unknown | (_take(src, comp) != src[:, None]) | (_take(tgt, comp) != tgt)
        )
        if bad.any():
            g, h = np.unravel_index(bad.argmax(), bad.shape)
            fault = "is not an arrow" if unknown[g, h] else "has wrong endpoints"
            raise ValueError(f"composite of ({name(g)}, {name(h)}) {fault}")
        # (gh)k = g(hk) for every composable (g, h) and every k, the pairs
        # through one object and a block of their g (about 2^20 triples) at
        # a time: in the table padded with a row and a column of -1, both
        # sides are -1 where hk is undefined
        ext = np.full((d + 1, d + 1), -1, dtype=np.intp)
        ext[:d, :d] = comp
        for o in range(n):
            into, out = np.flatnonzero(tgt == o), np.flatnonzero(src == o)
            step = max(1, (1 << 20) // max(1, out.size * (d + 1)))
            for lo in range(0, into.size, step):
                g = into[lo : lo + step]
                bad = ext[comp[np.ix_(g, out)]] != np.take(ext[g], ext[out], axis=1)
                if bad.any():
                    a, b, k = np.unravel_index(bad.argmax(), bad.shape)
                    raise ValueError(
                        f"composition not associative at ({name(g[a])}, {name(out[b])}, {name(k)})"
                    )
        ident = self.identities
        if np.shape(ident) != (n,):
            raise ValueError("identity table must cover every object")
        bad = (_take(src, ident) != np.arange(n)) | (_take(tgt, ident) != np.arange(n))
        if bad.any():
            raise ValueError(f"identity of {self.objects[bad.argmax()]!r} has wrong endpoints")
        every = np.arange(d)
        left, right = comp[ident[src], every] != every, comp[every, ident[tgt]] != every
        if (left | right).any():
            g = (left | right).argmax()
            raise ValueError(f"{'left' if left[g] else 'right'} identity fails at {name(g)}")
        inv = self.inverse
        if np.shape(inv) != (d,):
            raise ValueError("inverse table must cover every arrow")
        unknown = outside(inv, d)
        at = np.where(unknown, -1, inv)  # the padded row and column of ext
        bad = unknown | (ext[every, at] != ident[src]) | (ext[at, every] != ident[tgt])
        if bad.any():
            g = bad.argmax()
            fault = f"of {name(g)} is not an arrow" if unknown[g] else f"fails at {name(g)}"
            raise ValueError(f"inverse {fault}")

    def composable(self) -> tuple:
        """The composable pairs (g, h) in row-major order and their
        composites gh, as index arrays."""
        g, h = np.nonzero(self.comp >= 0)
        return g, h, self.comp[g, h]

    def to_json_dict(self) -> dict:
        names = lambda idx: [self.arrows[i] for i in idx.tolist()]
        ends = zip(self.arrows, self.src.tolist(), self.tgt.tolist())
        return {
            "objects": list(self.objects),
            "arrows": [
                {"id": g, "src": self.objects[s], "tgt": self.objects[t]} for g, s, t in ends
            ],
            "compose": sorted(map(list, zip(*map(names, self.composable())))),
            "inverse": dict(zip(self.arrows, names(self.inverse))),
            "identities": dict(sorted(zip(self.objects, names(self.identities)))),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FiniteGroupoid":
        """Load a groupoid dump, rejecting malformed fields with ValueError.

        Names become indices here.  An unknown name becomes the index one
        past the end of its table, which construction rejects as any index
        out of range.  A table whose keys are not all known -- a `compose`
        row that names no arrow as g or h, `identities` or `inverse` keyed
        by other than the objects or the arrows -- is passed as None, which
        construction rejects as a table of the wrong shape.
        """
        fields = ("objects", "arrows", "compose", "inverse", "identities")
        missing = [k for k in fields if k not in d]
        if missing:
            raise ValueError(f"groupoid file lacks {', '.join(missing)}")
        names = lambda xs: all(isinstance(x, str) for x in xs)
        if not isinstance(d["objects"], list) or not names(d["objects"]):
            raise ValueError("objects: expected a list of names")
        arrows = d["arrows"]
        if not isinstance(arrows, list) or not all(isinstance(a, dict) for a in arrows):
            raise ValueError("arrows: expected a list of {id, src, tgt} objects")
        for key in ("id", "src", "tgt"):
            if not all(isinstance(a.get(key), str) for a in arrows):
                raise ValueError(f"arrows: every arrow needs a string {key!r}")
        rows = d["compose"]
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == 3 and names(r) for r in rows
        ):
            raise ValueError("compose: rows must be [g, h, gh] arrow ids")
        for key in ("inverse", "identities"):
            if not isinstance(d[key], dict) or not names(d[key].values()):
                raise ValueError(f"{key}: expected an object of names")
        objects = tuple(d["objects"])
        ids = tuple(a["id"] for a in arrows)
        at_object = {k: i for i, k in enumerate(objects)}
        at_arrow = {g: i for i, g in enumerate(ids)}
        index = lambda xs, at, end: np.array([at.get(x, end) for x in xs], dtype=np.intp)
        g, h, gh = index([x for r in rows for x in r], at_arrow, len(ids)).reshape(-1, 3).T
        comp = np.full((len(ids), len(ids)), -1, dtype=np.intp)
        known = (g < len(ids)) & (h < len(ids))
        comp[g[known], h[known]] = gh[known]
        table = lambda key, keys: (
            index([d[key][x] for x in keys], at_arrow, len(ids))
            if set(d[key]) == set(keys) else None
        )
        return cls(
            objects=objects,
            arrows=ids,
            src=index([a["src"] for a in arrows], at_object, len(objects)),
            tgt=index([a["tgt"] for a in arrows], at_object, len(objects)),
            comp=comp if known.all() else None,
            inverse=table("inverse", ids),
            identities=table("identities", objects),
        )


def _pair_times_group(objects, table, inverse, unit: int, names) -> FiniteGroupoid:
    """The pair groupoid on `objects` times a group of order m, the group
    given by its multiplication table, inverse and unit as element indices.

    Arrow (i, g, j) runs from object i to object j; it has index
    (i m + g) n + j and the name at that index of `names`, and
    (i, g, j)(j, h, k) = (i, gh, k).  A pair groupoid is the product with
    the trivial group, a group the product over one object.
    """
    n, m = len(objects), len(table)
    i, g, j = np.unravel_index(np.arange(n * m * n), (n, m, n))
    arrow = lambda i, g, j: (i * m + g) * n + j
    return FiniteGroupoid(
        objects=tuple(objects),
        arrows=tuple(names),
        src=i,
        tgt=j,
        comp=np.where(j[:, None] == i, arrow(i[:, None], table[g[:, None], g], j), -1),
        inverse=arrow(j, inverse[g], i),
        identities=arrow(np.arange(n), unit, np.arange(n)),
    )


def pair_groupoid(objects: Sequence[str]) -> FiniteGroupoid:
    """Exactly one arrow between every ordered pair of objects."""
    trivial = np.zeros((1, 1), dtype=np.intp)
    names = [f"{i}>{j}" for i in objects for j in objects]
    return _pair_times_group(objects, trivial, trivial[0], 0, names)


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """The cyclic group of order n as a one-object groupoid."""
    if n < 1:
        raise ValueError("order must be positive")
    a = np.arange(n)
    return _pair_times_group(("*",), (a[:, None] + a) % n, -a % n, 0, [str(x) for x in range(n)])


def symmetric_groupoid(n: int) -> FiniteGroupoid:
    """The symmetric group on n letters as a one-object groupoid.

    Elements are the permutations p in lexicographic order, named by their
    images; pq maps i to q[p[i]].
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    # lexicographic order makes the base-n codes increase
    code = lambda p: p @ n ** np.arange(n - 1, -1, -1)
    at = lambda p: code(perms).searchsorted(code(p))
    table = at(perms[np.arange(len(perms))[:, None], perms[:, None, :]])  # [p, q, i] = q[p[i]]
    names = ["".join(map(str, p)) for p in perms.tolist()]
    return _pair_times_group(("*",), table, at(perms.argsort(axis=1, kind="stable")), 0, names)


def transitive_groupoid(objects: Sequence[str], group: FiniteGroupoid) -> FiniteGroupoid:
    """Pair groupoid over `objects` with isotropy a given one-object groupoid."""
    if len(group.objects) != 1:
        raise ValueError("isotropy must be a one-object groupoid (a group)")
    names = [f"{i}:{g}:{j}" for i in objects for g in group.arrows for j in objects]
    return _pair_times_group(objects, group.comp, group.inverse, group.identities[0], names)


def disjoint_union(*parts: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union, components relabeled with a positional prefix; the
    tables stack block-diagonally."""
    tag = lambda p, s: f"{p}.{s}"
    arrow_at = np.cumsum([0] + [len(g.arrows) for g in parts])
    object_at = np.cumsum([0] + [len(g.objects) for g in parts])
    comp = np.full((arrow_at[-1], arrow_at[-1]), -1, dtype=np.intp)
    for g, lo, hi in zip(parts, arrow_at, arrow_at[1:]):
        comp[lo:hi, lo:hi] = np.where(g.comp >= 0, g.comp + lo, -1)
    stacked = lambda field, at: np.concatenate([getattr(g, field) + o for g, o in zip(parts, at)])
    return FiniteGroupoid(
        objects=tuple(tag(p, k) for p, g in enumerate(parts) for k in g.objects),
        arrows=tuple(tag(p, a) for p, g in enumerate(parts) for a in g.arrows),
        src=stacked("src", object_at),
        tgt=stacked("tgt", object_at),
        comp=comp,
        inverse=stacked("inverse", arrow_at),
        identities=stacked("identities", arrow_at),
    )


def standard_groupoids() -> dict:
    """Benchmark zoo: pair, cyclic groups, transitive with isotropy, unions."""
    pair2 = pair_groupoid(["1", "2"])
    z2 = cyclic_groupoid(2)
    z3 = cyclic_groupoid(3)
    s3 = symmetric_groupoid(3)
    return {
        "pair2": pair2,
        "z2": z2,
        "z3": z3,
        "s3x2": transitive_groupoid(["a", "b"], s3),
        "union_pair_z2": disjoint_union(pair2, z2),
        "union_z3_s3": disjoint_union(z3, s3),
    }


# -- instances ---------------------------------------------------------------


def _finite_array(value, field: str, shape=None) -> np.ndarray:
    """value, nested lists of numbers, as a float array of the given shape.

    Strings, nulls, booleans and ragged nesting are rejected, and so is any
    non-finite entry.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from None
    # numpy reads a boolean among numbers as 0 or 1, so the leaves are looked at
    leaves = value if arr.ndim else ()
    for _ in range(arr.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if arr.dtype.kind not in "iuf" or bool in map(type, leaves):
        raise ValueError(f"{field}: expected numbers")
    arr = arr.astype(float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{field}: shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{field}: non-finite value")
    return arr


def _coo_rows(rows, field: str) -> tuple:
    """The index and value columns of [i, j, k, value] rows."""
    arr = _finite_array(rows, field)
    if arr.size and arr.shape[1:] != (4,):
        raise ValueError(f"{field}: rows must be [i, j, k, value]")
    return arr.reshape(-1, 4)[:, :3], arr.reshape(-1, 4)[:, 3]


def _canonical(entries: tuple, shape: tuple, field: str) -> tuple:
    """Entries (idx, val) of a tensor of the given shape sorted by raveled
    index and exact zeros dropped, the order of `coo`; an index outside the
    tensor or given twice (checked before the zeros go) raises ValueError."""
    idx, val = entries
    if np.shape(idx) != (len(val), len(shape)):
        raise ValueError(f"{field}: expected an (nnz, {len(shape)}) index array and nnz values")
    if ((idx < 0) | (idx >= shape) | (idx != np.floor(idx))).any():
        raise ValueError(f"{field}: index outside shape {shape}")
    idx = idx.astype(np.intp)
    key = np.ravel_multi_index(idx.T, shape)
    order = key.argsort(kind="stable")
    key = key[order]
    repeated = key[1:] == key[:-1]
    if repeated.any():
        at = np.unravel_index(key[1:][repeated.argmax()], shape)
        raise ValueError(f"{field}: repeated index {[int(x) for x in at]}")
    keep = order[val[order] != 0]
    return idx[keep], val[keep]


@dataclass(frozen=True, eq=False)
class FinitePQG:
    """Structure constants of a finite-dimensional instance.

    e_i e_j = sum_k mult[i,j,k] e_k,  e_i^* = sum_j star[i,j] e_j,
    Delta(e_i) = sum_{j,k} coproduct[i,j,k] e_j (x) e_k, and units[k,l,i]
    is the e_i coefficient of the unit projection 1^k_l.  Every field is its
    nonzero entries (idx, val), an (nnz, ndim) index array and its values,
    put in canonical form on construction (`_canonical`).  Structure
    constants are real.  An object name may not contain '|', which joins
    the two objects of a unit's key in the file format.
    """

    objects: tuple[str, ...]
    basis: tuple[str, ...]
    mult: tuple
    star: tuple
    units: tuple
    coproduct: tuple

    def __post_init__(self):
        d, n = len(self.basis), len(self.objects)
        if not n:
            raise ValueError("objects: expected at least one object")
        for name in self.objects:
            if "|" in name:
                raise ValueError(f"objects: name {name!r} contains '|', the unit key separator")
        shapes = {"mult": (d, d, d), "star": (d, d), "units": (n, n, d), "coproduct": (d, d, d)}
        for f, shape in shapes.items():
            object.__setattr__(self, f, _canonical(getattr(self, f), shape, f))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def algebra_unit(self) -> np.ndarray:
        _, _, i, val = columns(self.units)
        return np.bincount(i, val, minlength=self.dim)

    @cached_property
    def unit_runs(self) -> tuple:
        """(live, runs) over the raveled object pairs q = k n + l: the entries
        of 1^k_l are units[runs[q]:runs[q + 1]], and live[q] says one exceeds
        ZERO_TOL in magnitude, the one rule by which every check tells a
        vanishing unit.  Made on first use and kept with the instance."""
        n, (k, l, _, val) = self.n_objects, columns(self.units)
        kl, live = k * n + l, np.zeros(n * n, dtype=bool)
        live[kl[np.abs(val) > ZERO_TOL]] = True
        live.flags.writeable = False  # shared by every reader
        return live, kl.searchsorted(np.arange(n * n + 1)).tolist()

    def unit_vectors(self, q: Iterable[int]) -> Iterator[np.ndarray]:
        """The coefficient vector of 1^k_l for each raveled pair k n + l in q,
        one at a time, scattered from its run of the unit entries."""
        _, _, i, val = columns(self.units)
        runs = self.unit_runs[1]
        for p in q:
            lo, hi = runs[p], runs[p + 1]
            vec = np.zeros(self.dim)
            vec[i[lo:hi]] = val[lo:hi]
            yield vec

    def trace_vector(self) -> np.ndarray:
        """Trace of left multiplication, as a functional vector."""
        i, j, k, val = columns(self.mult)
        diagonal = j == k
        return np.bincount(i[diagonal], val[diagonal], minlength=self.dim)

    @cached_property
    def corner_entries(self) -> tuple:
        """The nonzero entries of every corner map a -> 1^k_m a 1^l_n.

        Entry (g, c, i) with value v says (1^k_m e_i 1^l_n)_c = v, for the
        grading g = ravel(k, m, l, n), one per index, sorted by (g, c, i).
        The factors (1^k_m e_i)_x and (e_x 1^l_n)_c are joins of the
        unit and mult entries and the maps their join on x, each summed per
        index; made on first use and kept with the instance.
        """
        n, d = self.n_objects, self.dim
        k, m, u, uval = columns(self.units)
        a, b, c, mval = columns(self.mult)
        p, q = matches(u, a)  # 1^k_m e_i at (km, x, i)
        left, lval = summed(((k[p] * n + m[p]) * d + c[q]) * d + b[q], uval[p] * mval[q])
        p, q = matches(u, b)  # e_x 1^l_n at (x, ln, c)
        right, rval = summed(((a[q] * n + k[p]) * n + m[p]) * d + c[q], mval[q] * uval[p])
        p, q = matches(left // d % d, right // (n * n * d))
        km, i = left[p] // (d * d), left[p] % d
        key, val = summed((km * (n * n * d) + right[q] % (n * n * d)) * d + i, rval[q] * lval[p])
        return np.array(np.unravel_index(key, (n**4, d, d))).T, val  # contiguous columns

    def to_json_dict(self) -> dict:
        """The file form, the only place where star and units are dense."""
        sparse = lambda f: [[*i, v] for i, v in zip(*(x.tolist() for x in getattr(self, f)))]
        star = np.zeros((self.dim, self.dim))
        star[tuple(self.star[0].T)] = self.star[1]
        n, pairs = self.n_objects, np.flatnonzero(np.diff(self.unit_runs[1]))
        return {
            "objects": list(self.objects),
            "basis": list(self.basis),
            "mult": sparse("mult"),
            "star": star.tolist(),
            "units": {f"{self.objects[kl // n]}|{self.objects[kl % n]}": vec.tolist()
                      for kl, vec in zip(pairs.tolist(), self.unit_vectors(pairs))},
            "coproduct": sparse("coproduct"),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FinitePQG":
        """Load an instance dump, rejecting malformed fields with ValueError;
        the dense star rows and unit vectors are kept as their entries."""
        fields = ("objects", "basis", "mult", "star", "units", "coproduct")
        missing = [k for k in fields if k not in d]
        if missing:
            raise ValueError(f"instance file lacks {', '.join(missing)}")
        for key in ("objects", "basis"):
            names = d[key]
            if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
                raise ValueError(f"{key}: expected a list of names")
            if len(set(names)) != len(names):
                raise ValueError(f"{key}: duplicate names")
        objects = tuple(d["objects"])
        basis = tuple(d["basis"])
        dim = len(basis)
        obj_index = {o: i for i, o in enumerate(objects)}
        if not isinstance(d["units"], dict):
            raise ValueError("units: expected an object keyed by 'k|l'")
        units = [(np.zeros((0, 3), dtype=np.intp), np.zeros(0))]
        for key, vec in d["units"].items():
            k, _, l = key.partition("|")
            if k not in obj_index or l not in obj_index:
                raise ValueError(f"units: key {key!r} does not name two known objects")
            idx, val = coo(_finite_array(vec, f"units[{key!r}]", (dim,)).reshape(1, 1, dim))
            units.append((idx + [obj_index[k], obj_index[l], 0], val))
        return cls(
            objects=objects,
            basis=basis,
            mult=_coo_rows(d["mult"], "mult"),
            star=coo(_finite_array(d["star"], "star", (dim, dim))),
            units=tuple(np.concatenate(x) for x in zip(*units)),
            coproduct=_coo_rows(d["coproduct"], "coproduct"),
        )


def _ones(*idx) -> tuple:
    """Entries of value 1 at the given index columns."""
    return np.column_stack(idx), np.ones(len(idx[0]))


def from_finite_groupoid_functions(gpd: FiniteGroupoid) -> FinitePQG:
    """Function algebra on a finite groupoid, coproduct dual to composition."""
    every = np.arange(len(gpd.arrows))
    g, h, gh = gpd.composable()
    return FinitePQG(
        objects=gpd.objects,
        basis=gpd.arrows,
        mult=_ones(every, every, every),
        star=_ones(every, every),
        units=_ones(gpd.src, gpd.tgt, every),
        coproduct=_ones(gh, g, h),
    )


def from_finite_groupoid_algebra(gpd: FiniteGroupoid) -> FinitePQG:
    """Groupoid algebra: basis theta_g, group-like coproduct, units on the diagonal."""
    every, objects = np.arange(len(gpd.arrows)), np.arange(len(gpd.objects))
    return FinitePQG(
        objects=gpd.objects,
        basis=tuple(f"theta_{g}" for g in gpd.arrows),
        mult=_ones(*gpd.composable()),
        star=_ones(every, gpd.inverse),
        units=_ones(objects, objects, gpd.identities),
        coproduct=_ones(every, every, every),
    )


def raum_instance() -> FinitePQG:
    """Function algebra on the two-object category with a single arrow 1 -> 2.

    Not a groupoid (the arrow has no inverse), so the cross unit projection
    vanishes on one side only.  Satisfies everything except the dual-density
    condition; the canonical negative control for the axiom checker.
    """
    every = np.arange(3)
    return FinitePQG(
        objects=("1", "2"),
        basis=("id1", "id2", "a"),
        mult=_ones(every, every, every),
        star=_ones(every, every),
        units=_ones([0, 1, 0], [0, 1, 1], [0, 1, 2]),
        # a factors as id1 . a and a . id2
        coproduct=_ones([0, 1, 2, 2], [0, 1, 0, 2], [0, 1, 2, 1]),
    )


# -- axiom verification -------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    residual: float
    detail: str = ""

    def __str__(self):
        state = "PASS" if self.passed else "FAIL"
        msg = f"{self.label}: {state} (residual {self.residual:.3e})"
        return msg + (f" {self.detail}" if self.detail else "")

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_labels(self) -> list:
        return [c.label for c in self.checks if not c.passed]

    def failed_axioms(self) -> list:
        return [c.label for c in self.checks if not c.passed and c.label in AXIOM_LABELS]

    def check(self, label: str) -> CheckResult:
        for c in self.checks:
            if c.label == label:
                return c
        raise KeyError(label)


class NonFiniteError(ArithmeticError):
    """An intermediate holds inf or nan; the stage that made it fails its check."""


def _finite(a: np.ndarray) -> np.ndarray:
    """a itself, checked before it reaches LAPACK, which may not return on inf or nan."""
    if not np.isfinite(a).all():
        raise NonFiniteError
    return a


def _unsolved_detail(exc: Exception) -> str:
    """Why a density check could not take its SVDs."""
    if isinstance(exc, NonFiniteError):
        return "non-finite column sets"
    return f"{type(exc).__name__}: {exc}"


def verify_axioms(G: FinitePQG, tol: float = 1e-10) -> AxiomReport:
    """Check the defining axioms by finite linear algebra.

    Structural sanity (associativity, star, homomorphism property of the
    coproduct) is reported alongside the named axioms; density conditions are
    column-span comparisons with a scaled singular-value cutoff.  Whether
    nonvanishing of the unit projections is an equivalence relation is
    reported as a separate fact, never inferred from the other checks.

    Every check reads from a fixed number of passes over the instance's
    entries, whatever the instance: one batched sparse contraction per
    dependency level (`coo_einsum`, one `coo_product` for all its
    contractions, two in all: products of two constants, then products of a
    first product with a third factor), one comparison of all (lhs, rhs)
    pairs (`coo_max_diffs`), and one block-split span pass (`split_spans`)
    for the three column sets of D1 and the two of D2.  Products with a
    vector (the algebra unit, and D2's P = sum_k 1^k_k) scale the entries of
    mult instead.  Dense constants make a single block, as large as the
    dense contraction's intermediates.  The span pass splits each row space
    along the connected components of the sets' joint nonzero pattern --
    for a groupoid the unit grading makes every block a single row -- and
    takes one SVD per block, cutting ranks at RANK_CUTOFF times the largest
    singular value over all blocks of a set, as the dense SVD of the whole
    set would.  The reported ranks are block sums, and D2's missing
    directions are the rows its span covers least.  A density check whose
    column sets hold inf or nan (an overflowing structure constant) fails
    with a detail saying so, before any SVD, and so does one whose SVD
    raises LinAlgError; the other density check keeps its result.
    """
    d, n = G.dim, G.n_objects
    dim = max(d, n)  # letters range over basis elements and objects
    m, c, s, u = G.mult, G.coproduct, G.star, G.units
    # Delta(1) = sum 1^k_m (x) 1^m_l, the unit entries joined on the middle object
    uk, ul, ui, uval = columns(u)
    p, q = matches(ul, uk)
    key, val = summed(ui[p] * d + ui[q], uval[p] * uval[q])
    delta_one = np.column_stack(np.divmod(key, d)), val
    # the products with a vector are the entries scaled by it: e_i 1 and
    # 1 e_i (summed over the dropped letter when compared), and the left
    # and right factors P e_i, e_x P of D2's slices Delta(P e_i P), for
    # P = sum_k 1^k_k
    one = G.algebra_unit()
    proj = np.bincount(ui[uk == ul], uval[uk == ul], minlength=d)
    i, j, k, val = columns(m)
    times_one = (i * dim + k, val * one[j]), (j * dim + k, val * one[i])
    p_left, p_right = (
        (m[0][at], val[at] * proj[x[at]]) for x in (i, j) for at in [proj[x] != 0]
    )
    checks = []
    add = lambda label, residual, detail="": checks.append(
        CheckResult(label, bool(residual <= tol), float(residual), detail)
    )
    # a fact rather than a residual: 0 when it holds, 1 and the detail when not
    fact = lambda label, ok, detail: checks.append(
        CheckResult(label, ok, 0.0 if ok else 1.0, "" if ok else detail)
    )

    # every contraction of the structure constants, batched by dependency
    # level, one coo_product each: the products of two constants, then the
    # products of those with a third.  Contractions of one pattern are
    # written with the same letters, x the summed one, so they share a plan.
    (
        assoc_l, assoc_r, anti_l, anti_x, dm_l, dm_x, dm_y, dstar_l, dstar_x, u_star, u_x,
        u2_l, u2_r, c_l, c_r, involution, d1_x, d1_mid, d1_right, d2_x,
    ) = coo_einsum(
        # (e_i e_j) e_k = e_i (e_j e_k), at [i, j, k, l]
        ("ijx,xkl->ijkl", m, m),
        ("ijx,kxl->kijl", m, m),
        # (e_i e_j)^* = e_j^* e_i^*: the left side at [i, j, k], and the
        # right side's first factor e_i^* e_j at [i, j, k] of e_k
        ("ijx,xk->ijk", m, s),
        ("ix,jxk->ijk", s, m),
        # Delta(e_i e_j) = Delta(e_i) Delta(e_j): the left side at [i, j, k,
        # l], and the right side's two factors at [i, y, z, a] and [j, z, y, b]
        ("ijx,xkl->ijkl", m, c),
        ("ixj,xkl->ijkl", c, m),
        ("ijx,kxl->ijkl", c, m),
        # Delta(e_i^*) = (* (x) *) Delta(e_i): the left side, and the right
        # side's first factor at [i, y, a]
        ("ix,xjk->ijk", s, c),
        ("ixj,xk->ijk", c, s),
        # (U1): u_kl^* = u_kl at [k, l, y], and the first factor of u_kl u_mn
        # = [kl = mn] u_kl at [k, l, j, x]
        ("ijx,xk->ijk", u, s),
        ("ijx,xkl->ijkl", u, m),
        # (U2): Delta(1^k_l) = sum_m 1^k_m (x) 1^m_l at [k, l, a, b]
        ("ijx,xkl->ijkl", u, c),
        ("ixj,xkl->ikjl", u, u),
        # (C): coassociativity at [i, a, b, k]
        ("ixj,xkl->iklj", c, c),
        ("ijx,xkl->ijkl", c, c),
        # e_i^** = e_i at [i, j]
        ("ix,xj->ij", s, s),
        # (D1): the first factor of (A (x) A) Delta(1) at [y, a, u], and
        # (A (x) 1) Delta(A), (1 (x) A) Delta(A), each at [u, v, a, b]
        ("xi,jxk->ijk", delta_one, m),
        ("ixj,kxl->ljki", c, m),
        ("ijx,kxl->jlki", c, m),
        # (D2): P e_i P, with P e_i = sum_a P_a e_a e_i and e_x P alike
        ("aix,xbc->ic", p_left, p_right),
        dim=dim,
    )
    (anti_r, dm_r, dstar_r, u_prod, d1_left, slices) = coo_einsum(
        ("ial,ja->ijl", anti_x, s),
        ("iyza,jzyb->ijab", dm_x, dm_y),
        ("iya,yb->iab", dstar_x, s),
        ("kljx,mnj->klxmn", u_x, u),
        ("yau,byv->uvab", d1_x, m),
        # Delta(P e_i P)[j, k]
        ("ic,cjk->ijk", d2_x, c),
        dim=dim,
    )
    del anti_x, dm_x, dm_y, dstar_x, u_x, d1_x, d2_x
    # the column sets: D1's rows (u, v) lead their keys; D2's slices
    # Delta(P e_i P)[j, k] span A in the first leg (row j) and the second
    # (row k), its rows placed after D1's
    sq = dim * dim
    key, val = slices
    col_sets = {
        "D1": [(key // sq, key % sq, val) for key, val in (d1_left, d1_mid, d1_right)],
        "D2": [
            (sq + key // dim % dim, key // sq * dim + key % dim, val),
            (sq + key % dim, key // dim, val),
        ],
    }
    del d1_left, d1_mid, d1_right, slices, key, val

    # every (lhs, rhs) pair in one comparison; a side may repeat a key, and
    # its value there is the sum of its entries
    eye = (np.arange(d) * (dim + 1), np.ones(d))
    u_key = u[0] @ (dim ** np.arange(2, -1, -1))  # 1^k_l as "kly"
    u_square = u[0] @ [dim**4 + dim, dim**3 + 1, dim**2]  # [kl = mn] 1^k_l as "klxmn"
    labels = ("assoc", "star_antimult", "delta_multiplicative", "delta_star", "U1",
              "U1", "U1", "U1", "U2", "C", "star_involution")
    pairs = [
        (assoc_l, assoc_r), (anti_l, anti_r), (dm_l, dm_r), (dstar_l, dstar_r),
        (u_star, (u_key, u[1])), (u_prod, (u_square, u[1])), (times_one[0], eye),
        (times_one[1], eye), (u2_l, u2_r), (c_l, c_r), (involution, eye),
    ]
    del (assoc_l, assoc_r, anti_l, anti_r, dm_l, dm_r, dstar_l, dstar_r, u_star, u_prod,
         times_one, u2_l, u2_r, c_l, c_r, involution)
    diffs = coo_max_diffs(pairs).tolist()
    del pairs
    diff = dict(zip(labels, diffs))
    diff["U1"] = np.max(diffs[4:8])

    # (D1) and (D2) in one span pass over the sets that are finite, D2's
    # after D1's; on LinAlgError each axiom's sets go through alone, so an
    # SVD that fails in one axiom's blocks leaves the other's result
    def span_pass(labels):
        ranks, worst, rows, cover = split_spans(
            [x for label in labels for x in col_sets[label]],
            ((0, 1), (1, 0), (0, 2), (2, 0)) if "D1" in labels else (),
        )
        ends = np.cumsum([len(col_sets[label]) for label in labels]).tolist()
        return {label: (ranks[lo:hi], worst, rows, cover[lo:hi])
                for label, lo, hi in zip(labels, [0, *ends], ends)}

    spans = {label: _unsolved_detail(NonFiniteError()) for label, sets in col_sets.items()
             if not all(np.isfinite(v).all() for _, _, v in sets)}
    live = [label for label in col_sets if label not in spans]
    try:
        spans.update(span_pass(live) if live else {})
    except np.linalg.LinAlgError:
        for label in live:
            try:
                spans.update(span_pass([label]))
            except np.linalg.LinAlgError as exc:
                spans[label] = _unsolved_detail(exc)
    del col_sets

    for label in ("assoc", "star_involution", "star_antimult", "delta_multiplicative",
                  "delta_star", "U1", "U2", "C"):
        add(label, diff[label])

    nz = G.unit_runs[0].reshape(n, n)
    missing = [G.objects[k] for k in range(n) if not nz[k, k]]
    fact("U3", not missing, f"vanishing diagonal units at {missing}")

    unsolved = lambda label, detail: CheckResult(label, False, np.inf, detail)
    # (D1): (A (x) A) Delta(1) = span (A (x) 1) Delta(A) = span (1 (x) A) Delta(A)
    if isinstance(spans["D1"], str):
        checks.append(unsolved("D1", spans["D1"]))
    else:
        ranks, worst, _, _ = spans["D1"]
        add("D1", worst, "ranks " + "/".join(str(r) for r in ranks))
    # (D2): slices of Delta(P A P) span A in either leg
    if isinstance(spans["D2"], str):
        checks.append(unsolved("D2", spans["D2"]))
    else:
        ranks, _, rows, cover = spans["D2"]
        full = all(r == d for r in ranks)
        detail = f"span ranks {ranks}"
        if not full:
            # witness: the basis direction each deficient span covers least
            mine, witness = rows >= sq, []
            for k, r in enumerate(ranks):
                if r < d:
                    lack = np.ones(d)
                    lack[rows[mine] - sq] -= cover[k, mine]
                    witness.append(G.basis[int(np.argmax(lack))])
            detail = f"span ranks {ranks} < dim {d}, missing directions {witness}"
        checks.append(CheckResult("D2", full, 0.0 if full else float(d - min(ranks)), detail))

    # Lemma-level fact, reported independently of (D2)
    reflexive = bool(nz.diagonal().all())
    symmetric = bool(np.all(nz == nz.T))
    transitive = bool(np.all(~((nz @ nz) > 0) | nz))
    fact("unit_equivalence_relation", reflexive and symmetric and transitive,
         f"reflexive={reflexive} symmetric={symmetric} transitive={transitive}")

    return AxiomReport(checks=tuple(checks))


# -- graded functionals and convolution ---------------------------------------


@dataclass(frozen=True, eq=False)
class GradedFunctional:
    """Functional omega(e_i) = vector[i] supported on 1^k_m A 1^l_n."""

    vector: np.ndarray
    grading: tuple[int, int, int, int]

    def __call__(self, a: np.ndarray) -> float:
        return float(self.vector @ a)

    @classmethod
    def graded(cls, G: FinitePQG, vector: np.ndarray, grading) -> "GradedFunctional":
        """Project a raw dual vector onto the grading's support block."""
        g = tuple(grading)
        return cls(vector=_project(G, np.asarray(vector, dtype=float), g), grading=g)

    def support_residual(self, G: FinitePQG) -> float:
        projected = _project(G, self.vector, self.grading)
        return float(np.abs(self.vector - projected).max(initial=0.0))


def _corner_map(G: FinitePQG, grading: tuple) -> tuple:
    """The entries (c, i, value) of one corner map, (1^k_m e_i 1^l_n)_c =
    value: its grading's run of the sorted `FinitePQG.corner_entries`."""
    g, c, i, val = columns(G.corner_entries)
    at = np.ravel_multi_index(grading, (G.n_objects,) * 4)
    lo, hi = g.searchsorted([at, at + 1])
    return c[lo:hi], i[lo:hi], val[lo:hi]


def _runs(G: FinitePQG, gradings: np.ndarray) -> tuple:
    """`_corner_map` of many raveled gradings as entries (run, c, i, value)."""
    g, c, i, val = columns(G.corner_entries)
    lo, hi = g.searchsorted(gradings), g.searchsorted(gradings, side="right")
    count = hi - lo
    at = np.arange(count.sum()) + np.repeat(lo - count.cumsum() + count, count)
    return np.repeat(np.arange(count.size), count), c[at], i[at], val[at]


def _project(G: FinitePQG, vector: np.ndarray, grading: tuple) -> np.ndarray:
    """A dual vector restricted to 1^k_m A 1^l_n: the transpose of the corner
    map applied to it, summed over the map's entries."""
    c, i, val = _corner_map(G, grading)
    return np.bincount(i, val * vector[c], minlength=G.dim)


def _projections(G: FinitePQG, vectors: np.ndarray, gradings: np.ndarray) -> np.ndarray:
    """`_project` of many dual vectors, one row per raveled grading, in one sum."""
    run, c, i, val = _runs(G, gradings)
    out = np.bincount(run * G.dim + i, val * vectors[run, c], minlength=vectors.size)
    return out.reshape(vectors.shape)


def convolve(G: FinitePQG, chi: GradedFunctional, omega: GradedFunctional) -> GradedFunctional:
    """(chi * omega)(a) = (chi (x) omega) Delta(a).

    The output grading follows the middle-matching rule; when the middle
    indices disagree the computed vector is zero for any properly graded
    inputs on a well-formed instance.
    """
    i, j, k, val = columns(G.coproduct)
    vec = np.bincount(i, val * chi.vector[j] * omega.vector[k], minlength=G.dim)
    k, _, l, _ = chi.grading
    _, p, _, q = omega.grading
    return GradedFunctional(vector=vec, grading=(k, p, l, q))


def _zero_state(G: FinitePQG, k: int, m: int) -> GradedFunctional:
    return GradedFunctional(vector=np.zeros(G.dim), grading=(k, m, k, m))


def _corner_trace(G: FinitePQG, k: int, m: int, traces, u) -> Optional[GradedFunctional]:
    """Normalized left-regular trace restricted to the (k, m) corner, from
    `traces`, G.trace_vector() projected onto every corner [k, m], and its unit u.

    None when the trace has no positive mass on the corner's unit, which a
    well-formed instance that breaks the axioms can produce.
    """
    if not G.unit_runs[0][k * G.n_objects + m]:
        return _zero_state(G, k, m)
    vec = traces[k, m]
    norm = vec @ u
    if norm <= ZERO_TOL:
        return None
    return GradedFunctional(vector=vec / norm, grading=(k, m, k, m))


# -- Haar families -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HaarFamily:
    """States phi_{km}, one per object pair, zero where the unit vanishes."""

    states: dict
    diagnostics: dict = field(default_factory=dict)

    def phi(self, k: int, m: int) -> GradedFunctional:
        return self.states[(k, m)]


def _corner_invariance_residual(G: FinitePQG, k: int, h: GradedFunctional, unit) -> float:
    """Two-sided invariance defect of h against the corner's spanning set.

    The set is the dual basis projected onto the (k, k) corner, zero
    functionals dropped: the rows chi of the corner map.  Every chi * h and
    h * chi is one row of a matrix product, with Delta contracted against h
    once per side over the coproduct's entries.  `unit` is 1^k_k.
    """
    d = G.dim
    c, i, val = _corner_map(G, (k, k, k, k))
    chi = np.zeros((d, d))
    chi[c, i] = val
    chi = chi[~(np.abs(chi).max(axis=1, initial=0.0) <= ZERO_TOL)]
    mass = (chi @ unit)[:, None] * h.vector
    i, a, b, val = columns(G.coproduct)
    # (chi * h)(e_i) = chi . Delta(e_i) h at [a, i], and h . Delta(e_i) chi at [b, i]
    left = chi @ np.bincount(a * d + i, val * h.vector[b], minlength=d * d).reshape(d, d) - mass
    right = chi @ np.bincount(b * d + i, val * h.vector[a], minlength=d * d).reshape(d, d) - mass
    return np.maximum(np.abs(left).max(initial=0.0), np.abs(right).max(initial=0.0))


def haar_cesaro(
    G: FinitePQG,
    seed_states: Optional[dict] = None,
    tol: float = 1e-10,
) -> HaarFamily:
    """Invariant family by Cesaro averaging of iterated convolutions.

    Per diagonal corner, averages convolution powers of the seed state over
    CESARO_WINDOW of them and restarts from the average (again a corner
    state) until the corner invariance residual drops below `tol`, the
    budget of CESARO_ITERATIONS convolutions is spent, or CESARO_STALL
    averages in a row bring no new lowest residual: a corner with no
    invariant state stalls there, and its diagnostics say `stalled`.
    Off-diagonal states are corner-trace transports of the diagonal ones.
    Non-convergence is reported in `diagnostics`, not raised.  So is a
    corner trace that is degenerate or not corner-supported on an instance
    that breaks the axioms: the corner's state is left zero and
    `diagnostics["errors"]` names the corner.  Malformed `seed_states`
    raise.
    """
    n, d = G.n_objects, G.dim
    gradings = np.arange(n * n) * (n * n + 1)  # (k, m, k, m), raveled
    traces = _projections(G, np.broadcast_to(G.trace_vector(), (n * n, d)), gradings)
    traces = traces.reshape(n, n, d)
    diagnostics, errors, diag = {}, [], {}
    for k, unit in enumerate(G.unit_vectors(range(0, n * n, n + 1))):
        if seed_states is not None:
            seed = seed_states[k]
            if seed.grading != (k, k, k, k):
                raise ValueError(f"seed state for corner {k} has grading {seed.grading}")
            if seed.support_residual(G) > 1e-12:
                raise ValueError(f"seed state for corner {k} is not corner-supported")
        else:
            seed = _corner_trace(G, k, k, traces, unit)
            if seed is None or seed.support_residual(G) > 1e-12:
                fault = "degenerate" if seed is None else "not corner-supported"
                errors.append(f"corner trace is {fault} at ({k}, {k})")
                diag[k] = _zero_state(G, k, k)
                diagnostics[k] = {"iterations": 0, "converged": False}
                continue
        h, used, stalled = seed, 0, False
        trace = [float(_corner_invariance_residual(G, k, h, unit))]
        while trace[-1] > tol and used < CESARO_ITERATIONS and not stalled:
            acc = np.zeros(G.dim)
            cur = h
            for _ in range(min(CESARO_WINDOW, CESARO_ITERATIONS - used)):
                acc += cur.vector
                cur = convolve(G, cur, h)
                used += 1
            norm = acc @ unit
            if norm <= ZERO_TOL:
                break  # averaged mass collapsed; leave the last iterate and report
            h = GradedFunctional(vector=acc / norm, grading=h.grading)
            trace.append(float(_corner_invariance_residual(G, k, h, unit)))
            recent, before = trace[-CESARO_STALL:], trace[:-CESARO_STALL]
            stalled = bool(before) and not min(recent) < min(before)
        diag[k] = h
        diagnostics[k] = {
            "iterations": used,
            "residual": trace[-1],
            "residual_trace": trace,
            "converged": trace[-1] <= tol,
        }
        if stalled:
            diagnostics[k]["stalled"] = True
    states = {(r, m): diag[r] if r == m else _zero_state(G, r, m)
              for r in range(n) for m in range(n)}
    cross = [q for q in np.flatnonzero(G.unit_runs[0]).tolist() if q % (n + 1)]  # off the diagonal
    for q, unit in zip(cross, G.unit_vectors(cross)):
        r, m = divmod(q, n)
        theta = _corner_trace(G, r, m, traces, unit)
        if theta is None:
            errors.append(f"corner trace is degenerate at ({r}, {m})")
        else:
            states[(r, m)] = convolve(G, theta, diag[m])
    out = {"corners": diagnostics, "method": "cesaro"}
    if errors:
        out["errors"] = errors
    return HaarFamily(states=states, diagnostics=out)


def _corner_bases(G: FinitePQG, corners: np.ndarray) -> tuple:
    """Orthonormal bases of the rows of the corner maps of the diagonal
    corners q = k n + m given, as entries (q d + i, j, value).

    All corners are one matrix, row q d + i and column q d + c, so every
    block of `split_blocks` lies in one corner; each corner is rank-cut at
    RANK_CUTOFF times its own largest singular value, as its dense SVD
    would be.  Vectors j run by block height, block and singular value.
    """
    n, d = G.n_objects, G.dim
    run, c, i, val = _runs(G, corners * (n * n + 1))  # (k, m, k, m) raveled is q (n^2 + 1)
    q = corners[run]
    row_ids, stacks = split_blocks([(q * d + i, q * d + c, _finite(val))])
    top = np.zeros(n * n)  # each corner's largest singular value
    for rows, _, _, sv in stacks:
        np.maximum.at(top, row_ids[rows[:, 0]] // d, sv[:, 0, 0])
    row, col, value, total = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)], 0
    for rows, _, u, sv in stacks:
        ids = row_ids[rows]
        b, j = np.nonzero(sv[:, 0] > RANK_CUTOFF * top[ids[:, 0] // d, None])
        row.append(ids[b].ravel())
        col.append((total + np.arange(b.size)).repeat(rows.shape[1]))
        value.append(u[:, 0][b, :, j].ravel())
        total += b.size
    return np.concatenate(row), np.concatenate(col), np.concatenate(value)


def _haar_system(G: FinitePQG, side: str) -> tuple:
    """The invariance system without its all-zero rows: (M, rhs, bases).

    Unknowns are the coefficients of each phi_{km} in an orthonormal basis of
    its corner; `bases` holds the basis entries (row, column, value), with
    the row (k n + m) d + i and the column that of the unknown
    (`_corner_bases`).  The full system has one row per (k, l, i, side, j),
    in that order, each the dual vectors applied to the phi_{ml} it
    involves, times that corner's basis:
      left  (id (x) phi_kl) Delta(e_i) = sum_m phi_ml(e_i) 1^m_k, at e_j:
            Delta(e_i)[j, :] on phi_kl, -units[m, k, j] e_i on phi_ml;
      right (phi_kl (x) id) Delta(e_i) = sum_m phi_km(e_i) 1^l_m, at e_j:
            Delta(e_i)[:, j] on phi_kl, -units[l, m, j] e_i on phi_km.
    Its entries are made from nonzeros alone: each nonzero basis entry is
    matched with the coproduct entries that share its row and with the unit
    entries that share its corner's first (left) or second (right) object.
    Only the rows that receive an entry are laid out, and those whose
    entries cancel are dropped, so M is the full system without its all-zero
    rows, in the same order.  The unit normalizations come last.
    """
    n, d = G.n_objects, G.dim
    live = np.flatnonzero(G.unit_runs[0])
    # every basis entry: its corner (ba, bb), row bp, column bc and value
    row, bc, bval = bases = _corner_bases(G, live)
    corner, bp = np.divmod(row, d)
    ba, bb = np.divmod(corner, n)
    total = int(bc.max(initial=-1)) + 1
    owner = np.zeros(total, dtype=np.intp)  # the normalization row of each column
    owner[bc] = live.searchsorted(corner)
    ux, uy, uj, uval = columns(G.units)
    ci, cj, ck, cval = columns(G.coproduct)
    legs = {"left": ("left",), "right": ("right",), "both": ("left", "right")}[side]
    # The row key of (k, l, i, side, j) is k wk + l wl + i wi + side d + j,
    # so each entry of a pair adds the part of the indices it gives.  The
    # coproduct terms of both legs meet a basis entry on its row p; the unit
    # terms meet it on one index of its corner, each leg with its own offset.
    wi = len(legs) * d
    wl, wk = d * wi, n * d * wi
    span = max(n, d)
    mine, my_part = [bp], [ba * wk + bb * wl]
    theirs, their_part, their_val = [], [], []
    ci_wi = ci * wi
    for s, leg in enumerate(legs):
        offset = (s + 1) * span
        if leg == "left":  # side 0 whenever it is in the system
            # Delta(e_i)[j, :] on phi_kl; -units[m, k, j] e_i on phi_ml
            theirs += [ck, ux + offset]
            their_part += [ci_wi + cj, uy * wk + uj]
            mine.append(ba + offset)
            my_part.append(bb * wl + bp * wi)
        else:
            # Delta(e_i)[:, j] on phi_kl; -units[l, m, j] e_i on phi_km
            theirs += [cj, uy + offset]
            their_part += [ci_wi + (ck + s * d), ux * wl + (uj + s * d)]
            mine.append(bb + offset)
            my_part.append(ba * wk + bp * wi)
        their_val += [cval, -uval]
    a, b = matches(np.concatenate(mine), np.concatenate(theirs))
    key = np.concatenate(my_part)[a] + np.concatenate(their_part)[b]
    factor = np.concatenate(their_val)[b]
    a %= bp.size
    rows = np.unique(key)
    # entries summed into their rows, with the unit normalizations below them
    height = rows.size + live.size
    ukey = (ux * n + uy) * d + uj
    hit = np.minimum(ukey.searchsorted(row), ukey.size - 1)
    norm = np.bincount(bc, bval * np.where(ukey[hit] == row, uval[hit], 0.0), minlength=total)
    at = np.concatenate([
        rows.searchsorted(key) * total + bc[a],
        (rows.size + owner) * total + np.arange(total),
    ])
    val = np.concatenate([factor * bval[a], norm])
    M = np.bincount(at, val, minlength=height * total).reshape(height, total)
    keep = (M != 0.0).any(axis=1)
    keep[rows.size :] = True
    if not keep.all():  # rows whose entries cancelled
        M = M[keep]
    rhs = np.zeros(M.shape[0])
    rhs[M.shape[0] - live.size :] = 1.0
    return M, rhs, bases


def haar_linear_solve(G: FinitePQG, side: str = "both", tol: float = 1e-10) -> HaarFamily:
    """Invariant family as the solution of the invariance equations.

    Unknowns are the corner-supported coefficients of each phi_{km} with the
    unit normalization appended; `side` selects which invariance equations
    enter ("left", "right", or "both").  The system is assembled without its
    all-zero rows (`_haar_system`), solved by least squares and refined by
    one more least-squares step on the residual.  Diagnostics report the
    rank of the first solve, solvability and uniqueness; the residual is
    that of the refined solution.  A system that holds inf or nan (an
    overflowing structure constant) is not solved: the states are zero and
    `diagnostics["non_finite"]` names the stage.  A LinAlgError from the
    corner bases or the solve leaves zero states too, with its message in
    `diagnostics["linalg_error"]`.
    """
    if side not in ("left", "right", "both"):
        raise ValueError("side must be left, right, or both")
    n, d = G.n_objects, G.dim
    try:
        M, rhs, (row, col, val) = _haar_system(G, side)
        x, _, rank, _ = np.linalg.lstsq(_finite(M), rhs, rcond=RANK_CUTOFF)
        x += np.linalg.lstsq(M, _finite(rhs - M @ x), rcond=RANK_CUTOFF)[0]
    except (NonFiniteError, np.linalg.LinAlgError) as exc:
        non_finite = isinstance(exc, NonFiniteError)
        reason = {"non_finite": "invariance system"} if non_finite else {"linalg_error": str(exc)}
        return HaarFamily(
            states={(k, m): _zero_state(G, k, m) for k in range(n) for m in range(n)},
            diagnostics={"method": "linear_solve", "side": side, **reason, "solvable": False},
        )
    residual = float(np.abs(M @ x - rhs).max(initial=0.0))
    vectors = np.bincount(row, val * x[col], minlength=n * n * d).reshape(n, n, d)
    return HaarFamily(
        states={(k, m): GradedFunctional(vector=vectors[k, m], grading=(k, m, k, m))
                for k in range(n) for m in range(n)},
        diagnostics={
            "method": "linear_solve",
            "side": side,
            "rank": int(rank),
            "n_unknowns": int(M.shape[1]),
            "residual": residual,
            "solvable": residual <= tol,
            "unique": bool(rank == M.shape[1]),
        },
    )


def haar_residuals(G: FinitePQG, fam: HaarFamily, tol: float = 1e-10) -> list:
    """Defects of a candidate family: normalization, support, both invariances."""
    n, d, out = G.n_objects, G.dim, []
    phi = np.stack([[fam.phi(k, m).vector for m in range(n)] for k in range(n)])
    flat, live = phi.reshape(n * n, d), G.unit_runs[0]
    q = np.flatnonzero(live).tolist()
    res = np.abs(flat[~live]).max(initial=0.0)
    for p, unit in zip(q, G.unit_vectors(q)):
        res = np.maximum(res, abs(flat[p] @ unit - 1.0))
    out.append(CheckResult("I1", res <= tol, float(res)))

    # every state against its own grading's projection, in one sum
    gradings = np.array([fam.phi(k, m).grading for k in range(n) for m in range(n)])
    res = np.abs(flat - _projections(G, flat, np.ravel_multi_index(gradings.T, (n,) * 4)))
    res = res.max(initial=0.0)
    out.append(CheckResult("support", res <= tol, float(res)))

    # left: Delta(e_i)[j, :] . phi_kl = sum_m phi_ml(e_i) units[m, k, j] at [k, i, j], per
    # column l; right: Delta(e_i)[:, j] . phi_kl = sum_m phi_km(e_i) units[l, m, j] at
    # [i, l, j], per row k; each one sum over the coproduct's entries, then the units'
    i, a, b, val = columns(G.coproduct)
    uk, ul, uj, uval = columns(G.units)
    uval, every, rows = -uval, np.arange(n)[:, None], np.arange(d)[:, None]
    at_left = np.concatenate([((every * d + i) * d + a).ravel(),
                              ((ul * d + rows) * d + uj).ravel()])
    at_right = np.concatenate([(every * d + i * n * d + b).ravel(),
                               ((rows * n + uk) * d + uj).ravel()])
    worst = lambda side: np.abs(side, out=side).max(initial=0.0)  # one side alive at a time
    res_l = res_r = 0.0
    for s in range(n):
        w = np.concatenate([(phi[:, s][:, b] * val).ravel(), (phi[uk, s].T * uval).ravel()])
        res_l = np.maximum(res_l, worst(np.bincount(at_left, w, minlength=n * d * d)))
        w = np.concatenate([(phi[s][:, a] * val).ravel(), (phi[s][ul].T * uval).ravel()])
        res_r = np.maximum(res_r, worst(np.bincount(at_right, w, minlength=d * n * d)))
    out.append(CheckResult("invariance_left", res_l <= tol, float(res_l)))
    out.append(CheckResult("invariance_right", res_r <= tol, float(res_r)))
    return out


def uniform_haar_oracle(G: FinitePQG, gpd: FiniteGroupoid) -> HaarFamily:
    """Uniform measures on the arrow sets; the Haar family of a function algebra."""
    if G.basis != gpd.arrows:
        raise ValueError("instance basis does not enumerate the groupoid arrows")
    n, src, tgt = len(gpd.objects), gpd.src, gpd.tgt
    hom = np.bincount(src * n + tgt, minlength=n * n).reshape(n, n)  # hom-set sizes
    vectors = np.zeros((n, n, G.dim))
    vectors[src, tgt, np.arange(G.dim)] = 1.0 / hom[src, tgt]
    states = {(k, m): GradedFunctional(vector=vectors[k, m], grading=(k, m, k, m))
              for k in range(n) for m in range(n)}
    return HaarFamily(states=states, diagnostics={"method": "uniform_oracle"})
