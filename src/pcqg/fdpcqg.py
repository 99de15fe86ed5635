"""Finite-dimensional partial compact quantum groups from structure constants.

An instance is a finite-dimensional *-algebra with a distinguished family of
unit projections indexed by object pairs and a coproduct given by structure
constants.  Everything here is finite linear algebra over real structure
constants: axiom checks reduce to tensor identities and column-span
comparisons, and the invariant integral is computed twice (Cesaro iteration
and a linear solve) so the two routes can be compared.

Finite groupoids act as the instance generators, in both the function-algebra
form (commutative, coproduct dual to composition) and the groupoid-algebra
form (cocommutative, group-like basis).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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

# Rank decisions (D1/D2, solver uniqueness) use a scaled singular value cutoff.
RANK_CUTOFF = 1e-10

ZERO_TOL = 1e-12

# the named axioms; the report carries structural sanity checks besides these
AXIOM_LABELS = ("U1", "U2", "C", "U3", "D1", "D2")


# -- finite groupoids ---------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroupoid:
    """Finite groupoid with explicit composition table.

    Arrows compose left to right: (g, h) is composable iff tgt(g) == src(h),
    and then src(gh) = src(g), tgt(gh) = tgt(h).  Construction validates the
    category and inverse axioms and raises ValueError on malformed data.
    """

    objects: tuple[str, ...]
    arrows: tuple[str, ...]
    src: dict
    tgt: dict
    compose: dict
    inverse: dict
    identities: dict

    def __post_init__(self):
        arrows = set(self.arrows)
        if len(arrows) != len(self.arrows):
            raise ValueError("duplicate arrow ids")
        for g in self.arrows:
            if self.src.get(g) not in self.objects or self.tgt.get(g) not in self.objects:
                raise ValueError(f"arrow {g!r} has missing or unknown endpoints")
        composable = {
            (g, h)
            for g in self.arrows
            for h in self.arrows
            if self.tgt[g] == self.src[h]
        }
        if set(self.compose) != composable:
            raise ValueError("composition table does not match composable pairs")
        for (g, h), gh in self.compose.items():
            if gh not in arrows:
                raise ValueError(f"composite of ({g!r}, {h!r}) is not an arrow")
            if self.src[gh] != self.src[g] or self.tgt[gh] != self.tgt[h]:
                raise ValueError(f"composite of ({g!r}, {h!r}) has wrong endpoints")
        for g, h, k in itertools.product(self.arrows, repeat=3):
            if self.tgt[g] == self.src[h] and self.tgt[h] == self.src[k]:
                if self.compose[(self.compose[(g, h)], k)] != self.compose[(g, self.compose[(h, k)])]:
                    raise ValueError(f"composition not associative at ({g!r}, {h!r}, {k!r})")
        if set(self.identities) != set(self.objects):
            raise ValueError("identity table must cover every object")
        for k, e in self.identities.items():
            if self.src[e] != k or self.tgt[e] != k:
                raise ValueError(f"identity of {k!r} has wrong endpoints")
        for g in self.arrows:
            if self.compose[(self.identities[self.src[g]], g)] != g:
                raise ValueError(f"left identity fails at {g!r}")
            if self.compose[(g, self.identities[self.tgt[g]])] != g:
                raise ValueError(f"right identity fails at {g!r}")
        if set(self.inverse) != arrows:
            raise ValueError("inverse table must cover every arrow")
        for g in self.arrows:
            gi = self.inverse[g]
            if gi not in arrows:
                raise ValueError(f"inverse of {g!r} is not an arrow")
            if self.compose.get((g, gi)) != self.identities[self.src[g]]:
                raise ValueError(f"inverse fails at {g!r}")
            if self.compose.get((gi, g)) != self.identities[self.tgt[g]]:
                raise ValueError(f"inverse fails at {g!r}")

    def hom(self, k, l) -> list:
        return [g for g in self.arrows if self.src[g] == k and self.tgt[g] == l]

    def to_json_dict(self) -> dict:
        return {
            "objects": list(self.objects),
            "arrows": [{"id": g, "src": self.src[g], "tgt": self.tgt[g]} for g in self.arrows],
            "compose": [[g, h, gh] for (g, h), gh in sorted(self.compose.items())],
            "inverse": {g: self.inverse[g] for g in self.arrows},
            "identities": dict(sorted(self.identities.items())),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FiniteGroupoid":
        arrows = tuple(a["id"] for a in d["arrows"])
        return cls(
            objects=tuple(d["objects"]),
            arrows=arrows,
            src={a["id"]: a["src"] for a in d["arrows"]},
            tgt={a["id"]: a["tgt"] for a in d["arrows"]},
            compose={(g, h): gh for g, h, gh in d["compose"]},
            inverse=dict(d["inverse"]),
            identities=dict(d["identities"]),
        )


def pair_groupoid(objects: Sequence[str]) -> FiniteGroupoid:
    """Exactly one arrow between every ordered pair of objects."""
    objects = tuple(objects)
    name = lambda i, j: f"{i}>{j}"
    arrows = tuple(name(i, j) for i in objects for j in objects)
    return FiniteGroupoid(
        objects=objects,
        arrows=arrows,
        src={name(i, j): i for i in objects for j in objects},
        tgt={name(i, j): j for i in objects for j in objects},
        compose={
            (name(i, j), name(j, k)): name(i, k)
            for i in objects
            for j in objects
            for k in objects
        },
        inverse={name(i, j): name(j, i) for i in objects for j in objects},
        identities={i: name(i, i) for i in objects},
    )


def _group_groupoid(elements, mult, unit, inv, label="*") -> FiniteGroupoid:
    return FiniteGroupoid(
        objects=(label,),
        arrows=tuple(elements),
        src={g: label for g in elements},
        tgt={g: label for g in elements},
        compose=mult,
        inverse=inv,
        identities={label: unit},
    )


def cyclic_groupoid(n: int) -> FiniteGroupoid:
    """The cyclic group of order n as a one-object groupoid."""
    if n < 1:
        raise ValueError("order must be positive")
    els = [str(i) for i in range(n)]
    mult = {(str(a), str(b)): str((a + b) % n) for a in range(n) for b in range(n)}
    inv = {str(a): str((-a) % n) for a in range(n)}
    return _group_groupoid(els, mult, "0", inv)


def symmetric_groupoid(n: int) -> FiniteGroupoid:
    """The symmetric group on n letters as a one-object groupoid."""
    perms = list(itertools.permutations(range(n)))
    name = lambda p: "".join(str(i) for i in p)
    compose_perm = lambda p, q: tuple(q[p[i]] for i in range(n))
    mult = {(name(p), name(q)): name(compose_perm(p, q)) for p in perms for q in perms}
    inv = {}
    for p in perms:
        pi = [0] * n
        for i, j in enumerate(p):
            pi[j] = i
        inv[name(p)] = name(tuple(pi))
    return _group_groupoid([name(p) for p in perms], mult, name(tuple(range(n))), inv)


def transitive_groupoid(objects: Sequence[str], group: FiniteGroupoid) -> FiniteGroupoid:
    """Pair groupoid over `objects` with isotropy a given one-object groupoid."""
    if len(group.objects) != 1:
        raise ValueError("isotropy must be a one-object groupoid (a group)")
    objects = tuple(objects)
    els = group.arrows
    name = lambda i, g, j: f"{i}:{g}:{j}"
    arrows = tuple(name(i, g, j) for i in objects for g in els for j in objects)
    e = group.identities[group.objects[0]]
    return FiniteGroupoid(
        objects=objects,
        arrows=arrows,
        src={name(i, g, j): i for i in objects for g in els for j in objects},
        tgt={name(i, g, j): j for i in objects for g in els for j in objects},
        compose={
            (name(i, g, j), name(j, h, k)): name(i, group.compose[(g, h)], k)
            for i in objects
            for j in objects
            for k in objects
            for g in els
            for h in els
        },
        inverse={
            name(i, g, j): name(j, group.inverse[g], i)
            for i in objects
            for g in els
            for j in objects
        },
        identities={i: name(i, e, i) for i in objects},
    )


def disjoint_union(*parts: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union, components relabeled with a positional prefix."""
    tag = lambda p, s: f"{p}.{s}"
    objects, arrows = [], []
    src, tgt, compose, inverse, identities = {}, {}, {}, {}, {}
    for idx, g in enumerate(parts):
        p = str(idx)
        objects += [tag(p, k) for k in g.objects]
        arrows += [tag(p, a) for a in g.arrows]
        src.update({tag(p, a): tag(p, g.src[a]) for a in g.arrows})
        tgt.update({tag(p, a): tag(p, g.tgt[a]) for a in g.arrows})
        compose.update(
            {(tag(p, a), tag(p, b)): tag(p, c) for (a, b), c in g.compose.items()}
        )
        inverse.update({tag(p, a): tag(p, g.inverse[a]) for a in g.arrows})
        identities.update({tag(p, k): tag(p, e) for k, e in g.identities.items()})
    return FiniteGroupoid(
        objects=tuple(objects),
        arrows=tuple(arrows),
        src=src,
        tgt=tgt,
        compose=compose,
        inverse=inverse,
        identities=identities,
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
    """value as a float array of the given shape, every entry finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from None
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{field}: shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{field}: non-finite value")
    return arr


def _coo_tensor(rows, dim: int, field: str) -> np.ndarray:
    """A (dim, dim, dim) tensor from [i, j, k, value] rows."""
    arr = _finite_array(rows, field)
    if arr.size and arr.shape[1:] != (4,):
        raise ValueError(f"{field}: rows must be [i, j, k, value]")
    idx, values = arr.reshape(-1, 4)[:, :3], arr.reshape(-1, 4)[:, 3]
    if ((idx < 0) | (idx >= dim) | (idx != np.floor(idx))).any():
        raise ValueError(f"{field}: index outside 0..{dim - 1}")
    out = np.zeros((dim, dim, dim))
    out[tuple(idx.astype(int).T)] = values
    return out


@dataclass(frozen=True)
class FinitePQG:
    """Structure constants of a finite-dimensional instance.

    e_i e_j = sum_k mult[i,j,k] e_k,  e_i^* = sum_j star[i,j] e_j,
    Delta(e_i) = sum_{j,k} coproduct[i,j,k] e_j (x) e_k, and
    units[k,l] is the coefficient vector of the unit projection 1^k_l.
    Structure constants are real; all generated instances fit that.
    """

    objects: tuple[str, ...]
    basis: tuple[str, ...]
    mult: np.ndarray
    star: np.ndarray
    units: np.ndarray
    coproduct: np.ndarray

    def __post_init__(self):
        d, n = len(self.basis), len(self.objects)
        if self.mult.shape != (d, d, d) or self.coproduct.shape != (d, d, d):
            raise ValueError("mult and coproduct must be (d, d, d)")
        if self.star.shape != (d, d):
            raise ValueError("star must be (d, d)")
        if self.units.shape != (n, n, d):
            raise ValueError("units must be (n_objects, n_objects, d)")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", a, b, self.mult)

    def star_vec(self, a: np.ndarray) -> np.ndarray:
        return a @ self.star

    def unit(self, k: int, l: int) -> np.ndarray:
        return self.units[k, l]

    def algebra_unit(self) -> np.ndarray:
        return self.units.sum(axis=(0, 1))

    def source_projection(self, k: int) -> np.ndarray:
        return self.units[k].sum(axis=0)

    def target_projection(self, m: int) -> np.ndarray:
        return self.units[:, m].sum(axis=0)

    def left_mult_matrix(self, v: np.ndarray) -> np.ndarray:
        # (v e_j)_k as matrix acting on coefficient vectors
        return np.einsum("i,ijk->kj", v, self.mult)

    def right_mult_matrix(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("j,ijk->ki", v, self.mult)

    def delta(self, v: np.ndarray) -> np.ndarray:
        """Coproduct as a (d, d) coefficient matrix on e_j (x) e_k."""
        return np.einsum("i,ijk->jk", v, self.coproduct)

    def trace_vector(self) -> np.ndarray:
        """Trace of left multiplication, as a functional vector."""
        return np.einsum("ijj->i", self.mult)

    def corner_vector(self, vec: np.ndarray, grading) -> np.ndarray:
        """omega(1^k_m . 1^l_n) for omega given by `vec`."""
        k, m, l, n = grading
        lm = self.left_mult_matrix(self.units[k, m])
        rm = self.right_mult_matrix(self.units[l, n])
        return (rm @ lm).T @ vec

    def to_json_dict(self) -> dict:
        sparse = lambda t: [
            [int(i), int(j), int(k), float(t[i, j, k])]
            for i, j, k in zip(*np.nonzero(t))
        ]
        return {
            "objects": list(self.objects),
            "basis": list(self.basis),
            "mult": sparse(self.mult),
            "star": [[float(x) for x in row] for row in self.star],
            "units": {
                f"{self.objects[k]}|{self.objects[l]}": [float(x) for x in self.units[k, l]]
                for k in range(self.n_objects)
                for l in range(self.n_objects)
                if np.any(self.units[k, l])
            },
            "coproduct": sparse(self.coproduct),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FinitePQG":
        """Load an instance dump, rejecting malformed fields with ValueError."""
        fields = ("objects", "basis", "mult", "star", "units", "coproduct")
        missing = [k for k in fields if k not in d]
        if missing:
            raise ValueError(f"instance file lacks {', '.join(missing)}")
        objects = tuple(d["objects"])
        basis = tuple(d["basis"])
        dim, n = len(basis), len(objects)
        obj_index = {o: i for i, o in enumerate(objects)}
        units = np.zeros((n, n, dim))
        if not isinstance(d["units"], dict):
            raise ValueError("units: expected an object keyed by 'k|l'")
        for key, vec in d["units"].items():
            k, _, l = key.partition("|")
            if k not in obj_index or l not in obj_index:
                raise ValueError(f"units: key {key!r} does not name two known objects")
            units[obj_index[k], obj_index[l]] = _finite_array(vec, f"units[{key!r}]", (dim,))
        return cls(
            objects=objects,
            basis=basis,
            mult=_coo_tensor(d["mult"], dim, "mult"),
            star=_finite_array(d["star"], "star", (dim, dim)),
            units=units,
            coproduct=_coo_tensor(d["coproduct"], dim, "coproduct"),
        )


def from_finite_groupoid_functions(gpd: FiniteGroupoid) -> FinitePQG:
    """Function algebra on a finite groupoid, coproduct dual to composition."""
    d = len(gpd.arrows)
    idx = {g: i for i, g in enumerate(gpd.arrows)}
    mult = np.zeros((d, d, d))
    for i in range(d):
        mult[i, i, i] = 1.0
    cop = np.zeros((d, d, d))
    for (g, h), gh in gpd.compose.items():
        cop[idx[gh], idx[g], idx[h]] = 1.0
    n = len(gpd.objects)
    units = np.zeros((n, n, d))
    for k, ko in enumerate(gpd.objects):
        for l, lo in enumerate(gpd.objects):
            for g in gpd.hom(ko, lo):
                units[k, l, idx[g]] = 1.0
    return FinitePQG(
        objects=gpd.objects,
        basis=gpd.arrows,
        mult=mult,
        star=np.eye(d),
        units=units,
        coproduct=cop,
    )


def from_finite_groupoid_algebra(gpd: FiniteGroupoid) -> FinitePQG:
    """Groupoid algebra: basis theta_g, group-like coproduct, units on the diagonal."""
    d = len(gpd.arrows)
    idx = {g: i for i, g in enumerate(gpd.arrows)}
    mult = np.zeros((d, d, d))
    for (g, h), gh in gpd.compose.items():
        mult[idx[g], idx[h], idx[gh]] = 1.0
    star = np.zeros((d, d))
    for g in gpd.arrows:
        star[idx[g], idx[gpd.inverse[g]]] = 1.0
    cop = np.zeros((d, d, d))
    for i in range(d):
        cop[i, i, i] = 1.0
    n = len(gpd.objects)
    units = np.zeros((n, n, d))
    for k, ko in enumerate(gpd.objects):
        units[k, k, idx[gpd.identities[ko]]] = 1.0
    return FinitePQG(
        objects=gpd.objects,
        basis=tuple(f"theta_{g}" for g in gpd.arrows),
        mult=mult,
        star=star,
        units=units,
        coproduct=cop,
    )


def raum_instance() -> FinitePQG:
    """Function algebra on the two-object category with a single arrow 1 -> 2.

    Not a groupoid (the arrow has no inverse), so the cross unit projection
    vanishes on one side only.  Satisfies everything except the dual-density
    condition; the canonical negative control for the axiom checker.
    """
    basis = ("id1", "id2", "a")
    d = 3
    mult = np.zeros((d, d, d))
    for i in range(d):
        mult[i, i, i] = 1.0
    cop = np.zeros((d, d, d))
    cop[0, 0, 0] = 1.0
    cop[1, 1, 1] = 1.0
    # a factors as id1 . a and a . id2
    cop[2, 0, 2] = 1.0
    cop[2, 2, 1] = 1.0
    units = np.zeros((2, 2, d))
    units[0, 0, 0] = 1.0
    units[1, 1, 1] = 1.0
    units[0, 1, 2] = 1.0
    return FinitePQG(
        objects=("1", "2"),
        basis=basis,
        mult=mult,
        star=np.eye(d),
        units=units,
        coproduct=cop,
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

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_json_dict() for c in self.checks]}


def _orth_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank-cut at RANK_CUTOFF * s_max."""
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0))
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((columns.shape[0], 0))
    return u[:, s > RANK_CUTOFF * s[0]]

def _span_containment(cols: np.ndarray, basis: np.ndarray) -> float:
    """Largest relative distance of a column from the span of `basis`."""
    worst = 0.0
    for c in cols.T:
        nc = np.linalg.norm(c)
        if nc == 0.0:
            continue
        res = np.linalg.norm(c - basis @ (basis.T @ c)) / nc
        worst = max(worst, res)
    return worst


def verify_axioms(G: FinitePQG, tol: float = 1e-10) -> AxiomReport:
    """Check the defining axioms by finite linear algebra.

    Structural sanity (associativity, star, homomorphism property of the
    coproduct) is reported alongside the named axioms; density conditions are
    column-span comparisons with a scaled singular-value cutoff.  Whether
    nonvanishing of the unit projections is an equivalence relation is
    reported as a separate fact, never inferred from the other checks.
    """
    d, n = G.dim, G.n_objects
    mult, cop, star, units = G.mult, G.coproduct, G.star, G.units
    checks = []
    add = lambda label, residual, detail="": checks.append(
        CheckResult(label, bool(residual <= tol), float(residual), detail)
    )

    assoc = np.einsum("ijx,xkl->ijkl", mult, mult) - np.einsum(
        "jkx,ixl->ijkl", mult, mult
    )
    add("assoc", np.abs(assoc).max())

    add("star_involution", np.abs(star @ star - np.eye(d)).max())
    # (e_i e_j)^* = e_j^* e_i^*
    lhs = np.einsum("ijk,kl->ijl", mult, star)
    rhs = np.einsum("ja,ib,abl->ijl", star, star, mult)
    add("star_antimult", np.abs(lhs - rhs).max())

    # Delta(e_i e_j) = Delta(e_i) Delta(e_j) with the componentwise product
    lhs = np.einsum("ijm,mab->ijab", mult, cop)
    rhs = np.einsum("ixy,jzw,xza,ywb->ijab", cop, cop, mult, mult, optimize=True)
    add("delta_multiplicative", np.abs(lhs - rhs).max())
    lhs = np.einsum("im,mab->iab", star, cop)
    rhs = np.einsum("ixy,xa,yb->iab", cop, star, star, optimize=True)
    add("delta_star", np.abs(lhs - rhs).max())

    # (U1): mutually orthogonal self-adjoint idempotents summing to the unit
    res = 0.0
    one = G.algebra_unit()
    for k in range(n):
        for l in range(n):
            u = units[k, l]
            res = max(res, np.abs(G.star_vec(u) - u).max(initial=0.0))
            res = max(res, np.abs(G.multiply(u, u) - u).max(initial=0.0))
            for k2 in range(n):
                for l2 in range(n):
                    if (k2, l2) != (k, l):
                        res = max(
                            res,
                            np.abs(G.multiply(u, units[k2, l2])).max(initial=0.0),
                        )
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        res = max(res, np.abs(G.multiply(e, one) - e).max())
        res = max(res, np.abs(G.multiply(one, e) - e).max())
    add("U1", res)

    res = 0.0
    for k in range(n):
        for l in range(n):
            target = np.einsum("mj,mk->jk", units[k], units[:, l])
            res = max(res, np.abs(G.delta(units[k, l]) - target).max())
    add("U2", res)

    coassoc = np.einsum("ijk,jab->iabk", cop, cop) - np.einsum(
        "iam,mbk->iabk", cop, cop
    )
    add("C", np.abs(coassoc).max())

    missing = [G.objects[k] for k in range(n) if not np.any(np.abs(units[k, k]) > ZERO_TOL)]
    checks.append(
        CheckResult(
            "U3",
            not missing,
            0.0 if not missing else 1.0,
            f"vanishing diagonal units at {missing}" if missing else "",
        )
    )

    # (D1): (A (x) A) Delta(1) = span (A (x) 1) Delta(A) = span (1 (x) A) Delta(A)
    delta_one = sum(
        np.einsum("j,k->jk", units[k, m], units[m, l])
        for k in range(n)
        for m in range(n)
        for l in range(n)
    )
    left_cols = np.einsum(
        "xy,axu,byv->uvab", delta_one, mult, mult, optimize=True
    ).reshape(d * d, d * d)
    mid_cols = np.einsum("ijk,aju->ukai", cop, mult, optimize=True).reshape(d * d, d * d)
    right_cols = np.einsum("ijk,bkv->jvbi", cop, mult, optimize=True).reshape(d * d, d * d)
    b_left = _orth_basis(left_cols)
    b_mid = _orth_basis(mid_cols)
    b_right = _orth_basis(right_cols)
    res = max(
        _span_containment(left_cols, b_mid),
        _span_containment(mid_cols, b_left),
        _span_containment(left_cols, b_right),
        _span_containment(right_cols, b_left),
    )
    add("D1", res, f"ranks {b_left.shape[1]}/{b_mid.shape[1]}/{b_right.shape[1]}")

    # (D2): slices of Delta(P A P) span A in either leg
    P = sum(units[k, k] for k in range(n))
    pmat = G.right_mult_matrix(P) @ G.left_mult_matrix(P)
    detail = ""
    ranks = []
    for leg in (0, 1):
        cols = []
        for i in range(d):
            m = G.delta(pmat @ np.eye(d)[i])
            cols.append(m if leg == 1 else m.T)
        stacked = np.concatenate(cols, axis=0).T  # columns are slice vectors
        basis = _orth_basis(stacked)
        ranks.append(basis.shape[1])
    full = all(r == d for r in ranks)
    if not full:
        # witness: basis direction orthogonal to the achieved span
        witness = []
        for leg in (0, 1):
            cols = np.concatenate(
                [
                    (G.delta(pmat @ np.eye(d)[i]).T if leg == 0 else G.delta(pmat @ np.eye(d)[i]))
                    for i in range(d)
                ],
                axis=0,
            ).T
            basis = _orth_basis(cols)
            if basis.shape[1] < d:
                gap = np.eye(d) - basis @ basis.T
                j = int(np.argmax(np.diag(gap)))
                witness.append(G.basis[j])
        detail = f"span ranks {ranks} < dim {d}, missing directions {witness}"
    checks.append(CheckResult("D2", full, 0.0 if full else float(d - min(ranks)), detail))

    # Lemma-level fact, reported independently of (D2)
    nz = np.linalg.norm(units, axis=2) > ZERO_TOL
    reflexive = all(nz[k, k] for k in range(n))
    symmetric = bool(np.all(nz == nz.T))
    transitive = bool(np.all(~((nz @ nz) > 0) | nz))
    ok = reflexive and symmetric and transitive
    checks.append(
        CheckResult(
            "unit_equivalence_relation",
            ok,
            0.0 if ok else 1.0,
            "" if ok else f"reflexive={reflexive} symmetric={symmetric} transitive={transitive}",
        )
    )

    return AxiomReport(checks=tuple(checks))


# -- graded functionals and convolution ---------------------------------------


@dataclass(frozen=True)
class GradedFunctional:
    """Functional omega(e_i) = vector[i] supported on 1^k_m A 1^l_n."""

    vector: np.ndarray
    grading: tuple[int, int, int, int]

    def __call__(self, a: np.ndarray) -> float:
        return float(self.vector @ a)

    def is_zero(self, tol: float = ZERO_TOL) -> bool:
        return bool(np.abs(self.vector).max(initial=0.0) <= tol)

    @classmethod
    def graded(cls, G: FinitePQG, vector: np.ndarray, grading) -> "GradedFunctional":
        """Project a raw dual vector onto the grading's support block."""
        return cls(vector=G.corner_vector(np.asarray(vector, dtype=float), grading), grading=tuple(grading))

    def support_residual(self, G: FinitePQG) -> float:
        return float(np.abs(self.vector - G.corner_vector(self.vector, self.grading)).max(initial=0.0))


def convolve(G: FinitePQG, chi: GradedFunctional, omega: GradedFunctional) -> GradedFunctional:
    """(chi * omega)(a) = (chi (x) omega) Delta(a).

    The output grading follows the middle-matching rule; when the middle
    indices disagree the computed vector is zero for any properly graded
    inputs on a well-formed instance.
    """
    vec = np.einsum("ijk,j,k->i", G.coproduct, chi.vector, omega.vector)
    k, _, l, _ = chi.grading
    _, p, _, q = omega.grading
    return GradedFunctional(vector=vec, grading=(k, p, l, q))


def _corner_trace(G: FinitePQG, k: int, m: int) -> GradedFunctional:
    """Normalized left-regular trace restricted to the (k, m) corner."""
    u = G.units[k, m]
    if not np.any(np.abs(u) > ZERO_TOL):
        return GradedFunctional(vector=np.zeros(G.dim), grading=(k, m, k, m))
    tr = G.trace_vector()
    vec = G.corner_vector(tr, (k, m, k, m))
    norm = vec @ u
    if norm <= ZERO_TOL:
        raise ValueError(f"corner trace is degenerate at ({k}, {m})")
    return GradedFunctional(vector=vec / norm, grading=(k, m, k, m))


# -- Haar families -------------------------------------------------------------


@dataclass(frozen=True)
class HaarFamily:
    """States phi_{km}, one per object pair, zero where the unit vanishes."""

    states: dict
    diagnostics: dict = field(default_factory=dict, compare=False)

    def phi(self, k: int, m: int) -> GradedFunctional:
        return self.states[(k, m)]

    def to_json_dict(self) -> dict:
        return {
            "states": {
                f"{k}|{m}": [float(x) for x in f.vector]
                for (k, m), f in sorted(self.states.items())
            },
            "diagnostics": self.diagnostics,
        }


def _corner_dual_basis(G: FinitePQG, grading) -> list:
    """Spanning functionals of the graded block, from the dual basis."""
    out = []
    for j in range(G.dim):
        e = np.zeros(G.dim)
        e[j] = 1.0
        f = GradedFunctional.graded(G, e, grading)
        if not f.is_zero():
            out.append(f)
    return out


def _corner_invariance_residual(G: FinitePQG, k: int, h: GradedFunctional) -> float:
    """Two-sided invariance defect of h against the corner's spanning set."""
    u = G.units[k, k]
    worst = 0.0
    for chi in _corner_dual_basis(G, (k, k, k, k)):
        left = convolve(G, chi, h).vector - chi(u) * h.vector
        right = convolve(G, h, chi).vector - chi(u) * h.vector
        worst = max(worst, np.abs(left).max(initial=0.0), np.abs(right).max(initial=0.0))
    return worst


def haar_cesaro(
    G: FinitePQG,
    seed_states: Optional[dict] = None,
    iterations: int = 100_000,
    tol: float = 1e-10,
    window: int = 64,
) -> HaarFamily:
    """Invariant family by Cesaro averaging of iterated convolutions.

    Per diagonal corner, averages convolution powers of the seed state over a
    window and restarts from the average (again a corner state) until the
    corner invariance residual drops below `tol` or the convolution budget is
    spent.  Off-diagonal states are corner-trace transports of the diagonal
    ones.  Non-convergence is reported in `diagnostics`, not raised.
    """
    n = G.n_objects
    diagnostics = {}
    diag = {}
    for k in range(n):
        seed = seed_states[k] if seed_states is not None else _corner_trace(G, k, k)
        if seed.grading != (k, k, k, k):
            raise ValueError(f"seed state for corner {k} has grading {seed.grading}")
        if seed.support_residual(G) > 1e-12:
            raise ValueError(f"seed state for corner {k} is not corner-supported")
        h = seed
        used = 0
        trace = [float(_corner_invariance_residual(G, k, h))]
        while trace[-1] > tol and used < iterations:
            acc = np.zeros(G.dim)
            cur = h
            for _ in range(min(window, iterations - used)):
                acc += cur.vector
                cur = convolve(G, cur, h)
                used += 1
            norm = acc @ G.units[k, k]
            if norm <= ZERO_TOL:
                break  # averaged mass collapsed; leave the last iterate and report
            h = GradedFunctional(vector=acc / norm, grading=h.grading)
            trace.append(float(_corner_invariance_residual(G, k, h)))
        diag[k] = h
        diagnostics[k] = {
            "iterations": used,
            "residual": trace[-1],
            "residual_trace": trace,
            "converged": trace[-1] <= tol,
        }
    states = {}
    for r in range(n):
        for m in range(n):
            if r == m:
                states[(r, m)] = diag[r]
            elif np.any(np.abs(G.units[r, m]) > ZERO_TOL):
                theta = _corner_trace(G, r, m)
                states[(r, m)] = convolve(G, theta, diag[m])
            else:
                states[(r, m)] = GradedFunctional(
                    vector=np.zeros(G.dim), grading=(r, m, r, m)
                )
    return HaarFamily(states=states, diagnostics={"corners": diagnostics, "method": "cesaro"})


def haar_linear_solve(G: FinitePQG, side: str = "both", tol: float = 1e-10) -> HaarFamily:
    """Invariant family as the solution of the invariance equations.

    Unknowns are the corner-supported coefficients of each phi_{km} with the
    unit normalization appended; `side` selects which invariance equations
    enter ("left", "right", or "both").  Diagnostics report the system rank,
    solvability, and uniqueness.
    """
    if side not in ("left", "right", "both"):
        raise ValueError("side must be left, right, or both")
    n, d = G.n_objects, G.dim
    nonzero = [
        (k, m)
        for k in range(n)
        for m in range(n)
        if np.any(np.abs(G.units[k, m]) > ZERO_TOL)
    ]
    corner_basis = {}
    offsets = {}
    total = 0
    for km in nonzero:
        k, m = km
        cols = np.stack(
            [G.corner_vector(e, (k, m, k, m)) for e in np.eye(d)], axis=1
        )
        basis = _orth_basis(cols)
        corner_basis[km] = basis
        offsets[km] = total
        total += basis.shape[1]

    def phi_vec(x, km):
        if km not in corner_basis:
            return np.zeros(d)
        b = corner_basis[km]
        return b @ x[offsets[km] : offsets[km] + b.shape[1]]

    rows, rhs = [], []

    def add_row(coeffs: dict, b: float):
        # coeffs: {(k, m): dual vector applied to phi_{km}}
        row = np.zeros(total)
        for km, dual in coeffs.items():
            if km in corner_basis:
                bmat = corner_basis[km]
                row[offsets[km] : offsets[km] + bmat.shape[1]] = dual @ bmat
        rows.append(row)
        rhs.append(b)

    for k in range(n):
        for l in range(n):
            for i in range(d):
                if side in ("left", "both"):
                    # (id (x) phi_kl) Delta(e_i) = sum_m phi_ml(e_i) 1^m_k
                    for j in range(d):
                        coeffs = {(k, l): G.coproduct[i, j, :].copy()}
                        for m in range(n):
                            e = np.zeros(d)
                            e[i] = 1.0
                            prev = coeffs.get((m, l), np.zeros(d))
                            coeffs[(m, l)] = prev - G.units[m, k, j] * e
                        add_row(coeffs, 0.0)
                if side in ("right", "both"):
                    for j in range(d):
                        coeffs = {(k, l): G.coproduct[i, :, j].copy()}
                        for m in range(n):
                            e = np.zeros(d)
                            e[i] = 1.0
                            prev = coeffs.get((k, m), np.zeros(d))
                            coeffs[(k, m)] = prev - G.units[l, m, j] * e
                        add_row(coeffs, 0.0)
    for km in nonzero:
        add_row({km: G.units[km[0], km[1]]}, 1.0)

    M = np.stack(rows, axis=0)
    b = np.asarray(rhs)
    x, _, rank, _ = np.linalg.lstsq(M, b, rcond=RANK_CUTOFF)
    residual = float(np.abs(M @ x - b).max(initial=0.0))
    unique = rank == total
    states = {}
    for k in range(n):
        for m in range(n):
            states[(k, m)] = GradedFunctional(
                vector=phi_vec(x, (k, m)), grading=(k, m, k, m)
            )
    return HaarFamily(
        states=states,
        diagnostics={
            "method": "linear_solve",
            "side": side,
            "rank": int(rank),
            "n_unknowns": int(total),
            "residual": residual,
            "solvable": residual <= tol,
            "unique": bool(unique),
        },
    )


def haar_residuals(G: FinitePQG, fam: HaarFamily, tol: float = 1e-10) -> list:
    """Defects of a candidate family: normalization, support, both invariances."""
    n, d = G.n_objects, G.dim
    out = []

    res = 0.0
    for k in range(n):
        for m in range(n):
            u = G.units[k, m]
            phi = fam.phi(k, m)
            if np.any(np.abs(u) > ZERO_TOL):
                res = max(res, abs(phi(u) - 1.0))
            else:
                res = max(res, np.abs(phi.vector).max(initial=0.0))
    out.append(CheckResult("I1", res <= tol, float(res)))

    res = max(fam.phi(k, m).support_residual(G) for k in range(n) for m in range(n))
    out.append(CheckResult("support", res <= tol, float(res)))

    res_l = res_r = 0.0
    for k in range(n):
        for l in range(n):
            phi = fam.phi(k, l)
            for i in range(d):
                lhs = G.coproduct[i] @ phi.vector  # vector over the first leg
                rhs = sum(fam.phi(m, l).vector[i] * G.units[m, k] for m in range(n))
                res_l = max(res_l, np.abs(lhs - rhs).max(initial=0.0))
                lhs = G.coproduct[i].T @ phi.vector
                rhs = sum(fam.phi(k, m).vector[i] * G.units[l, m] for m in range(n))
                res_r = max(res_r, np.abs(lhs - rhs).max(initial=0.0))
    out.append(CheckResult("invariance_left", res_l <= tol, float(res_l)))
    out.append(CheckResult("invariance_right", res_r <= tol, float(res_r)))
    return out


def uniform_haar_oracle(G: FinitePQG, gpd: FiniteGroupoid) -> HaarFamily:
    """Uniform measures on the arrow sets; the Haar family of a function algebra."""
    if G.basis != gpd.arrows:
        raise ValueError("instance basis does not enumerate the groupoid arrows")
    idx = {g: i for i, g in enumerate(gpd.arrows)}
    states = {}
    for k, ko in enumerate(gpd.objects):
        for m, mo in enumerate(gpd.objects):
            vec = np.zeros(G.dim)
            hom = gpd.hom(ko, mo)
            for g in hom:
                vec[idx[g]] = 1.0 / len(hom)
            states[(k, m)] = GradedFunctional(vector=vec, grading=(k, m, k, m))
    return HaarFamily(states=states, diagnostics={"method": "uniform_oracle"})
