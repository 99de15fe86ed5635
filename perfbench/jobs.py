"""Seeded workloads of pcqg CLI report jobs.

A job is one user-facing report: an argv for ``pcqg.cli.main`` plus the
exit code and verdict it must produce.  Each workload is a sequence of
rounds.  Every round has the same mix of job kinds and sizes; the seed and
the round index choose the parameters inside that mix (Casimir values,
suites, words, object names, arrow order).  A run executes whole
rounds, so throughput and percentiles compare like with like across seeds
and commits.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

# Relation counts of `dyn verify` per suite; a changed count is a changed verdict.
RELATION_COUNT = {"full": 22, "defining": 14}
# Oracle bound of the rewriter, the tolerance of acceptance criterion 8.
ORACLE_TOL = 1e-9
# (c, c2) oracle pairs of the rewriter workload: few, so jobs share bundles.
REDUCE_PAIRS = ((0.0, 1.3), (0.5, -0.7), (-1.2, 0.9))


@dataclass(frozen=True)
class Job:
    """One report invocation and the verdict it must produce."""

    argv: tuple
    code: int = 0
    fields: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return " ".join(self.argv[:2])


def spread_evenly(*groups: list) -> list:
    """The jobs of all groups, each group spread evenly over a fixed order.

    Jobs of one kind and size hold one percentile.  Spread over the round,
    they run at different moments, so that a slow spell of the machine
    lasting a second or two does not slow all of them at once.
    """
    keyed = [((i + 0.5) / len(g), k, job) for k, g in enumerate(groups) for i, job in enumerate(g)]
    return [job for _, _, job in sorted(keyed, key=lambda t: t[:2])]


def _c(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> str:
    """A Casimir value strictly inside (lo, hi), written with fixed digits."""
    while True:
        v = round(rng.uniform(lo, hi), 6)
        if lo < v < hi:
            return f"{v:.6f}"


# -- windowed_battery ----------------------------------------------------------


def _verify(rng, window):
    suite = rng.choice(("full", "defining"))
    argv = ("dyn", "verify", "--window", str(window), "--c", _c(rng), "--suite", suite)
    return Job(argv, fields={"relation_count": RELATION_COUNT[suite]})


def _dyn(rng, mode, window):
    return Job(("dyn", mode, "--window", str(window), "--c", _c(rng)))


def _coproduct(rng, half):
    return Job(("dyn", "coproduct", "--half", str(half), "--c", _c(rng), "--c2", _c(rng)))


def _irreps(rng, truncation):
    # inside (-2, 2) there are exactly two principal-series pairs at every c
    return Job((
        "irreps", "build", "--truncation", str(truncation),
        "--c", _c(rng, -1.9, 1.9), "--index", str(rng.randrange(2)),
    ))


def _cheap(rng):
    return [
        Job(("spectrum", "compare", "--grid", str(rng.randrange(100, 401)))),
        Job(("csets", "compare", "--c", _c(rng, -6.0, 2.0), "--window", "24")),
        Job(("uq", "verify", "--c", _c(rng, -6.0, 2.0))),
    ]


def windowed_round(rng: random.Random, workdir: str) -> list:
    # The repeated sizes put each percentile inside a group of jobs of about
    # the same cost, not in the gap between two sizes: the three window-13
    # verify jobs hold the median, the window-17 antipode and half-3
    # coproduct jobs hold p75.
    return spread_evenly(
        [_verify(rng, w) for w in (13, 13, 13, 17, 21, 25)],
        [_dyn(rng, "antipode", w) for w in (13, 17, 17)],
        [_coproduct(rng, h) for h in (2, 3, 3)],
        [_dyn(rng, "xsym", w) for w in (13, 17, 21)],
        [_irreps(rng, t) for t in (8, 10, 12)],
        _cheap(rng) + _cheap(rng),
    )


def windowed_warmup(workdir: str) -> list:
    rng = random.Random(0)
    return [
        _verify(rng, 13), _dyn(rng, "antipode", 13), _coproduct(rng, 2),
        _dyn(rng, "xsym", 13), _irreps(rng, 8), *_cheap(rng),
    ]


# -- rewriter_oracle -----------------------------------------------------------


def _reduce(rng, length, stars):
    starred = set(rng.sample(range(length), stars))
    word = "".join(rng.choice("abgd") + ("'" if i in starred else "") for i in range(length))
    c, c2 = rng.choice(REDUCE_PAIRS)
    argv = ("dyn", "reduce", "--word", word, "--window", "13", "--c", str(c), "--c2", str(c2))
    return Job(argv, fields={"idempotent": True})


def rewriter_round(rng: random.Random, workdir: str) -> list:
    # the cost of a word grows with its length and its number of stars, so
    # both are fixed per round and only the letters and positions are drawn
    return spread_evenly(*(
        [_reduce(rng, length, (i * length + 2) // 4) for i in range(5)]
        for length in range(1, 7)
    ))


def rewriter_warmup(workdir: str) -> list:
    return [_reduce(random.Random(0), 2, 1)]


# -- finite_strand -------------------------------------------------------------

ZOO = ("pair2", "s3x2", "union_pair_z2", "union_z3_s3", "z2", "z3")


def _fd(mode, path, code=0, fields=None):
    return Job(("fdqg", mode, path), code=code, fields=fields or {})


def finite_round(rng: random.Random, workdir: str) -> list:
    # A fixed order keeps the heap state before the largest job, and so the
    # peak RSS, the same in every run; the seed acts through the input files.
    # The zoo jobs, which hold the median, are spread between the generated
    # ones, which take most of a round's time.
    fx = os.path.join(workdir, "fixtures")
    gen = os.path.join(workdir, "generated")
    zoo = [_fd("check", os.path.join(fx, "raum.json"), code=1, fields={"failed_axioms": ["D2"]})]
    for name in ZOO:
        groupoid = os.path.join(fx, f"{name}.groupoid.json")
        zoo += [
            _fd("check", os.path.join(fx, f"{name}_fn.json"), fields={"failed_axioms": []}),
            _fd("check", os.path.join(fx, f"{name}_alg.json"), fields={"failed_axioms": []}),
            _fd("haar", groupoid),
            _fd("haar", os.path.join(fx, f"{name}_alg.json")),
            _fd("reps", groupoid),
        ]
    generated = [
        _fd(mode, os.path.join(gen, f"{name}.groupoid.json"),
            fields={"failed_axioms": []} if mode == "check" else None)
        for name, modes in GENERATED
        for mode in modes
    ]
    return spread_evenly(zoo, generated)


def finite_warmup(workdir: str) -> list:
    path = os.path.join(workdir, "fixtures", "z2.groupoid.json")
    return [_fd("check", path, fields={"failed_axioms": []}), _fd("haar", path), _fd("reps", path)]


# Generated groupoids beyond the zoo, and the report modes run on each.
GENERATED = (
    ("pair4", ("check", "haar", "reps")),
    ("pair5", ("check", "haar", "reps")),
    ("pair6", ("check", "haar")),
    ("transitive2_s3", ("check", "haar", "reps")),
)


def write_finite_inputs(seed: int, workdir: str, cli_main) -> None:
    """The `fixtures generate` zoo, plus seed-relabelled generated groupoids.

    The seed picks the object names and the order of the arrow list, which
    fixes the order of the instance basis.
    """
    from pcqg.fdpcqg import pair_groupoid, symmetric_groupoid, transitive_groupoid

    code = cli_main(["fixtures", "generate", "--dir", os.path.join(workdir, "fixtures")])
    if code != 0:
        raise RuntimeError(f"fixtures generate exited {code}")
    rng = random.Random(f"finite-inputs:{seed}")
    names = ["".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3)) for _ in range(12)]
    names = list(dict.fromkeys(names))
    groupoids = {
        "pair4": pair_groupoid(names[:4]),
        "pair5": pair_groupoid(names[:5]),
        "pair6": pair_groupoid(names[:6]),
        "transitive2_s3": transitive_groupoid(names[:2], symmetric_groupoid(3)),
    }
    gen = os.path.join(workdir, "generated")
    os.makedirs(gen, exist_ok=True)
    for name, gpd in groupoids.items():
        data = gpd.to_json_dict()
        rng.shuffle(data["arrows"])
        with open(os.path.join(gen, f"{name}.groupoid.json"), "w") as fh:
            json.dump(data, fh)


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # (rng, workdir) -> list[Job]
    warmup: object  # workdir -> list[Job], one job per kind
    # Fixed tail percentile: the highest of 50/75/90/95/99 that left at least
    # ten jobs beyond it in a 25 s run at the commit that defined it.  Fixed,
    # so that commits of different speed report the same percentile.
    tail_pct: float
    write_inputs: object = None  # (seed, workdir, cli_main) -> None


WORKLOADS = {
    "windowed_battery": Workload("windowed_battery", windowed_round, windowed_warmup, 75),
    "rewriter_oracle": Workload("rewriter_oracle", rewriter_round, rewriter_warmup, 95),
    "finite_strand": Workload(
        "finite_strand", finite_round, finite_warmup, 90, write_finite_inputs
    ),
}


def round_jobs(workload: Workload, seed: int, index: int, workdir: str) -> list:
    """The jobs of one round; the same (seed, index) gives the same jobs."""
    return workload.make_round(random.Random(f"{workload.name}:{seed}:{index}"), workdir)
