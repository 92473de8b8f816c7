"""The three job streams, each with the answer every job must give.

A workload builds one *round*: a fixed mix of jobs whose composition does
not depend on the seed, so that two seeds cost about the same and the
failure share is a property of the program, not of the draw. The seed
varies what does not move the cost much: the cells' lifts, Morse seeds,
restrictions, the coefficient ring of each T^3 class, and the job order.
The runner replays the round, reshuffled, until the run is long enough.

Each job is the argv of one ``polynov`` call with ``--format json`` and the
answer known by construction.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from families import Summand, cubical, hidden, koszul, relabel


@dataclass(frozen=True)
class Job:
    label: str
    argv: tuple
    expect: object


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deadline: float
    build: object  # (seed, workdir) -> (warm-up Job, [Job] of one round)


def _write(workdir, name, instance):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(instance.complex.to_json(), fh)
    return path


# ---------------------------------------------------------------------------
# novikov-koszul


def _box(n):
    return [a for a in itertools.product((-1, 0, 1), repeat=n) if any(a)]


def _class_pool():
    """Every nonzero vector of the T^3 box {-1,0,1}^3, and for T^4 and T^5
    one vector per support size drawn once with a fixed design seed.

    The pool does not follow the run seed: the oracle's failures depend on
    the exact vector, and a seed-dependent pool made the share of jobs cut
    at the deadline (and with it jobs_per_s) swing by ~10% between seeds.
    """
    design = random.Random(0)
    pool = [(3, a) for a in _box(3)]
    for n in (4, 5):
        by_support = {}
        for a in _box(n):
            by_support.setdefault(sum(1 for x in a if x), []).append(a)
        pool += [(n, design.choice(by_support[s])) for s in sorted(by_support)]
    return pool


def _novikov_job(docs, n, ring, a):
    klass = ",".join(str(x) for x in a)
    return Job(
        f"novikov koszul-T{n} {ring}",
        ("novikov", docs[n, ring], f"--class={klass}", "--format", "json"),
        (0,) * (n + 1),
    )


def build_novikov_koszul(seed, workdir):
    rng = random.Random(seed)
    docs = {
        (n, ring): _write(workdir, f"koszul-T{n}-{ring}", koszul(n, ring))
        for n in (3, 4, 5)
        for ring in ("Q", "Z2")
    }
    pool = _class_pool()
    t3 = [a for n, a in pool if n == 3]
    rings = ["Q", "Z2"] * (len(t3) // 2)
    rng.shuffle(rings)
    jobs = [_novikov_job(docs, 3, r, a) for a, r in zip(t3, rings)]
    jobs += [
        _novikov_job(docs, n, ring, a)
        for n, a in pool
        if n > 3
        for ring in ("Q", "Z2")
    ]
    warmup = _novikov_job(docs, 3, "Q", (1, 2, 3))
    return warmup, jobs


# ---------------------------------------------------------------------------
# betti-cubical

# (n, m, subcommand, rings, copies): small tori in every subcommand and
# ring, then a thin tail of T^2,6 over Q, the smallest torus whose 72 edges
# take the evaluation rank route. The copies put p50 among the T^2,3 Z/2
# betti/morse jobs and p90 among the T^2,5 Z/2 ones, away from the jumps
# between sizes and rings (T^2,3 over Q costs ~25% more than over Z/2), where
# a percentile moves with every small change in speed.
# T^2,7 and T^3,3 are left out: their dense validate made the whole run
# swing by up to 35% between runs on a shared 2-core machine.
_CUBICAL_MIX = [
    (n, m, sub, ("Q", "Z2"), copies)
    for sub in ("validate", "betti", "morse")
    for n, m, copies in ((2, 2, 4), (2, 3, 4), (2, 4, 1), (3, 2, 1), (2, 5, 2))
] + [(2, 6, sub, ("Q",), 1) for sub in ("validate", "betti", "morse")]


def _torus_betti(n):
    return tuple(comb(n, k) for k in range(n + 1))


def build_betti_cubical(seed, workdir):
    rng = random.Random(seed)
    jobs = []
    for n, m, sub, rings, copies in _CUBICAL_MIX:
        for ring in rings:
            for copy in range(copies):
                inst = relabel(cubical(n, m, ring), rng)
                name = f"cubical-T{n},{m}-{ring}-{sub}-{copy}"
                argv = [sub, _write(workdir, name, inst), "--format", "json"]
                if sub == "validate":
                    expect = tuple(inst.complex.cell_counts())
                else:
                    expect = _torus_betti(n)
                if sub == "morse":
                    argv += ["--seed", str(rng.randrange(10**6))]
                jobs.append(Job(f"{sub} cubical-T{n},{m} {ring}", tuple(argv), expect))
    small = _write(workdir, "warmup", relabel(cubical(2, 2, "Q"), rng))
    warmup = Job("betti cubical-T2,2 Q", ("betti", small, "--format", "json"),
                 _torus_betti(2))
    return warmup, jobs


# ---------------------------------------------------------------------------
# polytope-hidden


def _rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _combine(vertices, weights):
    return [sum(w * v[i] for w, v in zip(weights, vertices))
            for i in range(len(vertices[0]))]


_WEIGHTS = {
    2: ([Fraction(1, 3), Fraction(2, 3)], [Fraction(3, 5), Fraction(2, 5)]),
    3: ([Fraction(1, 3)] * 3, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
}


def _polytope(n, vanishing, count, rng):
    """``count`` integer vertices spanning a rank-``count`` quotient that
    vanish together exactly on ``vanishing``, and whose two convex
    combinations (weights in _WEIGHTS) vanish there and nowhere else."""
    free = [i for i in range(n) if i not in vanishing]
    while True:
        vertices = [
            [rng.randint(-1, 1) if i in free else 0 for i in range(n)]
            for _ in range(count)
        ]
        if _rank(vertices) < count:
            continue
        if all(
            all(c != 0 for i, c in enumerate(_combine(vertices, w)) if i in free)
            for w in _WEIGHTS[count]
        ):
            return vertices


def _fmt(values):
    return ",".join(str(v) for v in values)


# (base, subcommand, vertices, vanishing coordinates, summands, term budget,
#  rings, copies); each copy is its own design draw
_HIDDEN_MIX = [
    ("koszul3", "polytope", 2, 1, 3, 600, ("Q", "Z2"), 3),
    ("koszul3", "polytope", 3, 0, 3, 400, ("Q", "Z2"), 2),
    ("koszul3", "main-check", 2, 1, 3, 300, ("Q", "Z2"), 2),
    ("koszul4", "polytope", 2, 2, 3, 800, ("Q", "Z2"), 2),
    ("koszul4", "polytope", 3, 1, 3, 500, ("Q", "Z2"), 1),
    ("koszul4", "main-check", 2, 1, 3, 400, ("Q", "Z2"), 1),
    ("cubical2,2", "polytope", 2, 0, 3, 150, ("Q", "Z2"), 2),
    ("cubical2,2", "main-check", 2, 0, 2, 100, ("Q", "Z2"), 1),
    ("cubical2,3", "polytope", 2, 0, 2, 250, ("Q", "Z2"), 1),
    ("cubical3,2", "polytope", 2, 1, 2, 200, ("Q", "Z2"), 1),
    ("cubical3,2", "main-check", 2, 1, 2, 150, ("Z2",), 1),
]


def _base(name, ring):
    if name.startswith("koszul"):
        return koszul(int(name[len("koszul"):]), ring)
    n, m = name[len("cubical"):].split(",")
    return cubical(int(n), int(m), ring)


def _hidden_job(workdir, index, spec, rng):
    """One hidden-structure job. The complex and polytope come from a fixed
    design seed per job; the run seed ``rng`` moves the cells' lifts and
    picks the restriction and the Morse seed."""
    base_name, ring, sub, count, n_vanish, n_summands, terms = spec
    design = random.Random(f"{index}:{spec}")
    base = _base(base_name, ring)
    n = base.rank
    vanishing = set(design.sample(range(n), n_vanish))
    free = [i for i in range(n) if i not in vanishing]
    top = len(base.complex.cells) - 1
    summands = []
    for s in range(n_summands):
        # alternate: +-monomial, t_i - 1 on a vanishing coordinate (adds
        # homology), t_i - 1 on a free one (acyclic)
        kind = s % 3
        if kind == 1 and vanishing:
            coordinate = design.choice(sorted(vanishing))
        elif kind == 2 or (kind == 1 and not vanishing):
            coordinate = design.choice(free)
        else:
            coordinate = None
        summands.append(Summand(design.randrange(top), coordinate))
    inst = relabel(hidden(base, summands, terms, design), rng)
    vertices = _polytope(n, vanishing, count, design)
    path = _write(workdir, f"hidden-{index}", inst)
    restrict = _fmt(sorted(rng.sample(range(count), rng.randint(1, count))))
    # flag=value form: argparse would read a leading "-" as another flag
    argv = [sub, path, "--vertices=" + ";".join(_fmt(v) for v in vertices),
            "--restrict=" + restrict, "--format", "json"]
    expect = inst.betti(vanishing)
    if sub == "main-check":
        a, b = _WEIGHTS[count]
        argv += ["--a=" + _fmt(a), "--b=" + _fmt(b), "--seed", str(rng.randrange(1000))]
        expect = (True, expect)
    label = f"{sub} hidden-{base_name} {ring} r{count}"
    return Job(label, tuple(argv), expect)


def build_polytope_hidden(seed, workdir):
    rng = random.Random(seed)
    specs = [
        (base, ring, sub, count, vanish, summands, terms)
        for base, sub, count, vanish, summands, terms, rings, copies in _HIDDEN_MIX
        for ring in rings
        for _ in range(copies)
    ]
    jobs = [_hidden_job(workdir, i, spec, rng) for i, spec in enumerate(specs)]
    warmup = _hidden_job(
        workdir, "warmup", ("koszul3", "Q", "polytope", 2, 0, 1, 20), rng
    )
    return warmup, jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "novikov-koszul",
            "novikov on Koszul T^3-T^5 over Q and Z/2: univariate fraction-free "
            "rank and the series oracle; validate is tiny, no twist or Morse",
            1.0,
            build_novikov_koszul,
        ),
        Workload(
            "betti-cubical",
            "validate/betti/morse on cubical tori T^2,2-T^2,6 and T^3,2: dense "
            "validate, evaluation rank above 64 cells, Morse; no oracle or twist",
            6.0,
            build_betti_cubical,
        ),
        Workload(
            "polytope-hidden",
            "polytope --restrict and main-check on conjugated complexes with "
            "hidden summands: multivariate rank on big entries, both twist routes",
            8.0,
            build_polytope_hidden,
        ),
    )
}
