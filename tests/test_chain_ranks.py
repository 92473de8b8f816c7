"""The certified rank engine on complexes whose homology is known.

Each complex is a Koszul or cubical torus plus summands R --u--> R, hidden
by random elementary basis changes with +-monomial factors. Over a class or
polytope whose quotient kills exactly the coordinates V, the torus is
acyclic (some t_j stays nontrivial), and a summand adds one cycle in each of
its two degrees exactly when u = t_i - 1 with i in V. Summands of that kind
leave homology behind, so the chain certificate cannot close there and the
exact fallback has to run.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from polynov import groupring
from polynov.complexes import EquivariantComplex, ingest
from polynov.groupring import (
    CoefficientRing,
    GroupRingElement,
    chain_ranks,
    matrix_rank_fraction_field,
)
from polynov.homology import novikov_betti, polytope_betti
from polynov.lattice import CohomologyClass, Polytope, quotient_map
from polynov.twist import twisted_complex
from test_groupring import bareiss

Q = CoefficientRing.RAT
Z = CoefficientRing.INT
Z2 = CoefficientRing.MOD2


def circle(ring, n, i, m):
    """Circle i of T^n cut into m edges; edge m - 1 ends at t_i * v0. With
    m = 1 this is the Koszul factor R --(t_i - 1)--> R."""
    one = GroupRingElement.one(ring, n)
    t = GroupRingElement.monomial(ring, n, tuple(int(x == i) for x in range(n)))
    faces = {}
    for j in range(m):
        head = {("v", (j + 1) % m): t if j == m - 1 else one}
        tail = {("v", j): -one}
        face = {}
        for part in (head, tail):
            for cell, c in part.items():
                face[cell] = face.get(cell, GroupRingElement.zero(ring, n)) + c
        faces[("e", j)] = face
    return faces


def torus(ring, n, m):
    """Tensor product of the n circles: cells are tuples of circle cells,
    d(a x b) = da x b + (-1)^|a| a x db."""
    circles = [circle(ring, n, i, m) for i in range(n)]
    cells = [[] for _ in range(n + 1)]
    parts = [("v", j) for j in range(m)] + [("e", j) for j in range(m)]
    for cell in itertools.product(parts, repeat=n):
        cells[sum(c[0] == "e" for c in cell)].append(cell)
    mats = []
    for k in range(1, n + 1):
        row_of = {c: r for r, c in enumerate(cells[k - 1])}
        zero = GroupRingElement.zero(ring, n)
        matrix = [[zero] * len(cells[k]) for _ in cells[k - 1]]
        for col, cell in enumerate(cells[k]):
            sign = 1
            for p, part in enumerate(cell):
                if part[0] == "e":
                    for face, c in circles[p][part].items():
                        r = row_of[cell[:p] + (face,) + cell[p + 1:]]
                        matrix[r][col] = matrix[r][col] + (c if sign > 0 else -c)
                    sign = -sign
        mats.append(matrix)
    return [len(d) for d in cells], mats


def add_cell(counts, mats, degree, ring, rank):
    zero = GroupRingElement.zero(ring, rank)
    if degree < len(mats):
        mats[degree].append([zero] * counts[degree + 1])
    if degree >= 1:
        for row in mats[degree - 1]:
            row.append(zero)
    counts[degree] += 1
    return counts[degree] - 1


def hidden_complex(rng, ring, base, n, summands, edges=2):
    """`summands` lists (degree k, u): new cells a in degree k + 1 and b in
    degree k with d(a) = u * b, on Koszul T^n or on the cubical torus with
    `edges` edges per circle. Then +-monomial elementary basis changes:
    column b of the boundary leaving a degree gains g * column a, and row a
    of the boundary entering it loses g * row b."""
    counts, mats = torus(ring, n, 1 if base == "koszul" else edges)
    for k, u in summands:
        a = add_cell(counts, mats, k + 1, ring, n)
        b = add_cell(counts, mats, k, ring, n)
        mats[k][b][a] = u
    for _ in range(12):
        d = rng.randrange(len(counts))
        if counts[d] < 2:
            continue
        a, b = rng.sample(range(counts[d]), 2)
        exp = tuple(rng.randint(-1, 1) for _ in range(n))
        g = GroupRingElement.monomial(ring, n, exp, rng.choice((1, -1)))
        if d >= 1:
            for row in mats[d - 1]:
                row[b] = row[b] + g * row[a]
        if d < len(mats):
            mats[d][a] = [x - g * y for x, y in zip(mats[d][a], mats[d][b])]
    return build(ring, n, counts, mats)


def build(ring, n, counts, mats):
    names = [[f"c{d}_{j}" for j in range(c)] for d, c in enumerate(counts)]
    return EquivariantComplex(ring, n, names, mats)


def expected_betti(n, summands, vanishing):
    betti = [comb(n, k) if len(vanishing) == n else 0 for k in range(n + 1)]
    for k, u in summands:
        coords = [i for i, e in enumerate(max(u.terms)) if e]
        if len(u.terms) == 2 and coords[0] in vanishing:
            betti[k] += 1
            betti[k + 1] += 1
    return tuple(betti)


def random_summands(rng, ring, n):
    out = []
    for s in range(3):
        k = rng.randrange(n)
        i = rng.randrange(n)
        t = GroupRingElement.monomial(ring, n, tuple(int(x == i) for x in range(n)))
        if s == 0:
            exp = tuple(rng.randint(-1, 1) for _ in range(n))
            u = GroupRingElement.monomial(ring, n, exp, rng.choice((1, -1)))
        else:
            u = t - GroupRingElement.one(ring, n)
        out.append((k, u))
    return out


def reference_ranks(Y):
    if Y.ring is Z:
        promote = [
            [[GroupRingElement(Q, e.rank, e.terms) for e in row] for row in m]
            for m in Y.boundaries
        ]
        return [bareiss(m) if m and m[0] else 0 for m in promote]
    return [bareiss(m) if m and m[0] else 0 for m in Y.boundaries]


@pytest.mark.parametrize("ring", [Q, Z, Z2])
def test_certified_ranks_match_the_construction_and_bareiss(ring, monkeypatch):
    rng = random.Random({Q: 3, Z: 5, Z2: 7}[ring])
    routes = set()
    evaluations = []
    for name in ("_evaluate_mod_p", "_evaluate_gf"):
        evaluate = getattr(groupring, name)
        monkeypatch.setattr(
            groupring, name,
            lambda *args, evaluate=evaluate: evaluations.append(1) or evaluate(*args),
        )
    for trial in range(8):
        base = "koszul" if trial % 2 == 0 else "cubical"
        n = 2 if base == "cubical" else rng.choice((2, 3))
        summands = random_summands(rng, ring, n)
        X = hidden_complex(rng, ring, base, n, summands)
        vanishing = set(rng.sample(range(n), rng.randint(0, n - 1)))
        periods = [0 if i in vanishing else rng.choice((1, 2, -1)) for i in range(n)]
        a = CohomologyClass(tuple(periods))
        vertices = [a, CohomologyClass(tuple(
            0 if i in vanishing else rng.choice((1, -2)) for i in range(n)
        ))]
        expect = expected_betti(n, summands, vanishing)
        for report, Y in (
            (novikov_betti(X, a), X.specialize(quotient_map([a]))),
            (polytope_betti(X, Polytope(vertices), seed=trial),
             twisted_complex(X, Polytope(vertices)).base),
        ):
            assert report.betti == expect
            assert report.checks["rank_exact"] is True
            assert report.method == "fraction-field exact"
            evaluations.clear()
            results = chain_ranks(Y, seed=trial)
            assert [r.rank for r in results] == reference_ranks(Y)
            # one evaluation per boundary with deck variables and cells on
            # both sides, the fallback reusing its rank at the point
            assert len(evaluations) == sum(
                1 for k, band in enumerate(Y.columns)
                if Y.deck.rank and band and Y.cells[k]
            )
            routes.update(r.method for r in results)
    assert {"modular", "fraction-free"} <= routes


def test_chain_bound_certifies_what_a_lone_matrix_cannot():
    # Koszul T^3 over Q[Z^3]: d2 is 3x3 of rank 2, which alone proves only
    # rank >= 2; with rank d1 = 1 and n_1 = 3 the chain bound pins it
    counts, mats = torus(Q, 3, 1)
    assert matrix_rank_fraction_field(mats[1]) == (2, True, "fraction-free")
    assert chain_ranks(build(Q, 3, counts, mats)) == [
        (1, True, "modular"), (2, True, "modular"), (1, True, "modular"),
    ]
    # the zero map t -> 1 leaves nothing to certify: elimination decides;
    # a constant zero map is exact at once, and a degree with no cells
    # leaves both of its boundaries empty
    for rank, route in ((1, "fraction-free"), (0, "constant")):
        zero = GroupRingElement.zero(Q, rank)
        X = EquivariantComplex(Q, rank, [["v"], ["e", "f"]], [[[zero, zero]]])
        assert chain_ranks(X) == [(0, True, route)]
    X = EquivariantComplex(Q, 1, [["v"], [], ["f"]], [[[]], []])
    assert chain_ranks(X) == [(0, True, "empty"), (0, True, "empty")]


def test_integral_rational_complex_builds_no_fraction(monkeypatch):
    # over Q with integral coefficients, parsing, the square-zero check,
    # specialization and the exact fallback all run on ints. Koszul T^3
    # plus a summand R --(t1 - 1)--> R, at a class that kills t1: the
    # summand leaves homology, so a rank there takes the fallback
    rng = random.Random(89)
    one = GroupRingElement.one(Q, 3)
    t1 = GroupRingElement.monomial(Q, 3, (1, 0, 0))
    document = hidden_complex(rng, Q, "koszul", 3, [(1, t1 - one)]).to_json()
    q = quotient_map([CohomologyClass((0, 1, 2))])
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    results = chain_ranks(ingest(document).specialize(q))
    monkeypatch.undo()
    assert built == []
    assert all(r.exact for r in results)
    assert "fraction-free" in {r.method for r in results}


@pytest.mark.parametrize("ring", [Q, Z])
def test_unit_pivots_leave_nothing_to_bareiss_on_cubical_t36(ring, monkeypatch):
    # ordinary homology of the 3-torus cut into 6^3 cubes (216/648/648/216
    # cells): every boundary is constant with entries +-1, and the unit
    # phase pivots on all of its rank, so Bareiss gets no rows
    counts, mats = torus(ring, 3, 6)
    X = build(ring, 3, counts, mats)
    bareiss_rows = []
    bareiss_rank = groupring._bareiss_rank

    def spy(rows, *args):
        bareiss_rows.append(len(rows))
        return bareiss_rank(rows, *args)

    monkeypatch.setattr(groupring, "_bareiss_rank", spy)
    zero = CohomologyClass((0, 0, 0))
    report = novikov_betti(X, zero)
    assert report.betti == (1, 3, 3, 1)
    assert report.checks["rank_exact"] is True
    assert report.method == "fraction-field exact"
    assert bareiss_rows == [0, 0, 0]
    # the report's ranks, on the same pushforward
    results = chain_ranks(X.specialize(quotient_map([zero])))
    assert results == [(215, True, "constant"), (430, True, "constant"), (215, True, "constant")]


@pytest.mark.parametrize("ring", [Q, Z])
def test_hidden_summand_on_cubical_t36_is_proved_exact(ring):
    # a hidden t1 - 1 summand on the 3-torus cut into 6^3 cubes, at a class
    # that kills t1: the middle boundary (649 x 649) leaves homology, so no
    # certificate closes; the unit phase leaves few rows, and Bareiss, whose
    # limit applies to the rows left, proves the rank
    one = GroupRingElement.one(ring, 3)
    t1 = GroupRingElement.monomial(ring, 3, (1, 0, 0))
    X = hidden_complex(random.Random(7), ring, "cubical", 3, [(1, t1 - one)], edges=6)
    report = novikov_betti(X, CohomologyClass((0, 1, 2)))
    assert report.betti == (0, 1, 1, 0)
    assert report.checks["rank_exact"] is True
    assert report.method == "fraction-field exact"
