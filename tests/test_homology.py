"""Betti reports, the series oracle, theorem checks, approximation families.

Frozen values were derived by hand before implementation: the circle and
torus by direct elimination over the one- and two-variable Laurent fields,
the Klein bottle over GF(2), the genus-2 surface from its Fox matrices.
The truncated-series oracle is additionally cross-checked against sympy's
symbolic rank over Q(t) on random one-band complexes, a fully independent
code path.
"""

import json
import random
from fractions import Fraction
from itertools import combinations, groupby
from pathlib import Path

import pytest
import sympy

from polynov import homology, lattice
from polynov.complexes import (
    EquivariantComplex,
    GroupPresentation,
    _betti_from_ranks,
    fox_boundary,
    ingest,
)
from polynov.errors import IncreaseOrder, InputError
from polynov.groupring import CoefficientRing, GroupRingElement
from polynov.homology import (
    ApproximationFamily,
    BettiReport,
    euler_characteristic,
    main_theorem_check,
    novikov_betti,
    ordinary_betti,
    polytope_betti,
    rational_approximation,
    truncated_homology_oracle,
)
from polynov.lattice import CohomologyClass, Polytope, Subpolytope, period_eval
from polynov.morse import morse_reduce
from polynov.novseries import (
    TruncatedNovikovSeries,
    Truncation,
    leading_unit_inverse,
)
from polynov.twist import twisted_complex

Q = CoefficientRing.RAT
Z = CoefficientRing.INT
Z2 = CoefficientRing.MOD2


def circle():
    return ingest({
        "coefficients": "Q", "rank": 1,
        "cells": [["v"], ["e"]],
        "boundaries": [[["t - 1"]]],
    })


def point():
    return ingest({
        "coefficients": "Q", "rank": 0,
        "cells": [["v"]],
        "boundaries": [],
    })


def torus():
    return ingest({
        "coefficients": "Q", "rank": 2,
        "cells": [["v"], ["e1", "e2"], ["f"]],
        "boundaries": [
            [["t1 - 1", "t2 - 1"]],
            [["1 - t2"], ["t1 - 1"]],
        ],
    })


def klein():
    return ingest({
        "coefficients": "Z2", "rank": 1,
        "cells": [["v"], ["e1", "e2"], ["f"]],
        "boundaries": [
            [["0", "t + 1"]],
            [["t + 1"], ["0"]],
        ],
    })


def koszul_t3():
    """Koszul complex of T^3: cells are subsets of {0, 1, 2}; dropping the
    p-th index i of a subset has incidence (-1)^p (t_i - 1)."""
    cells = [list(combinations(range(3), k)) for k in range(4)]
    zero = GroupRingElement.zero(Q, 3)
    one = GroupRingElement.one(Q, 3)
    boundaries = []
    for k in range(3):
        rows = {c: r for r, c in enumerate(cells[k])}
        matrix = [[zero] * len(cells[k + 1]) for _ in cells[k]]
        for j, cell in enumerate(cells[k + 1]):
            for p, i in enumerate(cell):
                t = GroupRingElement.monomial(Q, 3, tuple(int(x == i) for x in range(3)))
                matrix[rows[cell[:p] + cell[p + 1:]]][j] = t - one if p % 2 == 0 else one - t
        boundaries.append(matrix)
    return EquivariantComplex(Q, 3, [[str(c) for c in d] for d in cells], boundaries)


def genus2():
    pres = GroupPresentation(["a", "b", "c", "d"], ["abABcdCD"])
    return fox_boundary(pres, [[int(i == j) for j in range(4)] for i in range(4)])


# -- frozen catalog ------------------------------------------------------------


def test_point():
    assert ordinary_betti(point()).betti == (1,)
    assert euler_characteristic(point()) == 1


def test_circle_frozen():
    X = circle()
    assert ordinary_betti(X).betti == (1, 1)
    assert novikov_betti(X, (1,)).betti == (0, 0)
    assert novikov_betti(X, ("-3/2",)).betti == (0, 0)
    assert euler_characteristic(X) == 0


def test_torus_frozen():
    X = torus()
    assert ordinary_betti(X).betti == (1, 2, 1)
    for a in [(1, 0), (0, 1), (1, 1), (2, 3)]:
        assert novikov_betti(X, a).betti == (0, 0, 0)
    assert polytope_betti(X, Polytope([(1, 0), (0, 1)])).betti == (0, 0, 0)
    assert polytope_betti(X, Polytope([(0, 0)])).betti == (1, 2, 1)


def test_klein_frozen():
    X = klein()
    assert ordinary_betti(X).betti == (1, 2, 1)
    assert novikov_betti(X, (1,)).betti == (0, 0, 0)


def test_genus2_frozen():
    X = genus2()
    assert ordinary_betti(X).betti == (1, 4, 1)
    assert euler_characteristic(X) == -2
    for a in [(1, 0, 0, 0), (1, 1, 1, 1), (2, -1, 3, 5)]:
        assert novikov_betti(X, a).betti == (0, 2, 0)
    P = Polytope([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert polytope_betti(X, P).betti == (0, 2, 0)


def test_circle_two_vertex_polytope_restricted():
    X = circle()
    P = Polytope([(1,), (2,)])
    rep = polytope_betti(X, P, Subpolytope(P, (0,)))
    assert rep.betti == (0, 0)
    assert rep.ring["finiteness"] == [0]


# -- report shape and invariances -----------------------------------------------


def test_report_schema():
    rep = novikov_betti(torus(), (1, 1))
    doc = rep.to_json()
    assert set(doc) == {"betti", "chi", "ring", "method", "checks"}
    assert doc["method"] == "fraction-field exact"
    assert doc["checks"]["euler_consistent"]
    assert doc["checks"]["rank_exact"]
    assert rep.canonical() == rep.canonical()


def test_euler_identity_over_random_classes():
    rng = random.Random(3)
    for X in [circle(), torus(), klein(), genus2()]:
        chi = euler_characteristic(X)
        for _ in range(10):
            a = tuple(
                Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                for _ in range(X.deck.rank)
            )
            betti = novikov_betti(X, a).betti
            assert sum((-1) ** i * b for i, b in enumerate(betti)) == chi


def test_class_reports_are_ray_invariant():
    X = genus2()
    a = CohomologyClass((2, -1, 3, 5))
    base = novikov_betti(X, a).canonical()
    for r in (Fraction(1, 2), 3, Fraction(7, 5)):
        assert novikov_betti(X, a.scale(r)).canonical() == base


def test_polytope_reports_are_ray_invariant():
    X = torus()
    P = Polytope([(1, 0), (0, 1), (1, 1)])
    base = polytope_betti(X, P).canonical()
    for r in (Fraction(1, 2), 3):
        assert polytope_betti(X, P.scale(r)).canonical() == base


def test_restriction_only_moves_the_descriptor():
    X = torus()
    P = Polytope([(1, 0), (0, 1)])
    full = polytope_betti(X, P)
    restricted = polytope_betti(X, P, Subpolytope(P, (1,)))
    assert full.betti == restricted.betti
    assert full.ring["finiteness"] == [0, 1]
    assert restricted.ring["finiteness"] == [1]
    with pytest.raises(InputError):
        polytope_betti(X, P, [])


def test_reduction_preserves_reports():
    X = torus()
    P = Polytope([(1, 1)])
    T = twisted_complex(X, P)
    for seed in range(5):
        R, _ = morse_reduce(T.base, seed=seed)
        # the reduced complex lives over the quotient; compare against the
        # twisted complex's own report
        lifted = polytope_betti(T.base, T.polytope)
        reduced = polytope_betti(R, T.polytope)
        assert reduced.canonical() == lifted.canonical()


def test_integer_coefficients_promote():
    X = ingest({
        "coefficients": "Z", "rank": 1,
        "cells": [["v"], ["e"]],
        "boundaries": [[["t - 1"]]],
    })
    assert ordinary_betti(X).betti == (1, 1)
    assert novikov_betti(X, (1,)).betti == (0, 0)
    rep = truncated_homology_oracle(X, (1,), 16)
    assert rep.betti == (0, 0)


# -- truncated-series oracle -----------------------------------------------------


def sympy_rank_one_var(matrix):
    t = sympy.symbols("t")
    if not matrix or not matrix[0]:
        return 0
    rows = []
    for row in matrix:
        out = []
        for e in row:
            expr = sympy.Integer(0)
            for exp, c in e.sorted_terms():
                expr += sympy.Rational(c.numerator, c.denominator) * t ** exp[0]
            out.append(sympy.together(expr))
        rows.append(out)
    return sympy.Matrix(rows).rank()


def test_oracle_matches_catalog():
    cases = [
        (circle(), (1,), (0, 0)),
        (torus(), (1, 0), (0, 0, 0)),
        (torus(), (1, 1), (0, 0, 0)),
        (torus(), (2, 3), (0, 0, 0)),
        (klein(), (1,), (0, 0, 0)),
        (genus2(), (1, 1, 1, 1), (0, 2, 0)),
    ]
    for X, a, expected in cases:
        rep = truncated_homology_oracle(X, a, 16)
        assert rep.betti == expected
        assert rep.method == "truncated-oracle"
        assert rep.checks["stabilized"]
        assert max(rep.checks["orders"]) <= 32
        assert rep.betti == novikov_betti(X, a).betti


def test_oracle_zero_boundary_complex():
    X = ingest({
        "coefficients": "Q", "rank": 1,
        "cells": [["v", "w"], ["e"]],
        "boundaries": [[["0"], ["0"]]],
    })
    rep = truncated_homology_oracle(X, (1,), 16)
    assert rep.betti == (2, 1)
    assert rep.checks["boundary_ranks"] == [0]


def test_oracle_against_sympy_on_random_matrices():
    rng = random.Random(17)
    for trial in range(15):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        matrix = []
        for _ in range(m):
            row = []
            for _ in range(n):
                terms = {}
                for _ in range(rng.randrange(0, 4)):
                    k = rng.randrange(-3, 4)
                    c = rng.randrange(-2, 3)
                    if c:
                        terms[(k,)] = Fraction(c)
                row.append(GroupRingElement(Q, 1, terms))
            matrix.append(row)
        names = [[f"c{i}" for i in range(m)], [f"d{j}" for j in range(n)]]
        X = EquivariantComplex(Q, 1, names, [matrix])
        r = sympy_rank_one_var(matrix)
        rep = truncated_homology_oracle(X, (1,), 16)
        assert rep.checks["boundary_ranks"] == [r], f"trial {trial}"
        assert rep.betti == (m - r, n - r)
        assert rep.betti == novikov_betti(X, (1,)).betti


def test_oracle_pushes_nothing(monkeypatch):
    # the oracle reads heights off the complex as it is, so a fault on the
    # quotient path cannot reach both sides of the `novikov` cross-check
    calls = []

    def spy(owner, name, wrap=lambda f: f):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(recorded))

    spy(lattice, "quotient_map")
    spy(homology, "quotient_map")
    spy(lattice.LatticeMap, "images")
    spy(EquivariantComplex, "specialize")
    spy(GroupRingElement, "pushed_terms")
    spy(Truncation, "interior", wrap=lambda f: classmethod(lambda cls, *a: f(*a)))
    for X, a in ((torus(), (1, 2)), (genus2(), (1, 2, 0, -1)),
                 (koszul_t3(), (1, -1, -1)), (klein(), ("2/3",))):
        truncated_homology_oracle(X, a, 16)
    assert calls == []
    novikov_betti(torus(), (1, 2))
    Truncation.interior(Polytope([(1,)]), 4)
    assert {"quotient_map", "images", "specialize", "pushed_terms",
            "interior"} <= set(calls)


def kernel_difference_matrix(rng, ring, kernel):
    """A random one-band matrix over Z^3 whose entries hold differences
    t^x - t^(x + v), v in `kernel` (of a class), so that terms cancel
    on one height (and pairs of equal heights sum to 2 over Z/2)."""
    def element():
        terms = {}
        for _ in range(rng.randrange(3)):
            x = tuple(rng.randint(-2, 2) for _ in range(3))
            y = tuple(p + q for p, q in zip(x, rng.choice(kernel)))
            if x != y:
                terms[x] = 1
                terms[y] = 1 if ring is Z2 else -1
        for _ in range(rng.randrange(2)):
            terms[tuple(rng.randint(-2, 2) for _ in range(3))] = (
                1 if ring is Z2 else rng.choice((-2, 1, 3))
            )
        return GroupRingElement(ring, 3, terms)

    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    return [[element() for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("ring", [Q, Z2])
def test_oracle_sums_the_terms_on_one_height(ring):
    # t1 - t2 (t1 + t2 over Z/2) and t3 - 1 both vanish at (1,1,0)
    one = 1 if ring is Z2 else -1
    t = [GroupRingElement(ring, 3, {e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    diff = GroupRingElement(ring, 3, {(1, 0, 0): 1, (0, 1, 0): one})
    t3_minus_1 = GroupRingElement(ring, 3, {(0, 0, 0): one, (0, 0, 1): 1})
    matrix = [[diff, t3_minus_1], [diff + t[2], t[0]]]
    X = EquivariantComplex(ring, 3, [["c0", "c1"], ["d0", "d1"]], [matrix])
    rep = truncated_homology_oracle(X, (1, 1, 0), 16)
    assert rep.checks["boundary_ranks"] == [1]
    assert rep.betti == novikov_betti(X, (1, 1, 0)).betti == (1, 1)
    rng = random.Random(29)
    for a, kernel in (((1, 1, 0), [(1, -1, 0), (0, 0, 1)]),
                      ((2, -1, 1), [(1, 2, 0), (0, 1, 1)]),
                      (("1/2", "-1/3", 0), [(2, 3, 0), (0, 0, -1)])):
        for trial in range(12):
            matrix = kernel_difference_matrix(rng, ring, kernel)
            names = [[f"c{i}" for i in range(len(matrix))],
                     [f"d{j}" for j in range(len(matrix[0]))]]
            X = EquivariantComplex(ring, 3, names, [matrix])
            expected = novikov_betti(X, a).betti
            assert truncated_homology_oracle(X, a, 8).betti == expected, (a, trial)


def test_betti_from_ranks_sum_to_the_euler_characteristic_for_any_ranks():
    # so the oracle's stability test checks only that no Betti number is
    # negative, and reports euler_consistent as true
    rng = random.Random(23)
    for _ in range(2000):
        counts = [rng.randint(0, 9) for _ in range(rng.randint(1, 6))]
        ranks = [rng.randint(-9, 9) for _ in counts[1:]]
        betti = _betti_from_ranks(counts, ranks)
        assert sum((-1) ** i * b for i, b in enumerate(betti)) == sum(
            (-1) ** i * n for i, n in enumerate(counts)
        ), (counts, ranks)


def test_oracle_negative_direction():
    rep = truncated_homology_oracle(circle(), ("-2/3",), 16)
    assert rep.betti == (0, 0)


@pytest.mark.parametrize("a", [(-1, -1, -1), (1, -1, -1)])
def test_oracle_stabilizes_on_negative_period_rows(a, monkeypatch):
    # these classes put rows such as 1 - t^-1 into the window, which once
    # never stabilized
    monkeypatch.setattr(homology, "_MAX_DOUBLINGS", 3)
    rep = truncated_homology_oracle(koszul_t3(), a, order=4)
    assert rep.betti == (0, 0, 0, 0)


def reference_series_rank(matrix, region, order, ring):
    """The oracle's elimination on the public series arithmetic: rows moved
    to least period 0, minimal-period pivots first in row-major order,
    inverted by leading_unit_inverse, every result windowed. Returns the
    pivots in the order taken, each as (height, series, cleared): the
    integer height of its least term, the pivot as a {height: coefficient}
    dict shifted to height 0, and the number of rows it cleared; the
    number of pivots is the rank."""
    trunc = Truncation.interior(region, order)
    direction = trunc.direction
    (weight,) = trunc._weights
    work = []
    for row in matrix:
        support = [exp for e in row for exp in e.terms]
        if support:
            low = min(support, key=lambda exp: period_eval(direction, exp))
            unit = GroupRingElement.monomial(ring, 1, (-low[0],))
            row = [unit * e for e in row]
        work.append([TruncatedNovikovSeries(e, trunc) for e in row])
    zero = TruncatedNovikovSeries.zero(ring, trunc)
    nrows, ncols = len(work), len(work[0])
    row_free, col_free = [True] * nrows, [True] * ncols
    pivots = []
    while True:
        best = None
        for r in range(nrows):
            for c in range(ncols):
                if row_free[r] and col_free[c]:
                    p = work[r][c].min_period()
                    if p is not None and (best is None or p < best[0]):
                        best = (p, r, c)
        if best is None:
            return pivots
        _, pr, pc = best
        pinv = leading_unit_inverse(work[pr][pc], direction, trunc)
        cleared = 0
        for r in range(nrows):
            if r == pr or not row_free[r] or work[r][pc].is_zero():
                continue
            factor = work[r][pc] * pinv
            for c in range(ncols):
                if col_free[c]:
                    work[r][c] = work[r][c] - factor * work[pr][c]
            work[r][pc] = zero
            cleared += 1
        row_free[pr] = col_free[pc] = False
        p = {weight * e: c for (e,), c in work[pr][pc].element.terms.items()}
        h0 = min(p)
        pivots.append((h0, {h - h0: c for h, c in p.items()}, cleared))


def lifted_rows(matrix, weights, ring):
    """`homology._lift` of a dense one-band matrix, with heights weights . e."""
    columns = [
        {i: row[j] for i, row in enumerate(matrix) if row[j].terms}
        for j in range(len(matrix[0]))
    ]
    heights = {
        e: sum(w * x for w, x in zip(weights, e))
        for row in matrix for entry in row for e in entry.terms
    }
    return homology._lift(columns, len(matrix), heights, ring is Z2)


def series_rank(matrix, region, order, ring):
    """The rank `homology._series_rank` gives in the window of
    `Truncation.interior`."""
    trunc = Truncation.interior(region, order)
    rows = lifted_rows(matrix, trunc._weights, ring)
    return len(homology._series_rank(rows, trunc._cutoff, ring))


def record_quotients(monkeypatch):
    """Make `homology.height_quotient` record (x, p, cutoff, mod2, x / p)
    of each call in the returned list, p the dict that
    `homology.height_divisor` built the call's divisor from."""
    calls, divisors = [], {}
    divisor_, quotient = homology.height_divisor, homology.height_quotient

    def divisor_spy(p):
        divisor = divisor_(p)
        divisors[id(divisor)] = divisor, p  # holding divisor keeps its id
        return divisor

    def spy(x, divisor, cutoff, mod2):
        p = divisors[id(divisor)][1]
        calls.append((x, p, cutoff, mod2, quotient(x, divisor, cutoff, mod2)))
        return calls[-1][-1]

    monkeypatch.setattr(homology, "height_divisor", divisor_spy)
    monkeypatch.setattr(homology, "height_quotient", spy)
    return calls


def assert_divides(x, p, cutoff, mod2, q):
    """q times p is x in the window of `cutoff`."""
    product = homology.height_accumulate({}, q, sorted(p.items()), cutoff)
    window = {h: c for h, c in x.items() if h <= cutoff}
    assert homology._nonzero(product, mod2) == homology._nonzero(window, mod2)


def divisions(pivots):
    """The divisors of the reference's pivots, once per row each cleared."""
    return [p for _, p, cleared in pivots for _ in range(cleared)]


def random_dependent_matrix(rng, ring):
    """A few random Laurent rows in one variable, then rows that are
    Laurent combinations of them, shuffled."""
    def element(spread, size):
        terms = {}
        for _ in range(rng.randrange(size)):
            c = Fraction(rng.choice((-2, -1, 1, 1, 3)), rng.choice((1, 1, 2)))
            terms[(rng.randint(-spread, spread),)] = 1 if ring is Z2 else c
        return GroupRingElement(ring, 1, terms)

    ncols = rng.randint(1, 4)
    rows = [[element(5, 4) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(0, 2)):
        combo = [GroupRingElement.zero(ring, 1)] * ncols
        for row in rows:
            f = element(2, 3)
            combo = [x + f * e for x, e in zip(combo, row)]
        rows.append(combo)
    rng.shuffle(rows)
    return rows


def test_series_rank_matches_the_series_reference():
    rng = random.Random(41)
    classes = ("1", "-1", "2/3", "-3/2", "3")
    for ring in (Q, Z2):
        for trial in range(40):
            matrix = random_dependent_matrix(rng, ring)
            region = Polytope([(Fraction(rng.choice(classes)),)])
            # the reference is slow at long windows, so few matrices see them
            for order in (4, 5, 8, 16) + ((32, 64) if trial < 4 else ()):
                expected = reference_series_rank(matrix, region, order, ring)
                got = series_rank(matrix, region, order, ring)
                assert got == len(expected), (ring, region, order)


def random_sparse_matrix(rng, ring):
    """Up to 6 x 8 Laurent matrices in one variable over few exponents (with
    non-unit coefficients, fractional ones over Q), so
    that lowest heights tie, with zero entries, empty rows and columns,
    far monomials that leave the window and rows that are combinations
    of other rows."""
    zero = GroupRingElement.zero(ring, 1)

    def element(size):
        terms = {}
        for _ in range(rng.randint(1, size)):
            c = Fraction(rng.choice((-2, -1, 1, 1, 3)), rng.choice((1, 1, 2)))
            terms[(rng.randint(-2, 2),)] = (
                1 if ring is Z2 else c.numerator if ring is Z else c)
        if rng.random() < 0.1:
            terms[(rng.choice((-1, 1)) * rng.randint(20, 40),)] = 1
        return GroupRingElement(ring, 1, terms)

    ncols = rng.randint(1, 8)
    density = rng.choice((0.2, 0.5, 0.8))
    rows = [
        [element(3) if rng.random() < density else zero for _ in range(ncols)]
        for _ in range(rng.randint(1, 4))
    ]
    for _ in range(rng.randint(0, 2)):
        combo = [zero] * ncols
        for row in rows:
            f = element(2) if rng.random() < 0.7 else zero
            combo = [x + f * e for x, e in zip(combo, row)]
        rows.append(combo)
    if rng.random() < 0.3:
        rows.append([zero] * ncols)
    if rng.random() < 0.3:
        j = rng.randrange(ncols)
        rows = [[zero if k == j else e for k, e in enumerate(row)] for row in rows]
    rng.shuffle(rows)
    return rows


def test_series_rank_on_sparse_matrices_matches_the_series_reference(monkeypatch):
    # the pivot heights are the reference's, and each row is divided by
    # the reference's pivot that clears it, shifted to height 0
    quotients = record_quotients(monkeypatch)
    rng = random.Random(97)
    seen = dict.fromkeys(
        ("empty row", "empty column", "tie across rows", "tie across columns",
         "vanishes in the window"), 0)
    for ring in (Q, Z2):
        for trial in range(60):
            matrix = random_sparse_matrix(rng, ring)
            region = Polytope([(Fraction(rng.choice(("1", "-1", "2/3", "-3/2"))),)])
            for order in (3, 4, 8):
                trunc = Truncation.interior(region, order)
                rows = lifted_rows(matrix, trunc._weights, ring)
                lows = [
                    (min(x), i, j) for i, row in enumerate(rows)
                    for j, x in row.items() if min(x) <= trunc._cutoff
                ]
                first = [(i, j) for h, i, j in lows if h == min(lows)[0]] if lows else []
                seen["empty row"] += any(not any(e.terms for e in r) for r in matrix)
                seen["empty column"] += any(
                    not any(r[j].terms for r in matrix) for j in range(len(matrix[0])))
                seen["tie across rows"] += len({i for i, _ in first}) > 1
                seen["tie across columns"] += len({j for _, j in first}) > 1
                seen["vanishes in the window"] += len(lows) < sum(map(len, rows))
                quotients.clear()
                pivots = reference_series_rank(matrix, region, order, ring)
                got = homology._series_rank(rows, trunc._cutoff, ring)
                assert got == [h for h, _, _ in pivots], (ring, trial, order)
                assert [p for _, p, *_ in quotients] == divisions(pivots)
    assert min(seen.values()) >= 10, seen


def test_series_rank_builds_each_divisor_once_per_pivot(monkeypatch):
    # a pivot's lead inverse and unit part are built once, before it
    # clears its first row, and serve every row it clears
    builds, uses = [], []
    divisor_, quotient = homology.height_divisor, homology.height_quotient

    def divisor_spy(p):
        builds.append(divisor_(p))
        return builds[-1]

    def quotient_spy(x, divisor, cutoff, mod2):
        uses.append(id(divisor))
        return quotient(x, divisor, cutoff, mod2)

    monkeypatch.setattr(homology, "height_divisor", divisor_spy)
    monkeypatch.setattr(homology, "height_quotient", quotient_spy)
    rng = random.Random(53)
    shared = 0
    for ring in (Q, Z, Z2):
        for _ in range(40):
            rows = lifted_rows(random_sparse_matrix(rng, ring), (1,), ring)
            builds.clear()
            uses.clear()
            heights = homology._series_rank(rows, rng.randint(0, 20), ring)
            assert len(builds) <= len(heights)
            assert set(uses) <= {id(d) for d in builds}
            runs = [d for d, _ in groupby(uses)]
            assert len(runs) == len(set(runs))
            shared += len(uses) > len(runs)
    assert shared >= 10


def over_q(matrix):
    """A Z matrix as the Q matrix the oracle ranks it as."""
    return [[GroupRingElement(Q, 1, e.terms) for e in row] for row in matrix]


@pytest.mark.parametrize("ring", [Q, Z, Z2])
def test_one_run_gives_the_rank_of_every_smaller_window(monkeypatch, ring):
    # the rule the oracle's first elimination rests on: pivot heights never
    # decrease, and the pivots of height <= c of the run at cutoff C are
    # those the run at c takes (up to the window), so their count is the
    # rank at window c
    quotients = record_quotients(monkeypatch)
    rng = random.Random({Q: 131, Z: 137, Z2: 139}[ring])
    region = Polytope([(1,)])
    runs = 0
    for trial in range(12):
        matrix = random_sparse_matrix(rng, ring)
        reference = over_q(matrix) if ring is Z else matrix
        rows = lifted_rows(matrix, (1,), ring)
        cutoff = rng.randint(0, 40)
        quotients.clear()
        heights = homology._series_rank(rows, cutoff, ring)
        assert heights == sorted(heights)
        assert all(h <= cutoff for h in heights), (trial, cutoff, heights)
        # a division at window cutoff - h is by a pivot of height h
        divisors = [(p, cutoff - window) for _, p, window, *_ in quotients]
        for c in range(cutoff + 1):
            pivots = reference_series_rank(reference, region, c, Q if ring is Z else ring)
            assert [h for h in heights if h <= c] == [h for h, _, _ in pivots]
            taken = {
                frozenset((k, v) for k, v in p.items() if k <= c - h)
                for p, h in divisors if h <= c
            }
            assert taken <= {frozenset(p.items()) for _, p, _ in pivots}, (trial, c)
            runs += 1
        assert [p for p, _ in divisors] == divisions(pivots), (trial, cutoff)
    assert runs > 100


def series(x, ring=Q):
    """The one-variable element sum c t^e of a dict {e: c}."""
    return GroupRingElement(ring, 1, {(e,): c for e, c in x.items()})


@pytest.mark.parametrize("ring, first", [
    (Q, {0: 1, 1: Fraction(1, 2)}),  # a Fraction coefficient
    (Q, {0: 2, 1: -1}),  # a pivot lead of 2
    (Z, {0: -2, 2: 1}),  # a pivot lead of -2 over Z
])
def test_packing_declines_fractions_and_non_unit_leads(monkeypatch, ring, first):
    # the name is from the deleted packed encoding, which declined these
    # inputs; they are now checked against the series reference
    t_minus_1 = series({0: -1, 1: 1}, ring)
    matrix = [[series(first, ring), t_minus_1], [t_minus_1, series({0: 1}, ring)]]
    rows = lifted_rows(matrix, (1,), ring)
    quotients = record_quotients(monkeypatch)
    heights = homology._series_rank(rows, 16, ring)
    assert len(heights) == 2
    reference = over_q(matrix) if ring is Z else matrix
    for c in range(17):
        expected = reference_series_rank(reference, Polytope([(1,)]), c, Q)
        assert sum(h <= c for h in heights) == len(expected), c
    # the first division is by `first`, and every quotient times its
    # divisor is its numerator in the window
    assert quotients[0][1] == first
    for call in quotients:
        assert_divides(*call)


@pytest.mark.parametrize("big", [2**40 + 1, -(2**40) - 3, 2**70, -(2**90)])
def test_large_coefficients_take_the_expected_pivots(big):
    p, b, bt = series({0: 1, 1: -1}), series({0: big}), series({0: big, 1: 1})
    for matrix, expected in (([[p, b], [p, bt]], [0, 1]), ([[p, p], [bt, bt]], [0])):
        rows = lifted_rows(matrix, (1,), Q)
        heights = homology._series_rank(rows, 16, Q)
        assert heights == expected
        assert len(heights) == len(reference_series_rank(matrix, Polytope([(1,)]), 16, Q))


@pytest.mark.parametrize("ring", [Q, Z2])
def test_sparse_wide_windows_take_the_expected_pivots(monkeypatch, ring):
    # 1 - t^143 fills one height in 143 of the window, as in koszul3-Q at
    # the class (1/7, 1/11, 1/13), and its inverse is sum_k t^(143 k); t - 1
    # fills every height. The second row is (1 + t^5) times the first, so
    # it is cleared by the quotient -(1 + t^5): two terms in the window of
    # 16,017 heights, whatever the pivot's inverse fills
    one = 1 if ring is Z2 else -1
    quotients = record_quotients(monkeypatch)
    for gaps in ((143, 91), (1, 2)):
        first = [series({0: 1, g: one}, ring) for g in gaps]
        matrix = [first, [series({0: 1, 5: 1}, ring) * x for x in first]]
        rows = lifted_rows(matrix, (1,), ring)
        quotients.clear()
        assert homology._series_rank(rows, 16016, ring) == [0]
        [(_, divisor, cutoff, _, quotient)] = quotients
        assert divisor == {0: 1, gaps[0]: one} and cutoff == 16016
        assert quotient == {0: one, 5: one}


@pytest.mark.parametrize(
    "document, klass, order, orders, cutoffs",
    [
        # a = (15, 10, 6) / 30: the window of order N is height <= 30 N,
        # and the first elimination runs at that of order 2N
        pytest.param("hidden-Q", ("1/2", "1/3", "1/5"), 1, [1, 2, 4, 8],
                     {60, 120, 240}, id="hidden-Q"),
        pytest.param("koszul3-Q", (1, 1, 1), 16, [16, 32], {32}, id="koszul3-Q"),
        pytest.param("koszul3-Z2", (-1, -1, -1), 16, [16, 32], {32}, id="koszul3-Z2"),
    ],
)
def test_oracle_lifts_each_boundary_once_and_divides_by_its_pivots(
    monkeypatch, document, klass, order, orders, cutoffs
):
    # each stored term is lifted once per call, from the stored columns,
    # whatever the number of orders; each boundary is eliminated once for
    # each order after the first; every quotient is by a pivot shifted to
    # height 0, and times it gives back its numerator in the window
    path = Path(__file__).parent / "golden" / f"{document}.json"
    X = ingest(json.loads(path.read_text()))
    lifted, lookups, windows, pivots = [], [], [], []

    class CountingHeights(dict):
        def __getitem__(self, e):
            lookups.append(e)
            return dict.__getitem__(self, e)

    lift, series_rank_ = homology._lift, homology._series_rank

    def lift_spy(band, nrows, heights, mod2):
        lifted.append(band)
        return lift(band, nrows, CountingHeights(heights), mod2)

    def rank_spy(rows, cutoff, ring):
        windows.append(cutoff)
        pivots.append(series_rank_(rows, cutoff, ring))
        return pivots[-1]

    def no_dense_view(self):
        raise AssertionError("the dense boundaries view was built")

    monkeypatch.setattr(homology, "_lift", lift_spy)
    monkeypatch.setattr(homology, "_series_rank", rank_spy)
    monkeypatch.setattr(EquivariantComplex, "boundaries", property(no_dense_view))
    quotients = record_quotients(monkeypatch)
    report = truncated_homology_oracle(X, klass, order)
    assert report.checks["orders"] == orders
    assert [id(b) for b in lifted] == [id(b) for b in X.columns]
    terms = [e for band in X.columns for column in band
             for x in column.values() for e in x.terms]
    assert sorted(lookups) == sorted(terms)
    assert len(windows) == (len(orders) - 1) * len(X.columns)
    assert set(windows) == cutoffs
    assert all(p == sorted(p) for p in pivots)
    assert quotients
    for x, p, cutoff, mod2, q in quotients:
        assert min(p) == 0 and min(x) >= 0 and cutoff <= max(cutoffs)
        assert mod2 == (X.ring is Z2)
        assert_divides(x, p, cutoff, mod2, q)


@pytest.mark.parametrize("document", ["koszul3-Q", "koszul3-Z2", "hidden-Q"])
def test_a_two_order_run_eliminates_each_boundary_once_at_the_doubled_window(
    monkeypatch, document
):
    # the ranks of order N are the pivots of height <= N of the run at 2N
    path = Path(__file__).parent / "golden" / f"{document}.json"
    X = ingest(json.loads(path.read_text()))
    calls = []
    series_rank_ = homology._series_rank

    def rank_spy(rows, cutoff, ring):
        calls.append((id(rows), cutoff))
        return series_rank_(rows, cutoff, ring)

    monkeypatch.setattr(homology, "_series_rank", rank_spy)
    report = truncated_homology_oracle(X, (1, 1, 1), 16)
    assert report.checks["orders"] == [16, 32]
    assert [cutoff for _, cutoff in calls] == [32] * len(X.columns)
    assert len({rows for rows, _ in calls}) == len(X.columns)


@pytest.mark.parametrize("cap", [2, 3, 4])
def test_the_doubling_cap_bounds_the_orders_and_their_windows(monkeypatch, cap):
    # hidden-Q at (1/2, 1/3, 1/5) from order 1 stabilizes at orders
    # [1, 2, 4, 8], whose windows are heights <= 30 N; order N's ranks come
    # from the elimination at order 2N's window, so a cap of k orders
    # eliminates each boundary at the windows of orders 2, ..., 2^(k-1)
    path = Path(__file__).parent / "golden" / "hidden-Q.json"
    X = ingest(json.loads(path.read_text()))
    cutoffs = []
    series_rank_ = homology._series_rank

    def rank_spy(rows, cutoff, ring):
        cutoffs.append(cutoff)
        return series_rank_(rows, cutoff, ring)

    monkeypatch.setattr(homology, "_MAX_DOUBLINGS", cap)
    monkeypatch.setattr(homology, "_series_rank", rank_spy)
    orders = [1, 2, 4, 8][:cap]
    if cap < 4:
        with pytest.raises(IncreaseOrder) as info:
            truncated_homology_oracle(X, ("1/2", "1/3", "1/5"), 1)
        assert str(info.value).endswith(f"at orders {orders}")
    else:
        report = truncated_homology_oracle(X, ("1/2", "1/3", "1/5"), 1)
        assert report.checks["orders"] == orders
    windows = [60, 120, 240][:cap - 1]
    assert cutoffs == [c for c in windows for _ in X.columns]


def test_series_rank_builds_no_series_or_group_ring_elements(monkeypatch):
    rng = random.Random(3)
    cases = [(random_dependent_matrix(rng, ring), ring) for ring in (Q, Z2, Q, Z2)]
    built = []
    for cls in (TruncatedNovikovSeries, GroupRingElement):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for matrix, ring in cases:
        series_rank(matrix, Polytope([(-1,)]), 16, ring)
    assert built == []


def test_oracle_input_errors():
    with pytest.raises(InputError):
        truncated_homology_oracle(circle(), (0,), 16)
    with pytest.raises(InputError):
        truncated_homology_oracle(circle(), (1,), 0)
    with pytest.raises(InputError):
        truncated_homology_oracle(circle(), (1, 0), 16)


def test_oracle_stabilization_signal(monkeypatch):
    # a single order has no earlier order to compare with: nothing is
    # eliminated
    cutoffs = []
    series_rank_ = homology._series_rank

    def rank_spy(rows, cutoff, ring):
        cutoffs.append(cutoff)
        return series_rank_(rows, cutoff, ring)

    monkeypatch.setattr(homology, "_MAX_DOUBLINGS", 1)
    monkeypatch.setattr(homology, "_series_rank", rank_spy)
    with pytest.raises(IncreaseOrder) as info:
        truncated_homology_oracle(circle(), (1,), 16)
    assert str(info.value).endswith("at orders [16]")
    assert cutoffs == []


# -- main theorem ------------------------------------------------------------------


def test_main_theorem_torus_square():
    X = torus()
    P = Polytope([(1, 0), (0, 1)])
    report = main_theorem_check(X, P, ["1", "0"], ["1/2", "1/2"])
    assert report["ok"], report["checks"]
    assert report["betti"] == [0, 0, 0]
    assert report["checks"]["routes_give_equal_matrices"]
    assert report["checks"]["reduction_preserves_report"]


def test_main_theorem_with_restriction_and_seeds():
    X = genus2()
    P = Polytope([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    B = Subpolytope(P, (0, 2))
    for seed in (0, 5, 9):
        report = main_theorem_check(
            X, P, ["1/4", "1/4", "1/4", "1/4"], ["1", "0", "0", "0"],
            B=B, seed=seed,
        )
        assert report["ok"], report["checks"]
        assert report["betti"] == [0, 2, 0]
        assert report["reports"]["polytope_restricted"]["ring"]["finiteness"] == [0, 2]


def test_main_theorem_twists_once_and_reports_the_polytope_rings(monkeypatch):
    # the full and restricted reports are those of polytope_betti, though
    # the check twists X once along the quotient and ranks that twist once
    calls = []
    twist = homology.twisted_complex
    monkeypatch.setattr(
        homology, "twisted_complex", lambda *args: calls.append(args) or twist(*args)
    )
    X = genus2()
    P = Polytope([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    for B in (Subpolytope(P, (0, 2)), None):
        calls.clear()
        report = main_theorem_check(
            X, P, ["1/4", "1/4", "1/4", "1/4"], ["1", "0", "0", "0"], B=B
        )
        assert len(calls) == 1
        reports = report["reports"]
        assert reports["polytope_full"] == polytope_betti(X, P).to_json()
        assert reports["polytope_restricted"] == polytope_betti(X, P, B).to_json()
        assert report["checks"]["restriction_keeps_betti"]


def test_main_theorem_equal_weights_trivial():
    X = klein()
    P = Polytope([(1,)])
    report = main_theorem_check(X, P, ["1"], ["1"])
    assert report["ok"]
    assert report["classes"]["a"] == report["classes"]["b"]


def test_main_theorem_rejects_bad_weights():
    X = torus()
    P = Polytope([(1, 0), (0, 1)])
    with pytest.raises(InputError):
        main_theorem_check(X, P, ["1/2", "1/4"], ["1", "0"])
    with pytest.raises(InputError):
        main_theorem_check(X, P, ["3/2", "-1/2"], ["1", "0"])


# -- rational approximation ---------------------------------------------------------


def test_approximation_worked_examples():
    fam = rational_approximation((1, 1), "1/10")
    assert [m.to_json() for m in fam.members] == [
        ["101/100", "1"], ["1", "101/100"],
    ]
    assert fam.ok

    fam2 = rational_approximation((1, 0), 1)
    assert len(fam2.members) == 1
    assert period_eval(fam2.members[0], (0, 1)) == 0
    assert fam2.ok

    fam3 = rational_approximation((0, 0), "1/10")
    assert fam3.members == ()
    assert fam3.ok


def test_approximation_random_targets():
    rng = random.Random(29)
    for _ in range(20):
        rank = rng.randrange(1, 5)
        u = tuple(
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
            for _ in range(rank)
        )
        for eps in (Fraction(1, 10), Fraction(1, 100)):
            fam = rational_approximation(u, eps, rank)
            active = [i for i, p in enumerate(u) if p != 0]
            assert len(fam.members) == len(active)
            assert fam.ok, fam.flags
            for member in fam.members:
                assert max(
                    abs(member.periods[i] - u[i]) for i in range(rank)
                ) < eps
                for i in range(rank):
                    if i not in active:
                        assert member.periods[i] == 0


def test_approximation_rejects_bad_tolerance():
    with pytest.raises(InputError):
        rational_approximation((1, 1), 0)
    with pytest.raises(InputError):
        rational_approximation((1, 1), "-1/10")
