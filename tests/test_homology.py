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
from itertools import combinations

import pytest
import sympy

from polynov.complexes import EquivariantComplex, GroupPresentation, fox_boundary, ingest
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
from polynov.twist import twisted_complex

Q = CoefficientRing.RAT


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


def test_oracle_negative_direction():
    rep = truncated_homology_oracle(circle(), ("-2/3",), 16)
    assert rep.betti == (0, 0)


@pytest.mark.parametrize("a", [(-1, -1, -1), (1, -1, -1)])
def test_oracle_stabilizes_on_negative_period_rows(a):
    # these classes put rows such as 1 - t^-1 into the window, which once
    # never stabilized
    rep = truncated_homology_oracle(koszul_t3(), a, order=4, max_doublings=3)
    assert rep.betti == (0, 0, 0, 0)


def test_oracle_input_errors():
    with pytest.raises(InputError):
        truncated_homology_oracle(circle(), (0,), 16)
    with pytest.raises(InputError):
        truncated_homology_oracle(circle(), (1,), 0)
    with pytest.raises(InputError):
        truncated_homology_oracle(circle(), (1, 0), 16)


def test_oracle_stabilization_signal():
    with pytest.raises(IncreaseOrder):
        truncated_homology_oracle(circle(), (1,), 16, max_doublings=1)


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
