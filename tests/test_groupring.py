from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from polynov import groupring
from polynov.errors import InputError
from polynov.groupring import (
    CoefficientRing,
    GroupRingElement,
    _bareiss_rank,
    matrix_rank_fraction_field,
)
from polynov.lattice import CohomologyClass, quotient_map

Q = CoefficientRing.RAT
Z = CoefficientRing.INT
Z2 = CoefficientRing.MOD2


def sympy_rank(rows):
    """Independent oracle: symbolic rank over the rational function field."""
    if not rows or not rows[0]:
        return 0
    rank = rows[0][0].rank
    symbols = sympy.symbols(f"s1:{rank + 1}") if rank else ()
    out = []
    for row in rows:
        srow = []
        for e in row:
            expr = sympy.Integer(0)
            for exp, coeff in e.terms.items():
                term = sympy.Rational(coeff)
                for i, p in enumerate(exp):
                    term *= symbols[i] ** p
                expr += term
            srow.append(sympy.together(expr))
        out.append(srow)
    return sympy.Matrix(out).rank()


def random_element(rng, ring, rank, nterms=3, span=2):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exp = tuple(rng.randint(-span, span) for _ in range(rank))
        if ring is Z2:
            terms[exp] = 1
        else:
            terms[exp] = rng.randint(-4, 4)
    return GroupRingElement(ring, rank, terms)


def test_string_round_trip_canonical_example():
    x = GroupRingElement.from_string("3*t1^2*t2^-1 + 1", Q, 2)
    assert x.terms == {(2, -1): Fraction(3), (0, 0): Fraction(1)}
    assert x.to_string() == "3*t1^2*t2^-1 + 1"


def test_string_forms():
    assert GroupRingElement.from_string("t - 1", Q, 1).to_string() == "t - 1"
    assert GroupRingElement.from_string("t1-1", Q, 2).to_string() == "t1 - 1"
    assert GroupRingElement.from_string("0", Q, 2).is_zero()
    assert GroupRingElement.from_string("-t^-1", Q, 1).terms == {(-1,): -1}
    assert (
        GroupRingElement.from_string("1/2*t1*t2^2", Q, 2).terms
        == {(1, 2): Fraction(1, 2)}
    )
    # mod-2 coefficients collapse
    assert GroupRingElement.from_string("t + t", Z2, 1).is_zero()
    assert GroupRingElement.from_string("2", Z2, 1).is_zero()
    with pytest.raises(InputError):
        GroupRingElement.from_string("u + 1", Q, 1)
    with pytest.raises(InputError):
        GroupRingElement.from_string("t3", Q, 2)
    with pytest.raises(InputError):
        GroupRingElement.from_string("t", Q, 2)


def test_round_trip_random():
    rng = random.Random(5)
    for ring in (Q, Z, Z2):
        for _ in range(50):
            rank = rng.randint(0, 3)
            x = random_element(rng, ring, rank)
            again = GroupRingElement.from_string(x.to_string(), ring, rank)
            assert again == x


def test_ring_axioms_random():
    rng = random.Random(17)
    for ring in (Q, Z, Z2):
        for _ in range(40):
            rank = rng.randint(1, 2)
            a = random_element(rng, ring, rank)
            b = random_element(rng, ring, rank)
            c = random_element(rng, ring, rank)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            one = GroupRingElement.one(ring, rank)
            zero = GroupRingElement.zero(ring, rank)
            assert a * one == a
            assert a + zero == a
            assert a + (-a) == zero


def test_arithmetic_operators():
    a = GroupRingElement.from_string("t - 1", Q, 1)
    b = GroupRingElement.from_string("t + 1", Q, 1)
    assert (a + b).to_string() == "2*t"
    assert (a * b).to_string() == "t^2 - 1"
    assert (-a).to_string() == "-t + 1"


def test_mod2_square_is_frobenius():
    # (1 + t)^2 == 1 + t^2 over Z/2
    x = GroupRingElement.from_string("1 + t", Z2, 1)
    assert (x**2).terms == {(0,): 1, (2,): 1}


def test_specialize_collision_cancels():
    # t1 - t2 dies under (x, y) -> x + y
    q = quotient_map([CohomologyClass((1, 1))])
    x = GroupRingElement.from_string("t1 - t2", Q, 2)
    assert x.specialize(q).is_zero()


def test_specialize_is_ring_homomorphism():
    rng = random.Random(23)
    for _ in range(30):
        classes = [
            CohomologyClass(tuple(rng.randint(-3, 3) for _ in range(3)))
            for _ in range(rng.randint(1, 2))
        ]
        q = quotient_map(classes)
        for ring in (Q, Z2):
            a = random_element(rng, ring, 3)
            b = random_element(rng, ring, 3)
            assert (a * b).specialize(q) == a.specialize(q) * b.specialize(q)
            assert (a + b).specialize(q) == a.specialize(q) + b.specialize(q)
        one = GroupRingElement.one(Q, 3)
        assert one.specialize(q) == GroupRingElement.one(Q, q.rank_out)


def test_rank_of_torus_column_is_one():
    # frozen derived value: the column [(t1 - 1), (t2 - 1)] has rank 1
    col = [
        [GroupRingElement.from_string("t1 - 1", Q, 2)],
        [GroupRingElement.from_string("t2 - 1", Q, 2)],
    ]
    res = matrix_rank_fraction_field(col)
    assert res.rank == 1
    assert res.exact
    assert res.method == "fraction-free"
    assert sympy_rank(col) == 1


def test_rank_random_against_sympy_oracle():
    rng = random.Random(31)
    for _ in range(25):
        rank = rng.randint(1, 2)
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [
            [random_element(rng, Q, rank, nterms=2, span=1) for _ in range(m)]
            for _ in range(n)
        ]
        got = matrix_rank_fraction_field(rows)
        assert got.rank == sympy_rank(rows)
        assert got.exact


def test_rank_mod2_against_minor_oracle():
    # oracle: rank = size of the largest submatrix with nonzero determinant,
    # determinants expanded Leibniz-style with sympy polynomials over GF(2)
    from itertools import combinations, permutations

    rng = random.Random(37)
    s = sympy.symbols("s")
    two = sympy.GF(2)

    def minor_rank(polys, n, m):
        best = 0
        for k in range(1, min(n, m) + 1):
            found = False
            for rows_idx in combinations(range(n), k):
                for cols_idx in combinations(range(m), k):
                    det = sympy.Poly(0, s, domain=two)
                    for perm in permutations(range(k)):
                        prod = sympy.Poly(1, s, domain=two)
                        for a, b in enumerate(perm):
                            prod *= polys[rows_idx[a]][cols_idx[b]]
                        det += prod  # signs vanish mod 2
                    if not det.is_zero:
                        found = True
                        break
                if found:
                    break
            if found:
                best = k
        return best

    for _ in range(15):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        rows = [
            [random_element(rng, Z2, 1, nterms=2, span=1) for _ in range(m)]
            for _ in range(n)
        ]
        got = matrix_rank_fraction_field(rows)
        polys = []
        for row in rows:
            prow = []
            for e in row:
                expr = sympy.Integer(0)
                for exp, coeff in e.terms.items():
                    expr += coeff * s ** (exp[0] + 2)  # unit shift, exponents >= 0
                prow.append(sympy.Poly(expr, s, domain=two))
            polys.append(prow)
        assert got.rank == minor_rank(polys, n, m)


def test_mod2_constant_rank_matches_bareiss():
    rng = random.Random(53)
    one = GroupRingElement.one(Z2, 0)
    zero = GroupRingElement.zero(Z2, 0)
    for _ in range(40):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        density = rng.choice((0.1, 0.3, 0.6))
        rows = [
            [one if rng.random() < density else zero for _ in range(m)]
            for _ in range(n)
        ]
        if n > 2:  # a dependent row: the sum of two others
            a, b = rng.sample(range(n - 1), 2)
            rows[-1] = [x + y for x, y in zip(rows[a], rows[b])]
        got = matrix_rank_fraction_field(rows)
        assert got == (_bareiss_rank(rows), True, "constant")


def test_evaluation_rank_keeps_the_largest_trial(monkeypatch):
    # each trial is a proved lower bound: 3, 2, 2 means rank 3, not 2
    script = iter([3, 2, 2])
    monkeypatch.setattr(groupring, "_fraction_rank", lambda numeric: next(script))
    t = GroupRingElement.from_string("t", Q, 1)
    rows = [[t] * 3 for _ in range(3)]
    got = matrix_rank_fraction_field(rows, dense_threshold=0)
    assert got == (3, True, "evaluation")


def test_evaluation_route_agrees_with_dense_route():
    rng = random.Random(41)
    for trial in range(10):
        rank = rng.randint(1, 2)
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [
            [random_element(rng, Q, rank, nterms=2, span=1) for _ in range(m)]
            for _ in range(n)
        ]
        dense = matrix_rank_fraction_field(rows)
        sampled = matrix_rank_fraction_field(rows, seed=trial, dense_threshold=0)
        assert sampled.method == "evaluation"
        assert sampled.rank == dense.rank


def test_rank_monotone_under_specialization():
    rng = random.Random(43)
    for _ in range(20):
        rows = [
            [random_element(rng, Q, 2, nterms=2, span=1) for _ in range(3)]
            for _ in range(3)
        ]
        full = matrix_rank_fraction_field(rows).rank
        classes = [CohomologyClass(tuple(rng.randint(-2, 2) for _ in range(2)))]
        q = quotient_map(classes)
        spec = [[e.specialize(q) for e in row] for row in rows]
        specialized = matrix_rank_fraction_field(spec).rank
        assert specialized <= full
        # random-point evaluation achieves the full rank within 3 trials
        best = max(
            matrix_rank_fraction_field(rows, seed=s, dense_threshold=0).rank
            for s in range(3)
        )
        assert best == full


def test_unit_monomials():
    assert GroupRingElement.from_string("-t^3", Q, 1).unit_monomial() == ((3,), -1)
    assert GroupRingElement.from_string("2*t", Q, 1).unit_monomial() is None
    assert GroupRingElement.from_string("t + 1", Q, 1).unit_monomial() is None
    assert GroupRingElement.from_string("t", Z2, 1).unit_monomial() == ((1,), 1)
    x = GroupRingElement.from_string("-t^3", Q, 1)
    assert (x * x.monomial_inverse()) == GroupRingElement.one(Q, 1)
    half = GroupRingElement.from_string("1/2*t^2", Q, 1)
    assert (half * half.monomial_inverse()) == GroupRingElement.one(Q, 1)
    with pytest.raises(InputError):
        GroupRingElement.from_string("2*t", Z, 1).monomial_inverse()


def test_matrix_helpers():
    def matrix(rows):
        return [[GroupRingElement.from_string(e, Q, 1) for e in row] for row in rows]

    A = matrix([["t", "1"]])
    B = matrix([["t - 1"], ["1 - t"]])
    assert A == matrix([["t", "1"]])
    assert A != B


def test_incompatible_operands_rejected():
    a = GroupRingElement.from_string("t", Q, 1)
    b = GroupRingElement.from_string("t1", Q, 2)
    c = GroupRingElement.from_string("t", Z2, 1)
    with pytest.raises(InputError):
        a + b
    with pytest.raises(InputError):
        a * c
