from __future__ import annotations

import random
from fractions import Fraction

import pytest

from polynov.errors import (
    AmbiguousLeadingTerm,
    InputError,
    NotInvertibleUnderPolytope,
)
from polynov.groupring import CoefficientRing, GroupRingElement
from polynov.homology import _nonzero, height_accumulate, height_divisor, height_quotient
from polynov.lattice import CohomologyClass, Polytope, Subpolytope, period_eval
from polynov.novseries import (
    TruncatedNovikovSeries,
    Truncation,
    geom_inverse,
    leading_unit_inverse,
    positivity_check,
)

Q = CoefficientRing.RAT
Z2 = CoefficientRing.MOD2


def gre(text, ring=Q, rank=1):
    return GroupRingElement.from_string(text, ring, rank)


def test_interior_direction_is_vertex_average():
    P = Polytope([(1, 0), (0, 1)])
    T = Truncation.interior(P, 5)
    assert T.direction.periods == (Fraction(1, 2), Fraction(1, 2))
    B = Subpolytope(P, (0,))
    assert Truncation.interior(B, 5).direction.periods == (1, 0)


def test_window_membership():
    T = Truncation(CohomologyClass((1,)), Fraction(3))
    assert T.contains((3,))
    assert not T.contains((4,))
    x = TruncatedNovikovSeries(gre("1 + t^2 + t^5"), T)
    assert x.element == gre("1 + t^2")


def test_integer_window_test_matches_the_period():
    # directions with fractional, negative, non-primitive and zero periods;
    # orders with fractional parts, negative ones included
    rng = random.Random(17)
    for _ in range(200):
        rank = rng.randint(1, 3)
        periods = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rank)]
        order = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        T = Truncation(CohomologyClass(tuple(periods)), order)
        for _ in range(10):
            exp = tuple(rng.randint(-5, 5) for _ in range(rank))
            assert T.contains(exp) == (period_eval(T.direction, exp) <= order)


def test_geom_inverse_single_variable_frozen():
    # derived: (1 - t) * (1 + t + t^2 + t^3) == 1 - t^4, and t^4 is outside
    # the order-3 window, so the inverse of 1 - t at order 3 is the sum
    P = Polytope([(1,)])
    T = Truncation.interior(P, 3)
    inv = geom_inverse(gre("1 - t"), T, P)
    assert inv.element == gre("1 + t + t^2 + t^3")
    product = gre("1 - t") * inv.element
    assert TruncatedNovikovSeries(product, T).element == gre("1")


def test_geom_inverse_two_variables_frozen():
    P = Polytope([(1, 0), (0, 1)])
    T = Truncation(CohomologyClass((Fraction(1, 2), Fraction(1, 2))), 2)
    inv = geom_inverse(gre("1 - t1*t2", Q, 2), T, P)
    assert inv.element == gre("1 + t1*t2 + t1^2*t2^2", Q, 2)


def test_geom_inverse_requires_positivity():
    P = Polytope([(1,), (-1,)])
    T = Truncation.interior(P, 3)
    with pytest.raises(NotInvertibleUnderPolytope):
        geom_inverse(gre("1 - t"), T, Polytope([(1,), (-1,)]))


def test_geom_inverse_of_one():
    P = Polytope([(1,)])
    T = Truncation.interior(P, 3)
    assert geom_inverse(gre("1"), T, P).element == gre("1")


def test_geom_inverse_mod2():
    P = Polytope([(1,)])
    T = Truncation.interior(P, 3)
    inv = geom_inverse(gre("1 + t", Z2, 1), T, P)
    assert inv.element == gre("1 + t + t^2 + t^3", Z2, 1)
    residue = gre("1 + t", Z2, 1) * inv.element - gre("1", Z2, 1)
    assert all(period_eval(T.direction, e) > T.order for e in residue.terms)


def test_positivity_check():
    P = Polytope([(1, 0), (0, 1)])
    assert positivity_check(gre("t1*t2", Q, 2), P)
    assert not positivity_check(gre("t1", Q, 2), P)  # vertex (0,1) sees 0
    assert not positivity_check(gre("t1*t2 + t1^-1", Q, 2), P)
    with pytest.raises(InputError):
        positivity_check(GroupRingElement.zero(Q, 2), P)


def test_positivity_equals_vertexwise_positivity():
    # vertex reduction: the polytope gate is exactly the conjunction of the
    # single-vertex gates
    rng = random.Random(2024)
    for _ in range(50):
        r = rng.randint(1, 3)
        P = Polytope(
            [
                CohomologyClass(tuple(rng.randint(-2, 2) for _ in range(r)))
                for _ in range(rng.randint(1, 3))
            ]
        )
        terms = {
            tuple(rng.randint(-3, 3) for _ in range(r)): 1
            for _ in range(rng.randint(1, 3))
        }
        u = GroupRingElement(Q, r, terms)
        if u.is_zero():
            continue
        whole = positivity_check(u, P)
        vertexwise = all(
            positivity_check(u, Subpolytope(P, (i,)))
            for i in range(len(P.vertices))
        )
        assert whole == vertexwise


def test_inversion_identity_random():
    rng = random.Random(77)
    P = Polytope([(1, 0), (0, 1)])
    for _ in range(30):
        # random u with strictly positive exponents in both variables
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = (rng.randint(1, 2), rng.randint(1, 2))
            terms[exp] = Fraction(rng.randint(-3, 3))
        u = GroupRingElement(Q, 2, terms)
        if u.is_zero():
            continue
        x = GroupRingElement.one(Q, 2) - u
        N = Fraction(rng.randint(2, 5))
        T = Truncation.interior(P, N)
        inv = geom_inverse(x, T, P)
        residue = x * inv.element - GroupRingElement.one(Q, 2)
        assert all(period_eval(T.direction, e) > N for e in residue.terms)


def test_truncation_coherence():
    # computing at a big window then restricting equals computing small
    P = Polytope([(1, 0), (0, 1)])
    x = gre("1 - t1*t2 - t1^2*t2", Q, 2)
    big = Truncation.interior(P, 8)
    small = Truncation.interior(P, 3)
    inv_big = geom_inverse(x, big, P)
    inv_small = geom_inverse(x, small, P)
    assert TruncatedNovikovSeries(inv_big.element, small) == inv_small
    # and for products of window data with nonnegative periods
    a = TruncatedNovikovSeries(gre("1 + t1 + t2^3", Q, 2), big)
    b = TruncatedNovikovSeries(gre("2 - t1*t2", Q, 2), big)
    prod_big = TruncatedNovikovSeries((a * b).element, small)
    prod_small = TruncatedNovikovSeries(a.element, small) * TruncatedNovikovSeries(
        b.element, small
    )
    assert prod_big == prod_small


def test_series_window_discipline():
    P = Polytope([(1,)])
    T1 = Truncation.interior(P, 3)
    T2 = Truncation.interior(P, 4)
    a = TruncatedNovikovSeries(gre("1 + t"), T1)
    b = TruncatedNovikovSeries(gre("t^2"), T1)
    assert (a + b).element == gre("1 + t + t^2")
    assert (a * b).element == gre("t^2 + t^3")
    with pytest.raises(InputError):
        a + TruncatedNovikovSeries(gre("t"), T2)


def test_leading_unit_inverse_of_t_minus_one():
    c = CohomologyClass((1,))
    T = Truncation(c, 4)
    inv = leading_unit_inverse(gre("t - 1"), c, T)
    # t - 1 = -(1 - t), so the inverse is -(1 + t + ... + t^4)
    assert inv.element == gre("-1 - t - t^2 - t^3 - t^4")
    residue = gre("t - 1") * inv.element - gre("1")
    assert all(period_eval(c, e) > 4 for e in residue.terms)


def test_leading_unit_inverse_of_monomial():
    c = CohomologyClass((1,))
    T = Truncation(c, 4)
    inv = leading_unit_inverse(gre("t"), c, T)
    assert inv.element == gre("t^-1")
    inv2 = leading_unit_inverse(gre("1/2*t^2"), c, T)
    assert inv2.element == gre("2*t^-2")


def test_leading_unit_inverse_negative_leading_period():
    # x = t + t^-1 = t^-1 (1 + t^2): leading period m = -1, so the identity
    # is only certifiable above order + m
    c = CohomologyClass((1,))
    N = 4
    T = Truncation(c, N)
    inv = leading_unit_inverse(gre("t + t^-1"), c, T)
    assert inv.element == gre("t - t^3")
    residue = gre("t + t^-1") * inv.element - gre("1")
    assert all(period_eval(c, e) > N - 1 for e in residue.terms)


def test_leading_unit_inverse_ambiguous():
    c = CohomologyClass((Fraction(1, 2), Fraction(1, 2)))
    T = Truncation(c, 3)
    with pytest.raises(AmbiguousLeadingTerm):
        leading_unit_inverse(gre("t1 + t2", Q, 2), c, T)


def test_leading_unit_inverse_accepts_series_input():
    c = CohomologyClass((1,))
    T = Truncation(c, 5)
    x = TruncatedNovikovSeries(gre("t - 1"), T)
    assert leading_unit_inverse(x, c, T).element == gre(
        "-1 - t - t^2 - t^3 - t^4 - t^5"
    )


def test_leading_unit_inverse_matches_geom_inverse_when_leading_is_one():
    rng = random.Random(13)
    P = Polytope([(1,)])
    c = CohomologyClass((1,))
    for _ in range(20):
        terms = {(rng.randint(1, 3),): Fraction(rng.randint(-3, 3)) for _ in range(2)}
        u = GroupRingElement(Q, 1, terms)
        x = GroupRingElement.one(Q, 1) - u
        T = Truncation(c, rng.randint(3, 6))
        assert leading_unit_inverse(x, c, T) == geom_inverse(x, T, P)


def test_height_helpers_match_the_series_window():
    # along the direction s = +-1 the monomial t^e has height s*e, and the
    # window of order N keeps heights <= N: the height helpers must give
    # the reference series arithmetic's windowed terms exactly, and
    # height_quotient(y, x, N) is the windowed y * leading_unit_inverse(x)
    rng = random.Random(29)
    coefficients = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 4))
    for ring in (Q, Z2):
        mod2 = ring is Z2

        def coefficient(choices=coefficients):
            return 1 if mod2 else rng.choice(choices)

        def check_quotient(y, x, s, N):
            c = CohomologyClass((s,))
            T = Truncation(c, N)

            def series(d):
                terms = {(s * h,): v for h, v in d.items()}
                return TruncatedNovikovSeries(GroupRingElement(ring, 1, terms), T)

            expected = (series(y) * leading_unit_inverse(series(x), c, T)).element
            q = height_quotient(y, height_divisor(x), N, mod2)
            assert q == {s * e: v for (e,), v in expected.terms.items()}
            product = height_accumulate({}, q, sorted(x.items()), N)
            assert _nonzero(product, mod2) == {h: v for h, v in y.items() if h <= N}

        for _ in range(80):
            s = rng.choice((1, -1))
            c = CohomologyClass((s,))
            N = rng.randint(0, 9)
            T = Truncation(c, N)

            def series(low):
                terms = {
                    (s * rng.randint(low, N + 2),): coefficient()
                    for _ in range(rng.randint(1, 4))
                }
                return TruncatedNovikovSeries(GroupRingElement(ring, 1, terms), T)

            def heights(x):
                return {s * e: v for (e,), v in x.element.terms.items()}

            a, b = series(-3), series(-3)
            product = height_accumulate({}, heights(a), sorted(heights(b).items()), N)
            assert _nonzero(product, mod2) == heights(a * b)
            # a divisor of least height 0 with each lead, over random
            # numerators of least height 0 or more, and 1
            lead = coefficient((-1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 4)))
            x = {0: lead, **{rng.randint(1, N + 2): coefficient()
                             for _ in range(rng.randint(0, 3))}}
            y = {rng.randint(0, N + 2): coefficient() for _ in range(rng.randint(1, 4))}
            for numerator in (y, {0: 1}):
                check_quotient(numerator, x, s, N)

        # binomials and trinomials with gaps in the hundreds, in windows of
        # thousands of heights, where the quotient has few nonzero terms
        for _ in range(10):
            s = rng.choice((1, -1))
            N = rng.randint(1000, 4000)
            rest = rng.sample(range(100, 900), rng.randint(1, 2))
            x = {h: coefficient() for h in [0, *rest]}
            y = {h: coefficient() for h in rng.sample(range(N + 50), 3)}
            for numerator in (y, {0: 1}):
                check_quotient(numerator, x, s, N)

        # 1 - t^143 (1 + t^143 over Z/2) fills one height in 143 of a wide
        # window, and so does its inverse sum_k t^(143 k)
        for gap in (143, 1):
            x = {0: 1, gap: 1 if mod2 else -1}
            inverse = {gap * k: 1 for k in range(16016 // gap + 1)}
            assert height_quotient({0: 1}, height_divisor(x), 16016, mod2) == inverse
