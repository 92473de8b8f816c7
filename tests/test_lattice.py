from __future__ import annotations

import random
from fractions import Fraction
from math import floor, gcd

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from polynov.errors import InputError
from polynov.lattice import (
    MAX_DECIMAL_EXPONENT,
    CohomologyClass,
    Polytope,
    Subpolytope,
    _integer_form,
    convex_combination,
    format_rational,
    kernel_lattice,
    parse_rational,
    period_eval,
    polytope_min_period,
    quotient_map,
    zero_class,
)
from series_reference import Truncation


def sympy_kernel(rows):
    """Independent oracle: rational nullspace via sympy, one basis vector
    per free column."""
    if not rows:
        return None
    return sympy.Matrix(rows).nullspace()


def in_span_over_Q(vec, basis):
    if not basis:
        return all(x == 0 for x in vec)
    M = sympy.Matrix([list(b) for b in basis])
    return M.rank() == M.col_join(sympy.Matrix([list(vec)])).rank()


def is_integer_combination(vec, basis):
    # solve basis.T * x = vec over Q and check integrality of the solution
    M = sympy.Matrix([list(b) for b in basis]).T
    v = sympy.Matrix(len(vec), 1, list(vec))
    try:
        sol = M.solve_least_squares(v)
    except Exception:
        return False
    if list(M * sol) != list(v):
        return False
    return all(x == int(x) for x in sol)


def test_parse_rational_forms():
    assert parse_rational(3) == 3
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("-7") == -7
    assert parse_rational([3, 4]) == Fraction(3, 4)
    with pytest.raises(InputError):
        parse_rational("x")
    with pytest.raises(InputError):
        parse_rational([1, 0])


def test_period_eval_is_rational_dot_product():
    a = CohomologyClass((Fraction(1, 2), Fraction(-2, 3)))
    assert period_eval(a, (2, 3)) == Fraction(1) - Fraction(2)
    assert period_eval(a, (0, 0)) == 0
    with pytest.raises(InputError):
        period_eval(a, (1,))


def test_kernel_of_single_class_matches_frozen_value():
    # derived by hand and confirmed by the sympy nullspace oracle below:
    # the saturated kernel of (2, 4) on Z^2 is spanned by +-(2, -1)
    (basis_vec,) = kernel_lattice([CohomologyClass((2, 4))])
    assert basis_vec in ((2, -1), (-2, 1))
    oracle = sympy_kernel([[2, 4]])
    assert len(oracle) == 1
    assert in_span_over_Q(basis_vec, [tuple(oracle[0])])


def test_kernel_lattice_against_sympy_oracle_random():
    rng = random.Random(20240)
    for _ in range(60):
        r = rng.randint(1, 4)
        k = rng.randint(1, 3)
        classes = [
            CohomologyClass(
                tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r))
            )
            for _ in range(k)
        ]
        basis = kernel_lattice(classes)
        rows = [[sympy.Rational(p.numerator, p.denominator) for p in c.periods] for c in classes]
        oracle = sympy_kernel(rows)
        assert len(basis) == len(oracle)
        for vec in basis:
            for c in classes:
                assert period_eval(c, vec) == 0


def test_kernel_lattice_is_saturated():
    # the quotient by the kernel must be torsion-free: any integer vector
    # killed by all classes must be an integer combination of the basis
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 4)
        k = rng.randint(1, 2)
        classes = [
            CohomologyClass(tuple(rng.randint(-3, 3) for _ in range(r)))
            for _ in range(k)
        ]
        basis = kernel_lattice(classes)
        if not basis:
            continue
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            vec = tuple(
                sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(r)
            )
            assert all(period_eval(cl, vec) == 0 for cl in classes)
            assert is_integer_combination(vec, basis)


@pytest.mark.parametrize("rank", [None, 0, 3])
def test_kernel_lattice_needs_a_class_as_quotient_map_does(rank):
    with pytest.raises(InputError):
        kernel_lattice((), rank=rank)
    with pytest.raises(InputError):
        quotient_map((), rank=rank)


def test_quotient_map_by_single_class_kernel():
    # quotient by ker(2,4) is (x, y) -> x + 2y up to unimodular change;
    # check the defining properties rather than the literal matrix
    q = quotient_map([CohomologyClass((2, 4))])
    assert q.rank_out == 1
    for vec in q.kernel:
        assert q.apply(vec) == (0,)
    # surjectivity in rank 1: the image generates Z
    from math import gcd

    g = gcd(q.apply((1, 0))[0], q.apply((0, 1))[0])
    assert abs(g) == 1


def test_quotient_map_properties_random():
    rng = random.Random(99)
    for _ in range(40):
        r = rng.randint(1, 4)
        k = rng.randint(1, 3)
        classes = [
            CohomologyClass(
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(r))
            )
            for _ in range(k)
        ]
        q = quotient_map(classes)
        assert q.rank_out + len(q.kernel) == r
        for vec in q.kernel:
            assert q.apply(vec) == (0,) * q.rank_out
        induced = [q.induced_class(c) for c in classes]
        # compatibility: induced period of the image equals original period
        for _ in range(5):
            vec = tuple(rng.randint(-4, 4) for _ in range(r))
            image = q.apply(vec)
            for c, ci in zip(classes, induced):
                assert period_eval(ci, image) == period_eval(c, vec)
        # joint injectivity on the quotient: common kernel is trivial
        if q.rank_out:
            assert kernel_lattice(induced, rank=q.rank_out) == ()


def test_quotient_map_surjective():
    # every standard basis vector of the quotient is hit by some integer
    # vector upstairs: T is unimodular so T*Tinv = identity gives preimages
    rng = random.Random(3)
    for _ in range(20):
        r = rng.randint(1, 4)
        classes = [
            CohomologyClass(tuple(rng.randint(-3, 3) for _ in range(r)))
            for _ in range(rng.randint(1, 2))
        ]
        q = quotient_map(classes)
        if q.rank_out == 0:
            continue
        hits = sympy.Matrix([list(q.apply(tuple(
            1 if i == j else 0 for i in range(r)))) for j in range(r)])
        # columns generate Z^rank_out iff elementary divisors are all 1
        d = hits.T.rank()
        assert d == q.rank_out
        snf_ok = smith_normal_form(
            sympy.Matrix([list(row) for row in q.matrix]), domain=sympy.ZZ
        )
        diag = [snf_ok[i, i] for i in range(q.rank_out)]
        assert all(abs(x) == 1 for x in diag)


def test_induced_class_rejects_classes_not_vanishing_on_kernel():
    q = quotient_map([CohomologyClass((1, 0))])
    with pytest.raises(InputError):
        q.induced_class(CohomologyClass((0, 1)))


def test_zero_class_quotient_collapses_everything():
    q = quotient_map([zero_class(3)])
    assert q.rank_out == 0
    assert len(q.kernel) == 3
    assert q.apply((5, -2, 7)) == ()


def test_polytope_dedupes_and_orders():
    P = Polytope([(1, 0), (0, 1), (1, 0)])
    assert len(P.vertices) == 2
    assert P.vertices[0] == CohomologyClass((1, 0))


def test_polytope_scale_requires_positive_factor():
    P = Polytope([(1, 0)])
    with pytest.raises(InputError):
        P.scale(0)
    with pytest.raises(InputError):
        P.scale(Fraction(-1, 2))
    assert P.scale(Fraction(1, 2)).vertices[0].periods == (Fraction(1, 2), 0)


def test_subpolytope_validation():
    P = Polytope([(1, 0), (0, 1)])
    B = Subpolytope(P, (1,))
    assert B.vertices == (CohomologyClass((0, 1)),)
    with pytest.raises(InputError):
        Subpolytope(P, ())
    with pytest.raises(InputError):
        Subpolytope(P, (2,))


def test_polytope_min_period_bounds_convex_combinations():
    # vertex determination: a convex combination of vertex functionals is
    # bounded below by the vertex minimum on every lattice vector
    rng = random.Random(11)
    for _ in range(100):
        r = rng.randint(1, 3)
        nverts = rng.randint(1, 4)
        P = Polytope(
            [
                CohomologyClass(
                    tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r))
                )
                for _ in range(nverts)
            ]
        )
        raw = [rng.randint(0, 5) for _ in P.vertices]
        total = sum(raw) or 1
        if sum(raw) == 0:
            raw[0] = 1
        weights = [Fraction(x, total) for x in raw]
        b = convex_combination(P, weights)
        vec = tuple(rng.randint(-6, 6) for _ in range(r))
        assert period_eval(b, vec) >= polytope_min_period(P, vec)


def test_convex_combination_validates_weights():
    P = Polytope([(1, 0), (0, 1)])
    with pytest.raises(InputError):
        convex_combination(P, [Fraction(1, 2)])
    with pytest.raises(InputError):
        convex_combination(P, [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(InputError):
        convex_combination(P, [Fraction(1, 2), Fraction(1, 4)])


def test_ray_normalization():
    a = CohomologyClass((Fraction(2, 3), Fraction(-4, 3)))
    assert a.ray_normalized().periods == (1, -2)
    assert zero_class(2).ray_normalized() == zero_class(2)
    # scaling never changes the normalized form
    assert a.scale(7).ray_normalized() == a.ray_normalized()
    assert a.scale(Fraction(1, 5)).ray_normalized() == a.ray_normalized()
    # a class keeps its normalization, which its equality and hash ignore
    assert a.ray_normalized() is a.ray_normalized()
    assert a.primitive_form() == ((1, -2), Fraction(3, 2))
    assert a.primitive_form() is a.primitive_form()
    assert a == CohomologyClass(a.periods) and hash(a) == hash(CohomologyClass(a.periods))
    assert repr(a) == repr(CohomologyClass(a.periods))


def random_classes(rng, r, k):
    """k classes of rank r with fractional periods (denominators up to 12)."""
    return [
        CohomologyClass(tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(r)
        ))
        for _ in range(k)
    ]


def test_images_match_apply():
    rng = random.Random(17)
    for _ in range(40):
        r = rng.randint(1, 4)
        classes = random_classes(rng, r, rng.randint(1, 3))
        if rng.random() < 0.2:
            classes = [zero_class(r)]  # a quotient of rank 0
        q = quotient_map(classes)
        xs = [
            tuple(rng.randint(-6, 6) for _ in range(r))
            for _ in range(rng.randint(0, 12))
        ]
        expected = {x: q.apply(x) for x in xs}
        if not q.rank_out:
            assert expected == {x: () for x in xs}
        assert q.images(xs) == expected
        assert q.images(iter(xs)) == expected
        assert q.images([]) == {}
        with pytest.raises(InputError):
            q.images(xs + [(0,) * (r + 1)])
    q = quotient_map([zero_class(3)])
    assert q.images([(5, -2, 7), (0, 0, 0)]) == {(5, -2, 7): (), (0, 0, 0): ()}
    with pytest.raises(InputError):
        q.images([(5, -2)])  # the length check runs at rank 0 too


def test_integer_lattice_paths_match_the_fraction_formulas():
    rng = random.Random(29)
    for _ in range(60):
        r = rng.randint(1, 4)
        classes = random_classes(rng, r, rng.randint(1, 3))
        # _integer_form, the rows quotient_map eliminates: each class times
        # the lcm of its denominators
        for a in classes:
            den = 1
            for p in a.periods:
                den = den * p.denominator // gcd(den, p.denominator)
            assert _integer_form(a.periods) == ([int(p * den) for p in a.periods], den)
        # ray_normalized: the primitive integer vector on the class's ray
        for a in classes:
            b = a.ray_normalized()
            if a.is_zero():
                assert b == a
                continue
            assert all(p.denominator == 1 for p in b.periods)
            assert gcd(*(p.numerator for p in b.periods)) == 1
            ratios = {bp / ap for ap, bp in zip(a.periods, b.periods) if ap}
            (scale,) = ratios
            assert scale > 0
            # Truncation: the same primitive weights, and the cutoff of the
            # window of order N is floor(N * scale) for b == scale * a
            order = Fraction(rng.randint(1, 40), rng.randint(1, 5))
            window = Truncation(a, order)
            assert window._weights == tuple(int(p) for p in b.periods)
            assert window._cutoff == floor(order * scale)
        # induced_class: the Fraction sum through the inverse basis change
        q = quotient_map(classes)
        tinv = q._tinv
        for a in classes + [classes[0].scale(Fraction(3, 7))]:
            image = [
                sum((a.periods[i] * tinv[i][j] for i in range(r)), Fraction(0))
                for j in range(r)
            ]
            assert all(v == 0 for v in image[q.rank_out:])
            induced = q.induced_class(a)
            assert induced.periods == tuple(image[: q.rank_out])
            assert all(type(p) is Fraction for p in induced.periods)


def test_rationals_of_more_than_4300_digits_are_input_errors():
    huge = 10**MAX_DECIMAL_EXPONENT
    assert parse_rational("1e4300") == huge
    assert parse_rational(f"1/{huge - 1}") == Fraction(1, huge - 1)
    for text in (
        "1e4301", "1e-4301", "1E+4301", "1e10000000", "1e-100000000",
        "9.9e4300", "1" + "0" * 4300, "1/1" + "0" * 4300,
    ):
        with pytest.raises(InputError):
            parse_rational(text)
    # what parses may still be too long to print: 10^4300 has 4301 digits
    assert format_rational(Fraction(huge - 1, 3)) == str(Fraction(huge - 1, 3))
    for q in (Fraction(huge), Fraction(1, huge), Fraction(huge, 3) + 1):
        with pytest.raises(InputError):
            format_rational(q)
    with pytest.raises(InputError):
        CohomologyClass((huge, 1)).to_json()
