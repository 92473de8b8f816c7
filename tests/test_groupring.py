from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from polynov import groupring
from polynov.complexes import EquivariantComplex, ingest
from polynov.errors import InputError
from polynov.groupring import (
    CoefficientRing,
    GroupRingElement,
    _bareiss_rank,
    matrix_rank_fraction_field,
)
from polynov.lattice import CohomologyClass, LatticeMap, quotient_map

Q = CoefficientRing.RAT
Z = CoefficientRing.INT
Z2 = CoefficientRing.MOD2


def sparse(rows):
    """Dense rows as the {column: element} rows the rank engine takes."""
    return [{j: e for j, e in enumerate(row) if e.terms} for row in rows]


def bareiss(rows):
    return _bareiss_rank(sparse(rows), rows[0][0].ring, rows[0][0].rank)


def sympy_rank(rows):
    """Independent oracle: rank over the rational function field in
    s1, ..., sr over QQ (over GF(2) for Z/2 entries), by sympy's
    fraction-free elimination over the polynomial ring QQ[s1, ..., sr]
    (GF(2)[s1, ..., sr]; QQ or GF(2) for constants), whose pivots count the
    rank over its fraction field. Each row is first multiplied by the
    monomial that makes its exponents nonnegative, a unit of that field."""
    if not rows or not rows[0]:
        return 0
    rank = rows[0][0].rank
    symbols = sympy.symbols(f"s1:{rank + 1}") if rank else ()
    out = []
    for row in rows:
        low = [min((x[i] for e in row for x in e.terms), default=0) for i in range(rank)]
        srow = []
        for e in row:
            expr = sympy.Integer(0)
            for exp, coeff in e.terms.items():
                term = sympy.Rational(coeff)
                for i, p in enumerate(exp):
                    term *= symbols[i] ** (p - low[i])
                expr += term
            srow.append(expr)
        out.append(srow)
    base = sympy.GF(2) if rows[0][0].ring is Z2 else sympy.QQ
    domain = base[symbols] if rank else base
    M = DomainMatrix.from_list_sympy(len(out), len(out[0]), out).convert_to(domain)
    # fraction-free elimination over the polynomial ring: over the rational
    # function field GF(2)(s1, s2, s3) one 4x5 matrix took minutes, each
    # division cancelling a gcd
    return len(M.rref_den(method="FF")[2])


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


def test_integral_rational_coefficients_are_ints():
    # over Q an integral coefficient is stored as an int and only a true
    # fraction as a Fraction; equality, hashing and the text form agree
    x = GroupRingElement.from_string("3*t1 - 2 + 4/2*t2 + 1.0*t1*t2", Q, 2)
    y = GroupRingElement.from_string("t1 - 1", Q, 2)
    three = GroupRingElement.monomial(Q, 2, (0, 0), 3)
    for z in (x, y, x + y, x - y, x * y, -x, x * three):
        assert z.terms
        assert all(type(c) is int for c in z.terms.values())
    assert x.terms == {(1, 0): 3, (0, 0): -2, (0, 1): 2, (1, 1): 1}
    for value, want in ((Fraction(4, 2), 2), (-3, -3), ("6/3", 2)):
        assert type(Q.coerce(value)) is int and Q.coerce(value) == want
    assert type(Q.invert(-1)) is int and Q.invert(-1) == -1
    assert type(Q.invert(Fraction(1, 2))) is int and Q.invert(Fraction(1, 2)) == 2
    assert Q.invert(2) == Fraction(1, 2)
    half = GroupRingElement.from_string("1/2*t1", Q, 2)
    assert type(half.terms[(1, 0)]) is Fraction
    assert half.terms[(1, 0)] == Fraction(1, 2)
    assert hash(GroupRingElement(Q, 2, {(1, 0): Fraction(3)})) == hash(
        GroupRingElement.from_string("3*t1", Q, 2)
    )


def test_mixed_rational_text_is_unchanged():
    # strings recorded while every Q coefficient was a Fraction
    x = GroupRingElement.from_string(
        "1/2*t1^2 - 3*t2 + 2 - 4/2*t1*t2^-1 + 1.5*t2^3", Q, 2
    )
    assert x.to_string() == "1/2*t1^2 - 2*t1*t2^-1 + 3/2*t2^3 - 3*t2 + 2"
    y = GroupRingElement.from_string("t1 - 1", Q, 2)
    assert (x * y).to_string() == (
        "1/2*t1^3 - 1/2*t1^2 - 2*t1^2*t2^-1 + 3/2*t1*t2^3 - 3*t1*t2 + 2*t1"
        " + 2*t1*t2^-1 - 3/2*t2^3 + 3*t2 - 2"
    )
    X = ingest({
        "coefficients": "Q",
        "rank": 2,
        "cells": [["v"], ["e1", "e2"]],
        "boundaries": [[["1/2*t1 - 3", "2*t2^-1 + 3/4"]]],
    })
    assert X.canonical_bytes() == (
        b'{"boundaries":[[["1/2*t1 - 3","3/4 + 2*t2^-1"]]],'
        b'"cells":[["v"],["e1","e2"]],"coefficients":"Q","rank":2}'
    )


def test_string_forms():
    assert GroupRingElement.from_string("t - 1", Q, 1).to_string() == "t - 1"
    assert GroupRingElement.from_string("t1-1", Q, 2).to_string() == "t1 - 1"
    assert GroupRingElement.from_string("0", Q, 2).is_zero()
    assert GroupRingElement.from_string("-t^-1", Q, 1).terms == {(-1,): -1}
    assert (
        GroupRingElement.from_string("1/2*t1*t2^2", Q, 2).terms
        == {(1, 2): Fraction(1, 2)}
    )
    assert GroupRingElement.from_string("1.5", Q, 1).terms == {(0,): Fraction(3, 2)}
    assert GroupRingElement.from_string("2*t1*3", Q, 2).terms == {(1, 0): 6}
    assert GroupRingElement.from_string("t", Z, 1).terms == {(1,): 1}
    assert GroupRingElement.from_string("t1 + t1 - 2*t1", Q, 2).is_zero()
    assert GroupRingElement.from_string("t1 + t1 - 2*t1", Z, 2).is_zero()
    # mod-2 coefficients collapse
    assert GroupRingElement.from_string("t + t", Z2, 1).is_zero()
    assert GroupRingElement.from_string("2", Z2, 1).is_zero()
    assert GroupRingElement.from_string("3*t1 + t1", Z2, 2).is_zero()
    with pytest.raises(InputError):
        GroupRingElement.from_string("u + 1", Q, 1)
    for text, ring, rank, message in (
        ("1/0", Q, 1, "bad factor '1/0' in '1/0'"),
        ("t1 -", Q, 2, "dangling sign in 't1 -'"),
        ("2*", Q, 1, "empty factor in '2*'"),
        ("1/2*t", Z2, 1, "even denominator has no meaning mod 2"),
        ("1/2*t", Z, 1, "1/2 is not an integer coefficient"),
        ("t3", Q, 2, "variable t3 out of range for rank 2"),
        ("t", Q, 2, "bare variable 't' needs rank 1, got rank 2"),
    ):
        with pytest.raises(InputError) as info:
            GroupRingElement.from_string(text, ring, rank)
        assert str(info.value) == message


def character_loop_parse(text, ring, rank):
    """The parser as it was before the sign split became one regex and
    factors were parsed once per call: a loop over characters splits at a
    sign unless it follows '^', a sign, '*' or '/', and every factor is
    matched on its own. Returns the term dict."""
    factor_re = re.compile(r"^t(\d*)(?:\^(-?\d+))?$")
    s = text.replace(" ", "")
    if s in ("", "0"):
        return {}
    chunks = []
    start = 0
    for i in range(1, len(s)):
        if s[i] in "+-" and s[i - 1] not in "^+-*/":
            chunks.append(s[start:i])
            start = i
    chunks.append(s[start:])
    acc = {}
    for chunk in chunks:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise InputError(f"dangling sign in {text!r}")
        exp = [0] * rank
        coeff = sign
        for factor in chunk.split("*"):
            if not factor:
                raise InputError(f"empty factor in {text!r}")
            m = factor_re.match(factor)
            if m:
                idx_text, pow_text = m.groups()
                if idx_text:
                    idx = int(idx_text)
                elif rank == 1:
                    idx = 1
                else:
                    raise InputError(
                        f"bare variable 't' needs rank 1, got rank {rank}"
                    )
                if not 1 <= idx <= rank:
                    raise InputError(f"variable t{idx} out of range for rank {rank}")
                exp[idx - 1] += int(pow_text) if pow_text else 1
            else:
                try:
                    coeff *= int(factor) if factor.isdigit() else Fraction(factor)
                except (ValueError, ZeroDivisionError) as exc:
                    raise InputError(f"bad factor {factor!r} in {text!r}") from exc
        c = ring.coerce(coeff)
        exp = tuple(exp)
        if exp in acc:
            c = ring.add(acc[exp], c)
            if not c:
                del acc[exp]
                continue
        if c:
            acc[exp] = c
    return acc


def outcome(parse, text, ring, rank):
    try:
        return parse(text, ring, rank)
    except InputError as exc:
        return str(exc)


def test_parser_matches_the_character_loop_splitter():
    # sign runs after '^', '+', '-', '*' and '/', empty factors, dangling
    # signs, repeated factors; "1e3*" keeps a decimal exponent short
    tokens = [
        "t", "t1", "t2", "^", "^-", "-", "+", "+-", "--", "*", "/", "2/3*t1",
        "1", "2", "0", " ", "1.5", "1e3*", "t1^2", "*t2^-1", " - t1",
        " + 3*t2", "-1", " + t2^-1", "*t1", "*2",
    ]
    rng = random.Random(12)
    errors = 0
    for _ in range(3000):
        text = "".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
        ring = rng.choice((Q, Z, Z2))
        rank = rng.choice((1, 2, 2))
        new = outcome(
            lambda *a: GroupRingElement.from_string(*a).terms, text, ring, rank
        )
        assert new == outcome(character_loop_parse, text, ring, rank), text
        errors += isinstance(new, str)
    assert 300 < errors < 2700  # both outcomes are exercised


def test_a_shared_memo_parses_as_fresh_parses_do():
    # texts built from few tokens repeat their terms and factors, so many
    # parses of a run are served whole by the memo its earlier parses
    # filled; each outcome, error text included, is that of a parse with
    # no memo
    tokens = [
        "t1", "t2^-1", "2*t1", "-t1", " + t1", " - 1", "1/3*t2", "*t1", "*x",
        " + 2/4", "1e4300*t2", " + 1e4300*t2", "*0", "+", "**t1", " - 2*t1^2",
    ]
    rng = random.Random(13)
    hits = 0
    for ring in (Q, Z, Z2):
        for rank in (1, 2):
            memo = ({}, {})
            for _ in range(400):
                text = "".join(rng.choice(tokens) for _ in range(rng.randint(1, 5)))
                known = len(memo[0]) + len(memo[1])
                shared = outcome(
                    lambda *a: GroupRingElement.from_string(*a, memo).terms,
                    text, ring, rank,
                )
                hits += type(shared) is dict and len(memo[0]) + len(memo[1]) == known
                assert shared == outcome(
                    lambda *a: GroupRingElement.from_string(*a).terms,
                    text, ring, rank,
                ), text
    assert hits > 300


def test_huge_decimal_exponents_are_bad_factors():
    assert GroupRingElement.from_string("1e4300", Q, 1).terms == {(0,): 10**4300}
    for text in ("t1^2*1e10000000", "1e4301", "2.5E99999999999", "1e" + "9" * 5000):
        with pytest.raises(InputError, match="bad factor"):
            GroupRingElement.from_string(text, Q, 2)


def test_indices_and_powers_of_more_than_4300_digits_are_bad_factors():
    # int() reads at most 4300 digits; the range check still comes first
    nines = "9" * 4300
    assert GroupRingElement.from_string(f"t1^-{nines}", Q, 2).terms == {
        (-int(nines), 0): 1
    }
    for factor in (f"t1^{nines}9", f"t1^-{nines}9", f"t0{nines}"):
        with pytest.raises(InputError) as info:
            GroupRingElement.from_string(f"1 + 2*{factor}", Q, 2)
        assert str(info.value) == f"bad factor {factor!r} in {'1 + 2*' + factor!r}"
    with pytest.raises(InputError, match="variable t9 out of range for rank 2"):
        GroupRingElement.from_string(f"t9^{nines}9", Q, 2)


@pytest.mark.parametrize("ring", [Q, Z, Z2])
def test_coefficients_above_10_to_the_4300_are_input_errors(ring):
    # 10^4300 is the largest coefficient, whether one factor, a product of
    # factors or a sum of terms makes it; str() prints one digit fewer
    for text in ("1e4300*t", "1e2150*1e2150*t", "5e4299 + 5e4299"):
        e = GroupRingElement.from_string(text, ring, 1)
        assert e.printable() is (ring is Z2)
    small = GroupRingElement.from_string("9" * 4300 + "*t", ring, 1)
    assert small.printable() and small.to_string() == (
        "t" if ring is Z2 else "9" * 4300 + "*t"
    )
    nines = "9" * 3000
    texts = ["1e4300*10*t", "1e4000*1e4000 + 1", f"{nines}*{nines}", f"1/{nines}*1/{nines}"]
    if ring is not Z2:  # two terms mod 2 add up to 0 or 1
        texts.append("1e4300 - t + 1e4300")
    for text in texts:
        with pytest.raises(InputError, match=r"is above 10\^4300"):
            GroupRingElement.from_string(text, ring, 1)


def test_round_trip_random():
    rng = random.Random(5)
    for ring in (Q, Z, Z2):
        for _ in range(50):
            rank = rng.randint(0, 3)
            x = random_element(rng, ring, rank)
            again = GroupRingElement.from_string(x.to_string(), ring, rank)
            assert again == x


def test_round_trip_of_long_entries():
    # hidden-complex entries hold up to ~150 monomials
    rng = random.Random(83)
    exps = [(a, b, c) for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)]
    for ring in (Q, Z, Z2):
        for _ in range(4):
            coeffs = [1] if ring is Z2 else [-3, -1, 1, 2, 5]
            if ring is Q:
                coeffs += [Fraction(1, 2), Fraction(-7, 3)]
            x = GroupRingElement(
                ring, 3, {e: rng.choice(coeffs) for e in rng.sample(exps, 150)}
            )
            assert len(x.terms) == 150
            again = GroupRingElement.from_string(x.to_string(), ring, 3)
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
    assert (x * x).terms == {(0,): 1, (2,): 1}


def pushed(x, q):
    """x pushed along the quotient q, as `EquivariantComplex.specialize`
    pushes each stored entry."""
    terms = x.pushed_terms(q.images(x.terms))
    return GroupRingElement.of_terms(x.ring, q.rank_out, terms)


def test_specialize_collision_cancels():
    # t1 - t2 dies under (x, y) -> x + y
    q = quotient_map([CohomologyClass((1, 1))])
    x = GroupRingElement.from_string("t1 - t2", Q, 2)
    assert pushed(x, q).is_zero()


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
            assert pushed(a * b, q) == pushed(a, q) * pushed(b, q)
            assert pushed(a + b, q) == pushed(a, q) + pushed(b, q)
        one = GroupRingElement.one(Q, 3)
        assert pushed(one, q) == GroupRingElement.one(Q, q.rank_out)


def test_rank_of_torus_column_is_one():
    # frozen derived value: the column [(t1 - 1), (t2 - 1)] has rank 1
    col = [
        [GroupRingElement.from_string("t1 - 1", Q, 2)],
        [GroupRingElement.from_string("t2 - 1", Q, 2)],
    ]
    res = matrix_rank_fraction_field(col)
    assert res.rank == 1
    assert res.exact
    assert res.method == "modular"  # full rank at the point certifies it
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
    # all-zero matrices with and without deck variables; zero rows and
    # columns inside a nonzero matrix; Z coefficients
    def matrix(texts, ring=Q, rank=2):
        return [[GroupRingElement.from_string(e, ring, rank) for e in row] for row in texts]

    for rows, expected in (
        (matrix([["0", "0", "0"], ["0", "0", "0"]]), (0, True, "fraction-free")),
        (matrix([["0", "0"]] * 3, rank=0), (0, True, "constant")),
        (matrix([["t1 - 1", "0", "t2"], ["0", "0", "0"], ["t1^2 - t1", "0", "t1*t2"]]),
         (1, True, "fraction-free")),
        (matrix([["0", "0", "0"], ["t1", "0", "1 - t2"], ["0", "0", "0"],
                 ["0", "0", "3"]]), (2, True, "fraction-free")),
        (matrix([["2*t1 - 3", "t2", "0"], ["4*t1 - 6", "2*t2", "0"]], Z),
         (1, True, "fraction-free")),
        (matrix([["2", "0", "-3"], ["0", "0", "0"], ["4", "0", "-6"]], Z, 0),
         (1, True, "constant")),
    ):
        assert matrix_rank_fraction_field(rows) == expected
        assert sympy_rank(rows) == expected[0]


@pytest.mark.parametrize(
    "ring, rank, route",
    [
        (Z, 2, "fraction-free"),
        (Q, 2, "fraction-free"),
        (Z2, 2, "fraction-free"),
        (Q, 0, "constant"),
    ],
)
def test_integer_bareiss_against_sympy_on_dependent_rows(ring, rank, route):
    # one or two rows are polynomial combinations of the others, so with no
    # more rows than columns the rank is never full and a matrix with deck
    # variables cannot be certified at the point
    rng = random.Random({Z: 67, Q: 71, Z2: 73}[ring] + rank)

    def random_entry(nterms):
        # coefficients up to 4 in size, times p/q with q up to 4 over Q
        x = random_element(rng, ring, rank, nterms=nterms, span=1)
        if ring is Q:
            c = Fraction(rng.randint(1, 3), rng.randint(1, 4))
            return x * GroupRingElement.monomial(ring, rank, (0,) * rank, c)
        return x

    ranks = set()
    for seed in range(12):
        n = rng.randint(2, 4)
        m = rng.randint(n, 5)
        rows = [[random_entry(3) for _ in range(m)] for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(1, 2)):
            combo = [GroupRingElement.zero(ring, rank)] * m
            for j in range(n):
                if j != i:
                    f = random_entry(2)
                    combo = [c + f * x for c, x in zip(combo, rows[j])]
            rows[i] = combo
        got = matrix_rank_fraction_field(rows, seed=seed)
        assert got == (sympy_rank(rows), True, route)
        ranks.add(got.rank)
    assert len(ranks) >= 2


def test_mod2_fallback_on_single_monomial_entries():
    # the main-check shape: a rank-deficient Z/2 matrix of single monomials
    # and zeros. Diagonal blocks are rank-1 blocks x^(a_i + b_j) and 2x2
    # blocks with m1*m4 != m2*m3; rows and columns are then scaled by
    # monomials and permuted, which keeps the rank and the shape
    rng = random.Random(79)

    def mono():
        return (rng.randint(-2, 2), rng.randint(-2, 2))

    def plus(*exps):
        return tuple(map(sum, zip(*exps)))

    for seed in range(4):
        entries, n, m, rank = {}, 0, 0, 0
        for kind in rng.sample(["one"] * 3 + ["two"] * 2, 5):
            if kind == "one":
                r, c = rng.randint(2, 3), rng.randint(2, 3)
                alpha = [mono() for _ in range(r)]
                beta = [mono() for _ in range(c)]
                for i in range(r):
                    for j in range(c):
                        entries[n + i, m + j] = plus(alpha[i], beta[j])
                rank += 1
            else:
                r = c = 2
                m1, m2, m3, m4 = mono(), mono(), mono(), mono()
                while plus(m1, m4) == plus(m2, m3):
                    m4 = mono()
                entries.update({
                    (n, m): m1, (n, m + 1): m2, (n + 1, m): m3, (n + 1, m + 1): m4
                })
                rank += 2
            n, m = n + r, m + c
        row_unit = [mono() for _ in range(n)]
        col_unit = [mono() for _ in range(m)]
        row_of = rng.sample(range(n), n)
        col_of = rng.sample(range(m), m)
        zero = GroupRingElement.zero(Z2, 2)
        rows = [[zero] * m for _ in range(n)]
        for (i, j), exp in entries.items():
            rows[row_of[i]][col_of[j]] = GroupRingElement.monomial(
                Z2, 2, plus(exp, row_unit[i], col_unit[j])
            )
        assert min(n, m) >= 8 and rank < min(n, m)
        got = matrix_rank_fraction_field(rows, seed=seed)
        assert got == (rank, True, "fraction-free")
        assert sympy_rank(rows) == rank


@pytest.mark.parametrize("ring", [Q, Z, Z2])
def test_bareiss_at_deck_rank_3_against_sympy(ring, monkeypatch):
    # exponents from -3 to 3 in three variables and up to 6 rows, so that
    # the products a*x - b*y reach the degree bound S_v of the minors, half
    # way up the packing box (radix 2 * S_v + 1)
    rng = random.Random({Q: 83, Z: 89, Z2: 97}[ring])
    mul_sub, reached = groupring._mul_sub, []

    def spy(a, x, b, y, mod2):
        out = mul_sub(a, x, b, y, mod2)
        weights, radices = packing
        reached[-1] |= any(
            key // w % r >= r // 2 for key in out for w, r in zip(weights, radices)
        )
        return out

    monkeypatch.setattr(groupring, "_mul_sub", spy)

    def random_entry(nterms):
        x = random_element(rng, ring, 3, nterms=nterms, span=3)
        if ring is Q:
            c = Fraction(rng.randint(1, 3), rng.randint(1, 4))
            return x * GroupRingElement.monomial(ring, 3, (0, 0, 0), c)
        return x

    ranks = set()
    for _ in range(5):
        n = rng.randint(3, 6)
        m = rng.randint(n, 6)
        rows = [[random_entry(2) for _ in range(m)] for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(1, 2)):
            combo = [GroupRingElement.zero(ring, 3)] * m
            for j in rng.sample([j for j in range(n) if j != i], 2):
                f = random_entry(1)
                combo = [c + f * x for c, x in zip(combo, rows[j])]
            rows[i] = combo
        _, packing = groupring._normal_form(sparse(rows), ring, 3)
        reached.append(False)
        rank = bareiss(rows)
        assert rank == sympy_rank(rows)
        ranks.add(rank)
    assert len(ranks) >= 2
    assert sum(reached) >= 3


def random_unit(rng, ring, rank):
    exp = tuple(rng.randint(-2, 2) for _ in range(rank))
    return GroupRingElement.monomial(ring, rank, exp, rng.choice((1, -1)))


def random_non_unit(rng, ring, rank):
    """A nonzero entry that is no pivot of the unit phase: two or more
    terms, or a coefficient other than +-1 (a true fraction now and then
    over Q). None when there is none: every nonzero constant mod 2 is 1."""
    if ring is Z2 and rank == 0:
        return None
    while True:
        x = random_element(rng, ring, rank, nterms=3, span=1)
        if ring is Q and rng.random() < 0.4:
            c = Fraction(rng.randint(1, 3), rng.randint(2, 4))
            x = x * GroupRingElement.monomial(ring, rank, (0,) * rank, c)
        if x.terms and x.unit_monomial() is None:
            return x


def unit_phase_matrix(rng, ring, rank, kind):
    """A seeded n x m matrix of one kind: "mixed" (zeros, units and
    non-units), "dense" (every entry a unit, so eliminations fill in) or
    "none" (no unit entry). A dependent row (a combination of two others
    with unit factors), a zero row and a zero column come in at random."""
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    zero = GroupRingElement.zero(ring, rank)

    def entry():
        if kind == "dense":
            return random_unit(rng, ring, rank)
        roll = rng.random()
        if roll < 0.35:
            return zero
        if kind == "mixed" and roll < 0.7:
            return random_unit(rng, ring, rank)
        return random_non_unit(rng, ring, rank) or zero

    rows = [[entry() for _ in range(m)] for _ in range(n)]
    if n >= 3 and kind != "none" and rng.random() < 0.6:
        a, b, c = rng.sample(range(n), 3)
        f, g = random_unit(rng, ring, rank), random_unit(rng, ring, rank)
        rows[c] = [f * x + g * y for x, y in zip(rows[a], rows[b])]
    if rng.random() < 0.3:
        rows[rng.randrange(n)] = [zero] * m
    if rng.random() < 0.3:
        j = rng.randrange(m)
        for row in rows:
            row[j] = zero
    return rows


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
@pytest.mark.parametrize("ring", [Q, Z, Z2])
def test_unit_phase_then_bareiss_against_sympy(ring, rank):
    rng = random.Random(f"unit-phase {ring.value} {rank}")
    ranks, both = set(), 0
    kinds = ["mixed", "dense"] + ([] if ring is Z2 and rank == 0 else ["none"])
    for trial in range(24 if rank < 3 else 12):
        kind = kinds[trial % len(kinds)]
        rows = unit_phase_matrix(rng, ring, rank, kind)
        terms = [[dict(e.terms) for e in row] for row in rows]
        pivots, left = groupring._unit_eliminate(sparse(rows), ring, rank)
        got = pivots + _bareiss_rank(left, ring, rank)
        assert got == bareiss(rows) == sympy_rank(rows), (kind, rows)
        assert [[e.terms for e in row] for row in rows] == terms  # unchanged
        assert all(left) and len(left) <= len(rows) - pivots
        if kind == "none":
            assert pivots == 0 and len(left) == sum(1 for row in sparse(rows) if row)
        if kind == "dense":
            assert pivots >= 1 or not any(sparse(rows))
        if ring is Z2 and rank == 0:  # every nonzero entry is a unit
            assert left == []
        both += bool(pivots and left)
        ranks.add(got)
    assert len(ranks) >= 3
    assert both >= 2 or (ring is Z2 and rank == 0)  # both phases ran


@pytest.mark.parametrize("ring, rank, texts", [
    (Q, 0, [["2", "3"], ["1", "1"]]),
    (Z, 0, [["2", "3"], ["1", "1"]]),
    (Z, 2, [["2*t1", "3*t1"], ["t2", "t2"]]),
    (Z2, 2, [["t1 + 1", "t1 + t2 + 1"], ["1", "1"]]),
])
def test_unit_phase_revisits_a_row_that_gains_a_unit(ring, rank, texts):
    # row 0 has no unit entry until the pivot of row 1 leaves a unit
    # monomial in its second column
    rows = [[GroupRingElement.from_string(t, ring, rank) for t in row] for row in texts]
    assert groupring._unit_eliminate(sparse(rows), ring, rank) == (2, [])


def packed(terms, weights):
    return {sum(e * w for e, w in zip(exp, weights)): c for exp, c in terms.items()}


def tuple_exact_div(num, den, mod2):
    """Reference: exact division on exponent-tuple dicts with nonnegative
    exponents, raising ArithmeticError on a negative quotient exponent or
    an inexact coefficient."""
    d_exp = max(den)
    rem, quot = dict(num), {}
    while rem:
        r_exp = max(rem)
        q_exp = tuple(a - b for a, b in zip(r_exp, d_exp))
        q, inexact = divmod(rem[r_exp], den[d_exp])
        if min(q_exp) < 0 or inexact:
            raise ArithmeticError
        quot[q_exp] = q
        for exp, c in den.items():
            exp = tuple(a + b for a, b in zip(q_exp, exp))
            r = rem.get(exp, 0) - q * c
            if mod2:
                r &= 1
            if r:
                rem[exp] = r
            else:
                del rem[exp]
    return quot


@pytest.mark.parametrize("ring", [Z, Z2])
def test_packed_division_raises_on_a_borrow(ring):
    mod2 = ring is Z2
    t1, t2, one = (GroupRingElement.from_string(s, ring, 2) for s in ("t1", "t2", "1"))
    for num, den in ((t1, t2), (t1 + one, t2 + one)):
        (row,), packing = groupring._normal_form([{0: num, 1: den}], ring, 2)
        divisor = groupring._divisor(row[1], packing)
        # the largest key of num is above the leading key of den, so the
        # quotient key is >= 0 while its t2 exponent is -1
        assert max(row[0]) >= divisor[1]
        with pytest.raises(ArithmeticError):
            groupring._exact_div(row[0], divisor, mod2)


def test_packed_division_raises_on_a_carry():
    # t1*t2 + t1 = t2 * (t1 + t2^6) + t1 - t2^7 is no multiple of t1 + t2^6,
    # but with radices (3, 7) t2^7 would pack to the key of t1: without the
    # carry bound the division would come out exact with quotient t2
    radices = [3, 7]
    weights = groupring.kronecker_weights(radices)
    assert weights == [7, 1]
    num = packed({(1, 1): 1, (1, 0): 1}, weights)
    den = packed({(1, 0): 1, (0, 6): 1}, weights)
    with pytest.raises(ArithmeticError):
        groupring._exact_div(num, groupring._divisor(den, (weights, radices)), False)
    with pytest.raises(ArithmeticError):
        tuple_exact_div({(1, 1): 1, (1, 0): 1}, {(1, 0): 1, (0, 6): 1}, False)


@pytest.mark.parametrize("ring", [Z, Z2])
def test_packed_division_matches_the_exponent_division(ring):
    # in boxes with little or no room to spare, packed division raises
    # exactly when division on exponent tuples does, and else gives the
    # same quotient
    mod2 = ring is Z2
    rng = random.Random(101 if mod2 else 103)

    def poly(nvars, nterms):
        terms = {}
        for _ in range(nterms):
            exp = tuple(rng.randint(0, 3) for _ in range(nvars))
            terms[exp] = 1 if mod2 else rng.choice((1, -1, 2, -3))
        return terms

    def summed(terms):
        out = {}
        for exp, c in terms:
            out[exp] = out.get(exp, 0) + c
        return {e: c % 2 if mod2 else c for e, c in out.items() if (c % 2 if mod2 else c)}

    outcomes = {"exact": 0, "raised": 0, "carried": 0}
    for _ in range(300):
        nvars = rng.randint(1, 3)
        den = poly(nvars, rng.randint(1, 3))
        quot = poly(nvars, rng.randint(1, 3))
        kind = rng.choice(("exact", "perturbed", "carried"))
        if kind == "carried":
            # the product taken on packed keys in a box too small for it,
            # so that digits carry; its exponent form is then (mostly) no
            # multiple of den, though its packed form is
            radices = [max(e[v] for e in (*den, *quot)) + 1 for v in range(nvars)]
            radices[0] *= 2  # room for the carries into the top digit
            weights = groupring.kronecker_weights(radices)
            num = {
                tuple(key // w % r for w, r in zip(weights, radices)): c
                for key, c in summed(
                    (k1 + k2, c1 * c2)
                    for k1, c1 in packed(quot, weights).items()
                    for k2, c2 in packed(den, weights).items()
                ).items()
            }
        else:
            num = summed(
                (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                for e1, c1 in quot.items()
                for e2, c2 in den.items()
            )
            if kind == "perturbed":  # hence mostly inexact
                num = summed([*num.items(), *poly(nvars, rng.randint(1, 2)).items()])
            radices = [
                max(e[v] for e in (*num, *den)) + 1 + rng.randint(0, 1)
                for v in range(nvars)
            ]
            weights = groupring.kronecker_weights(radices)
        if not num:
            continue
        divisor = groupring._divisor(packed(den, weights), (weights, radices))
        try:
            expected = tuple_exact_div(num, den, mod2)
        except ArithmeticError:
            expected = None
        try:
            quot = groupring._exact_div(packed(num, weights), divisor, mod2)
            got = {
                tuple(key // w % r for w, r in zip(weights, radices)): c
                for key, c in quot.items()
            }
        except ArithmeticError:
            got = None
        assert got == expected
        outcomes["raised" if got is None else "exact"] += 1
        outcomes["carried"] += kind == "carried" and got is None
    assert min(outcomes.values()) >= 30


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
        assert got == (bareiss(rows), True, "constant")


def test_evaluation_route_is_a_labelled_lower_bound():
    # 65 rows (t1 - 1, t2 - 1) times unit monomials have rank 1 < 2 columns:
    # a lone matrix cannot certify that, and above 64 rows over Q and Z
    # there is no elimination fallback, so the point rank comes back inexact
    rng = random.Random(47)
    for ring in (Q, Z):
        rows = []
        for _ in range(65):
            unit = GroupRingElement.monomial(
                ring, 2, (rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice((1, -1))
            )
            rows.append([
                unit * GroupRingElement.from_string("t1 - 1", ring, 2),
                unit * GroupRingElement.from_string("t2 - 1", ring, 2),
            ])
        # the same matrix as the one boundary of a complex, in a chain
        names = [[f"v{i}" for i in range(65)], ["a", "b"]]
        X = EquivariantComplex(ring, 2, names, [rows])
        for seed in range(5):
            assert matrix_rank_fraction_field(rows, seed=seed) == (1, False, "evaluation")
            assert groupring.chain_ranks(X, seed=seed) == [(1, False, "evaluation")]


def point_rank(rows, seed):
    ring = rows[0][0].ring
    point = groupring._point(ring, rows[0][0].rank, seed)
    return groupring._point_rank(sparse(rows), ring, point, {})


def as_rational(rows):
    return [[GroupRingElement(Q, e.rank, e.terms) for e in row] for row in rows]


def test_point_rank_agrees_with_bareiss():
    # the rank at a point is a lower bound for every ring and seed; mod p
    # with p = 2^61 - 1 it meets the rank on these small matrices, and in
    # GF(2^16) it does at most seeds
    rng = random.Random(41)
    hits = 0
    for trial in range(30):
        ring = (Q, Z, Z2)[trial % 3]
        rank = rng.randint(1, 2)
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [
            [random_element(rng, ring, rank, nterms=2, span=1) for _ in range(m)]
            for _ in range(n)
        ]
        exact = bareiss(as_rational(rows) if ring is Z else rows)
        for seed in range(3):
            bound = point_rank(rows, seed)
            assert bound <= exact
            if ring is Z2:
                hits += bound == exact
            else:
                assert bound == exact
    assert hits >= 25


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
        spec = [[pushed(e, q) for e in row] for row in rows]
        specialized = matrix_rank_fraction_field(spec).rank
        assert specialized <= full
        # the rank at a random point mod p reaches the full rank
        assert point_rank(rows, 0) == full


def test_fractional_coefficients_evaluate_through_inverses():
    # the rows (t/2, t) and (1, 2) are proportional: rank 1, never full
    rows = [
        [GroupRingElement.from_string("1/2*t", Q, 1), GroupRingElement.from_string("t", Q, 1)],
        [GroupRingElement.from_string("1", Q, 1), GroupRingElement.from_string("2", Q, 1)],
    ]
    assert matrix_rank_fraction_field(rows) == (1, True, "fraction-free")
    rng = random.Random(61)
    for _ in range(20):
        rows = [
            [
                GroupRingElement(Q, 2, {
                    (rng.randint(-1, 1), rng.randint(-1, 1)):
                        Fraction(rng.randint(-3, 3), rng.randint(1, 5))
                    for _ in range(2)
                })
                for _ in range(3)
            ]
            for _ in range(2)
        ]
        c = GroupRingElement.monomial(Q, 2, (0, 0), Fraction(2, 3))
        rows.append([x + y * c for x, y in zip(*rows)])
        assert point_rank(rows, 0) == bareiss(rows)


def test_evaluate_mod_p_matches_the_pow_formula():
    # each coordinate is inverted once; every monomial, negative exponents
    # included, takes the value sum(c * prod(pow(x, k, p))) at the residues
    p = groupring._P
    rng = random.Random(67)
    for trial in range(30):
        ring = (Q, Z)[trial % 2]
        nvars = rng.randint(1, 4)
        point = groupring._point(ring, nvars, trial)
        assert all(x * x_inv % p == 1 for x, x_inv in point)
        rows = [
            {
                j: random_element(rng, ring, nvars, nterms=4, span=5)
                for j in range(rng.randint(0, 4))
            }
            for _ in range(rng.randint(1, 4))
        ]
        if ring is Q:
            for row in rows:
                for j, e in row.items():
                    row[j] = e * GroupRingElement.monomial(
                        Q, nvars, (0,) * nvars, Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    )
        expected = []
        for row in rows:
            values = {}
            for j, e in row.items():
                acc = 0
                for exp, c in e.terms.items():
                    mono = 1
                    for (x, _), k in zip(point, exp):
                        mono = mono * pow(x, k, p) % p
                    c = Fraction(c)
                    acc += c.numerator * pow(c.denominator, -1, p) * mono
                if acc % p:
                    values[j] = acc % p
            expected.append(values)
        monomials = {}
        assert groupring._evaluate_mod_p(rows, point, monomials) == expected
        # a second call reads the same values from the cache
        assert groupring._evaluate_mod_p(rows, point, monomials) == expected


def gf_mul(a, b):
    exp, log = groupring._gf_tables()
    return exp[log[a] + log[b]] if a and b else 0


def gf_dense_rank(rows, m):
    """Reference: dense Gaussian elimination over GF(2^16) on the tables,
    where x - y = x + y = x ^ y."""
    exp, log = groupring._gf_tables()
    M = [[row.get(j, 0) for j in range(m)] for row in rows]
    rank = 0
    for c in range(m):
        p = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if p is None:
            continue
        M[rank], M[p] = M[p], M[rank]
        a_inv = exp[-log[M[rank][c]] % groupring._GF_ORDER]
        for i in range(rank + 1, len(M)):
            f = gf_mul(M[i][c], a_inv)
            M[i] = [x ^ gf_mul(f, y) for x, y in zip(M[i], M[rank])]
        rank += 1
    return rank


def mod_p_dense_rank(rows, m):
    """Reference: sympy's rank over GF(2^61 - 1)."""
    K = sympy.GF(groupring._P)
    dense = [[K(row.get(j, 0)) for j in range(m)] for row in rows]
    return DomainMatrix(dense, (len(rows), m), K).rank()


# field -> (random nonzero value, product, sum, the loop's arithmetic,
# dense reference rank)
FIELDS = {
    "mod p": (
        lambda rng: rng.randrange(1, groupring._P),
        lambda a, b: a * b % groupring._P,
        lambda a, b: (a + b) % groupring._P,
        lambda: groupring._MOD_P,
        mod_p_dense_rank,
    ),
    "GF(2^16)": (
        lambda rng: rng.randrange(1, 1 << 16),
        gf_mul,
        lambda a, b: a ^ b,
        groupring._gf_arithmetic,
        gf_dense_rank,
    ),
}


def thin_product(rng, n, m, r, field):
    """Sparse rows {column: value} of an n x m matrix U * V of rank r, for
    thin random factors U (n x r) and V (r x m) with one to three entries
    per row of U and column of V. r rows of U and r columns of V are the
    unit vectors e_0, ..., e_{r-1}, so U * V holds I_r there and its rank
    is r; some other rows of U and columns of V are zero, which leaves
    empty rows and columns."""
    value, mul, add = FIELDS[field][:3]
    unit_rows = dict(zip(rng.sample(range(n), r), range(r)))
    unit_cols = dict(zip(rng.sample(range(m), r), range(r)))

    def thin(index, units):
        if index in units:
            return {units[index]: 1}
        if not r or rng.random() < 0.15:
            return {}
        return {k: value(rng) for k in rng.sample(range(r), rng.randint(1, min(3, r)))}

    U = [thin(i, unit_rows) for i in range(n)]
    V = [{} for _ in range(r)]  # rows of V
    for c in range(m):
        for k, v in thin(c, unit_cols).items():
            V[k][c] = v
    rows = []
    for u in U:
        row = {}
        for k, f in u.items():
            for c, v in V[k].items():
                row[c] = add(row.get(c, 0), mul(f, v))
        rows.append({c: x for c, x in row.items() if x})
    return rows


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("n, m, r", [
    (1, 1, 1), (1, 5, 0), (20, 20, 5), (90, 80, 50), (40, 110, 30), (100, 73, 73),
])
def test_eliminate_over_the_point_fields_against_a_dense_reference(field, n, m, r):
    # every stored entry of a field pivots: the pivot count is the rank,
    # no row is left, and neither depends on the order of rows or columns
    rng = random.Random(f"{field} {n} {m} {r}")
    *_, arithmetic, reference = FIELDS[field]
    rows = thin_product(rng, n, m, r, field)
    assert any(not row for row in rows) or n == r  # an empty row
    assert len(set().union(*rows)) < m or m == r  # an empty column
    assert reference(rows, m) == r
    for trial in range(3):
        order = list(range(m))
        if trial:
            rng.shuffle(rows)
            rng.shuffle(order)
        copy = [{order[j]: x for j, x in row.items()} for row in rows]
        assert groupring._eliminate(copy, arithmetic()) == (r, [])


def test_denominator_divisible_by_p_takes_the_fallback():
    p = groupring._P
    entry = GroupRingElement(Q, 1, {(1,): Fraction(1, p), (0,): 1})
    assert point_rank([[entry]], 0) == 0  # outside the domain: bound 0
    assert matrix_rank_fraction_field([[entry]]) == (1, True, "fraction-free")
    # no entry is a unit, so the unit phase leaves all 65 rows to Bareiss,
    # above its limit
    t = GroupRingElement.from_string("t", Q, 1)
    tall = [[entry]] + [[t - GroupRingElement.one(Q, 1)]] * 64
    assert matrix_rank_fraction_field(tall) == (0, False, "evaluation")
    # in a chain, the other boundary is ranked at the point as usual
    d1 = [[entry, -entry]]
    d2 = [[t], [t]]
    X = EquivariantComplex(Q, 1, [["v"], ["a", "b"], ["f"]], [d1, d2])
    assert [r.method for r in groupring.chain_ranks(X)] == [
        "fraction-free", "modular",
    ]


@pytest.mark.parametrize("ring", [Q, Z, Z2])
def test_rank_deficient_lone_matrix_is_never_certified(ring):
    # rows r1, r2 and r1 + u * r2 are dependent: rank at most 2 of 3
    rng = random.Random(59)
    for seed in range(10):
        r1 = [random_element(rng, ring, 2, nterms=3) for _ in range(3)]
        r2 = [random_element(rng, ring, 2, nterms=3) for _ in range(3)]
        u = GroupRingElement.monomial(ring, 2, (1, -1))
        rows = [r1, r2, [a + u * b for a, b in zip(r1, r2)]]
        got = matrix_rank_fraction_field(rows, seed=seed)
        assert got.method == "fraction-free"
        assert got.rank == bareiss(as_rational(rows) if ring is Z else rows)


def test_specialize_maps_stored_entries_only(monkeypatch):
    pushes, applied = [], []
    push, map_images = GroupRingElement.pushed_terms, LatticeMap.images

    def push_spy(self, images):
        pushes.append(self)
        return push(self, images)

    def images_spy(self, exponents):
        exponents = list(exponents)
        applied.extend(exponents)
        return map_images(self, exponents)

    monkeypatch.setattr(GroupRingElement, "pushed_terms", push_spy)
    monkeypatch.setattr(LatticeMap, "images", images_spy)
    q = quotient_map([CohomologyClass((1, 1))])
    t = GroupRingElement.from_string("t1 - t2 + 1", Q, 2)
    cancels = GroupRingElement.from_string("t1 - t2", Q, 2)
    zero = GroupRingElement.zero(Q, 2)
    X = EquivariantComplex(
        Q, 2, [["v", "w"], ["e", "f", "g"]], [[[t, zero, t], [cancels, zero, zero]]]
    )
    Y = X.specialize(q)
    # one push per distinct stored element (t is stored twice), none per zero
    assert pushes == [t, cancels]
    # one image per distinct exponent: t1, t2 and 1
    assert sorted(applied) == [(0, 0), (0, 1), (1, 0)]
    # t1 - t2 vanishes on the quotient and is not stored
    one = GroupRingElement.one(Q, 1)
    assert Y.columns == (({0: one}, {}, {0: one}),)
    assert Y.to_json()["boundaries"] == [[["1", "0", "1"], ["0", "0", "0"]]]


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
