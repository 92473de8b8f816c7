"""Exact group-ring arithmetic for free-abelian deck lattices.

Elements are finite sums of monomials t1^e1 * ... * tr^er with coefficients
in Z, Q, or Z/2, stored as a dict from exponent tuples to nonzero
coefficients. Coefficients are ints, except that over Q a true fraction is
a Fraction: `CoefficientRing.coerce` and `invert` return an int whenever
the value is integral, so integral input is parsed, multiplied, summed and
ranked in int arithmetic. (Arithmetic on true fractions may leave a
Fraction with denominator 1; it equals and hashes like the int and prints
the same.) The text form is the canonical interface used in JSON
documents, for example "3*t1^2*t2^-1 + 1" (terms sorted by descending
lexicographic exponent). Rank-1 elements may use the bare variable "t".

Matrix rank over the fraction field of the (Laurent) polynomial ring is
taken on sparse rows {column: element} of the nonzero entries
(`chain_ranks`, `matrix_rank_fraction_field`): exactly when they are
constants, else at a seeded random point (in F_p with p = 2^61 - 1 over Z
and Q, in GF(2^16) over Z/2), where the rank is a proved lower bound.
`chain_ranks` certifies it as the exact rank or falls back to the exact
rank, or, over Z or Q when the unit phase leaves more than 64 rows or
columns, reports it as a labelled lower bound (route "evaluation",
exact=False).

One sparse elimination loop, `_eliminate`, serves the rank at the point
and the first phase of the exact rank. A row pivots on its admissible
entry whose column stores the fewest entries (a column -> rows index is
kept), and only the rows that store an entry in that column are updated.
Four arithmetics plug into it: F_p and GF(2^16), where every stored entry
pivots, and the units of R[Z^n] as constants +-1 or as monomials +-t^e
(t^e over Z/2). Three kernels stay apart: `_gf2_rank`, whose int bitmask
rows rank constant Z/2 boundaries at a tenth of the loop's cost;
`_bareiss_rank`, whose fraction-free update runs over every row below the
pivot; and the truncated-series rank of the oracle
(`homology._series_rank`), kept independent on purpose: it eliminates on
rows of {height: coefficient} series, lifted once per oracle call, and
clears each row with one windowed series division by the pivot.

The exact rank has two phases. `_unit_eliminate` runs
the loop on the unit arithmetics; its row operations are invertible over
R[Z^n], so the rank is the pivot count plus the rank of the rows left.
Fraction-free (Bareiss) elimination (`_bareiss_rank`) ranks those. Before
it each row is multiplied by a unit of the fraction field that clears its
negative exponents and its denominators, which keeps the rank. The
polynomials are then packed-key -> int dicts with coefficients in Z (mod
2 over Z/2), each exponent vector one int key of a mixed-radix Kronecker
map sized so that every Bareiss entry stays where the map is injective
and ordered (`_normal_form`). In the fallback of an uncertified rank
over Z and Q, Bareiss is capped at 64 rows left and 64 columns stored
in them (`_BAREISS_LIMIT`), because Bareiss on a large remainder without
units can take minutes.
"""

from __future__ import annotations

import enum
import functools
import math
import random
import re
from array import array
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import InputError
from .lattice import _BIG, MAX_DECIMAL_EXPONENT, _read_decimal, _size


class CoefficientRing(enum.Enum):
    """Ground coefficients: integers, rationals, or the two-element field."""

    INT = "Z"
    RAT = "Q"
    MOD2 = "Z2"

    @classmethod
    def from_tag(cls, tag: str) -> "CoefficientRing":
        for ring in cls:
            if ring.value == tag:
                return ring
        raise InputError(f"unknown coefficient ring tag {tag!r}")

    def coerce(self, value):
        """Normalize a raw coefficient into this ring (may normalize to 0).

        Over Q the result is an int when the value is integral and a
        Fraction only when it is not; over Z and Z/2 it is always an int.
        """
        if isinstance(value, bool):
            raise InputError("booleans are not coefficients")
        if self is CoefficientRing.MOD2:
            if isinstance(value, Fraction):
                if value.denominator % 2 == 0:
                    raise InputError("even denominator has no meaning mod 2")
                value = value.numerator * value.denominator
            return int(value) % 2
        if self is CoefficientRing.RAT:
            if isinstance(value, int):
                return value
            value = Fraction(value)
            return value.numerator if value.denominator == 1 else value
        if isinstance(value, Fraction):
            if value.denominator != 1:
                if _size(value) >= _BIG:  # str() would pass the digit limit
                    value = f"a fraction of more than {MAX_DECIMAL_EXPONENT} digits"
                raise InputError(f"{value} is not an integer coefficient")
            return int(value)
        return int(value)

    def add(self, a, b):
        if self is CoefficientRing.MOD2:
            return (a + b) % 2
        return a + b

    def mul(self, a, b):
        if self is CoefficientRing.MOD2:
            return (a * b) % 2
        return a * b

    def neg(self, a):
        if self is CoefficientRing.MOD2:
            return a
        return -a

    def invert(self, a):
        if self is CoefficientRing.MOD2:
            if a % 2 == 0:
                raise InputError("0 is not invertible")
            return 1
        if a in (1, -1):
            return int(a)
        if self is CoefficientRing.RAT:
            if a == 0:
                raise InputError("0 is not invertible")
            return self.coerce(Fraction(a.denominator, a.numerator))
        raise InputError(f"{a} is not a unit in Z")


_TERM_FACTOR = re.compile(r"^t(\d*)(?:\^(-?\d+))?$")
# a sign starts a new term unless it follows '^', a sign, '*' or '/'
_TERM = re.compile(r".[^+-]*(?:(?<=[\^+\-*/])[+-][^+-]*)*", re.S)


def _long_coefficient(text):
    return InputError(
        f"a coefficient of {text!r} is above 10^{MAX_DECIMAL_EXPONENT}"
    )


class GroupRingElement:
    """An element of R[Z^rank] with R one of the coefficient rings.

    Instances are immutable, and the code relies on it: `ingest` hands one
    element to every entry with the same text and `specialize` on a
    complex pushes each distinct element once, so no code may change
    `terms` after construction. All arithmetic returns fresh elements and
    zero coefficients are never stored.
    """

    __slots__ = ("ring", "rank", "terms")

    def __init__(self, ring: CoefficientRing, rank: int, terms=None):
        self.ring = ring
        self.rank = rank
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != rank:
                raise InputError(
                    f"exponent {exp} has length {len(exp)}, expected {rank}"
                )
            c = ring.coerce(coeff)
            if c == 0:
                continue
            if exp in clean:
                c = ring.add(clean[exp], c)
                if c == 0:
                    del clean[exp]
                    continue
            clean[exp] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring, rank):
        return cls(ring, rank, {})

    @classmethod
    def of_terms(cls, ring, rank, terms):
        """The element with these terms, which must already be clean:
        exponent tuples of length rank to nonzero coefficients of ring.
        Nothing is checked or copied."""
        e = object.__new__(cls)
        e.ring, e.rank, e.terms = ring, rank, terms
        return e

    @classmethod
    def one(cls, ring, rank):
        return cls(ring, rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, ring, rank, exponent, coeff=1):
        return cls(ring, rank, {tuple(exponent): coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        """Terms by descending lexicographic exponent (canonical order)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def unit_monomial(self):
        """(exponent, coeff) if this is a single monomial with coefficient
        +-1 (1 mod 2); None otherwise. These are the incidences a Morse
        matching may invert without leaving the group ring."""
        if len(self.terms) != 1:
            return None
        ((exp, coeff),) = self.terms.items()
        if self.ring is CoefficientRing.MOD2:
            return (exp, coeff)
        if coeff in (1, -1):
            return (exp, coeff)
        return None

    def monomial_inverse(self):
        """Inverse of a single-monomial element whose coefficient is a unit."""
        if len(self.terms) != 1:
            raise InputError("only single monomials can be inverted here")
        ((exp, coeff),) = self.terms.items()
        inv = self.ring.invert(coeff)
        return GroupRingElement(
            self.ring, self.rank, {tuple(-e for e in exp): inv}
        )

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, GroupRingElement):
            raise InputError(f"cannot combine with {type(other)!r}")
        if other.ring is not self.ring or other.rank != self.rank:
            raise InputError(
                f"ring/rank mismatch: {self.ring.value}[Z^{self.rank}] vs "
                f"{other.ring.value}[Z^{other.rank}]"
            )

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        ring = self.ring
        for exp, coeff in other.terms.items():
            if exp in out:
                s = ring.add(out[exp], coeff)
                if s == 0:
                    del out[exp]
                else:
                    out[exp] = s
            else:
                out[exp] = coeff
        return GroupRingElement.of_terms(self.ring, self.rank, out)

    def __neg__(self):
        ring = self.ring
        return GroupRingElement.of_terms(
            ring, self.rank, {exp: ring.neg(c) for exp, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        ring = self.ring
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = ring.mul(c1, c2)
                if exp in out:
                    c = ring.add(out[exp], c)
                    if c == 0:
                        del out[exp]
                        continue
                    out[exp] = c
                else:
                    out[exp] = c
        return GroupRingElement.of_terms(self.ring, self.rank, out)

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.ring is other.ring
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.rank, tuple(self.sorted_terms())))

    # -- specialization -----------------------------------------------

    def pushed_terms(self, images) -> dict:
        """The terms of the image of self under a lattice quotient, where
        `images` maps each exponent of self to its image, as
        `LatticeMap.images` gives them. Images that collide are summed in
        term order (mod 2 over Z/2), and sums that cancel are dropped.
        `EquivariantComplex.specialize` pushes each distinct stored
        element through this once."""
        mod2 = self.ring is CoefficientRing.MOD2
        acc = {}
        for exp, c in self.terms.items():
            image = images[exp]
            if image in acc:
                c = acc[image] + c
                if mod2:
                    c &= 1
                if not c:
                    del acc[image]
                    continue
            acc[image] = c
        return acc

    # -- text form ----------------------------------------------------

    def _monomial_str(self, exp) -> str:
        parts = []
        for i, e in enumerate(exp):
            if e == 0:
                continue
            name = "t" if self.rank == 1 else f"t{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exp, coeff in self.sorted_terms():
            mono = self._monomial_str(exp)
            if self.ring is CoefficientRing.MOD2:
                body = mono or "1"
                sign = "+"
            else:
                sign = "-" if coeff < 0 else "+"
                mag = -coeff if coeff < 0 else coeff
                if not mono:
                    body = str(mag)
                elif mag == 1:
                    body = mono
                else:
                    body = f"{mag}*{mono}"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    __str__ = to_string

    def printable(self) -> bool:
        """Whether `to_string` can print every coefficient: str() of an int
        of more than MAX_DECIMAL_EXPONENT digits (from 10^4300 on) raises."""
        return all(_size(c) < _BIG for c in self.terms.values())

    def __repr__(self):
        return f"<{self.ring.value}[Z^{self.rank}] {self.to_string()}>"

    @classmethod
    def from_string(cls, text: str, ring: CoefficientRing, rank: int, memo=None):
        """Parse the canonical text form (and reasonable variants).

        A decimal exponent above MAX_DECIMAL_EXPONENT is a bad factor, as
        an int of more digits than Python's default limit is, and so is a
        coefficient above 10^MAX_DECIMAL_EXPONENT built from smaller
        factors or terms.

        `memo`, a pair of dicts that the caller hands to every parse at
        this ring and rank (`ingest` keeps one per document), keeps each
        parsed term, sign included, as (exponent, coerced coefficient) and
        each parsed factor, so a term or factor that repeats is parsed
        once. Only parses that succeed are kept, so an error always names
        the text it comes from; like terms are summed, checked against
        the bound and dropped at zero per text, as without the memo."""
        s = text.replace(" ", "")
        if s in ("", "0"):
            return cls.zero(ring, rank)
        terms, factors = ({}, {}) if memo is None else memo
        acc = {}
        for chunk in _TERM.findall(s):
            term = terms.get(chunk)
            if term is None:
                term = terms[chunk] = _parse_term(chunk, text, ring, rank, factors)
            exp, c = term
            if exp in acc:
                c = ring.add(acc[exp], c)
                if _size(c) > _BIG:
                    raise _long_coefficient(text)
                if not c:
                    del acc[exp]
                    continue
            if c:
                acc[exp] = c
        return cls.of_terms(ring, rank, acc)


def _parse_term(chunk, text, ring, rank, factors):
    """(exponent tuple, coefficient coerced into ring) of one signed term
    of text; `factors` keeps each parsed factor as an (index, power) pair
    of a variable or the value of a number."""
    body = chunk.lstrip("+-")
    if not body:
        raise InputError(f"dangling sign in {text!r}")
    exp = [0] * rank
    coeff = -1 if chunk.count("-", 0, len(chunk) - len(body)) % 2 else 1
    for factor in body.split("*"):
        value = factors.get(factor)
        if value is None:
            value = factors[factor] = _parse_factor(factor, text, rank)
        if type(value) is tuple:
            exp[value[0]] += value[1]
        else:
            coeff *= value
            if _size(coeff) > _BIG:
                raise _long_coefficient(text)
    return tuple(exp), ring.coerce(coeff)


def _parse_factor(factor, text, rank):
    """(index, power) of a variable factor of text, or a number's value."""
    if not factor:
        raise InputError(f"empty factor in {text!r}")
    m = _TERM_FACTOR.match(factor)
    if m:
        idx_text, pow_text = m.groups()
        if idx_text:
            idx = _int(idx_text, factor, text)
        elif rank == 1:
            idx = 1
        else:
            raise InputError(f"bare variable 't' needs rank 1, got rank {rank}")
        if not 1 <= idx <= rank:
            raise InputError(f"variable t{idx} out of range for rank {rank}")
        return idx - 1, _int(pow_text, factor, text) if pow_text else 1
    try:
        if factor.isdigit():
            return int(factor)
        return _read_decimal(factor)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad factor {factor!r} in {text!r}") from exc


def _int(digits, factor, text):
    """int(digits) of an index or a power; more digits than int() reads
    (MAX_DECIMAL_EXPONENT) make a bad factor."""
    try:
        return int(digits)
    except ValueError as exc:
        raise InputError(f"bad factor {factor!r} in {text!r}") from exc


# ---------------------------------------------------------------------------
# matrices


class RankResult(NamedTuple):
    rank: int
    exact: bool
    method: str


def kronecker_weights(radices):
    """Weights W of the mixed-radix (Kronecker) packing e -> sum(e_v * W_v)
    of exponent vectors into ints, variable 0 the most significant digit:
    W_v is the product of the radices of the variables after v.

    Two vectors whose coordinates v differ by less than radices[v] pack
    to the same int only if they are equal (at the first coordinate where
    they differ, the difference outweighs everything after it), so no
    offset is needed for negative exponents. On vectors with every
    coordinate v in [0, radices[v]) the packing is the lex order, and
    a key's digits key // W_v % radices[v] give the vector back. A product
    of monomials is then one int addition (Kronecker substitution).
    """
    weights = [1] * len(radices)
    for v in range(len(radices) - 1, 0, -1):
        weights[v - 1] = weights[v] * radices[v]
    return weights


def _normal_form(rows, ring, nvars):
    """Each sparse row {column: element} times a unit of the fraction
    field, which keeps the rank: the monomial that makes every exponent
    nonnegative and the lcm of the row's coefficient denominators (1 over
    Z and Z/2).

    Returns the rows, with the same stored columns, and the packing
    (weights, radices), None for ints. The entries are ints over Z and Q
    without deck variables, else packed-key -> int dicts (coefficient 1
    over Z/2): radix 2 * S_v + 1 for variable v, where S_v sums over the
    rows the row's largest shifted exponent of v. Every Bareiss entry is a
    minor, of degree at most S_v in v, and a*x - b*y has degree at most
    2 * S_v, so every key stays in the box where the packing is injective
    and ordered lex (see `kronecker_weights`).
    """
    dens = [
        math.lcm(*(c.denominator for e in row.values() for c in e.terms.values()))
        for row in rows
    ]
    if nvars == 0 and ring is not CoefficientRing.MOD2:
        matrix = [
            {j: c.numerator * (den // c.denominator)
             for j, e in row.items() for c in e.terms.values()}
            for row, den in zip(rows, dens)
        ]
        return matrix, None
    shifts, tops = [], [0] * nvars
    for row in rows:
        exps = {exp for e in row.values() for exp in e.terms}
        if not exps:
            shifts.append((0,) * nvars)
            continue
        columns = list(zip(*exps))
        low = [min(c) for c in columns]
        tops = [t + max(c) - m for t, c, m in zip(tops, columns, low)]
        shifts.append(low)
    radices = [2 * t + 1 for t in tops]
    weights = kronecker_weights(radices)
    matrix = []
    for row, low, den in zip(rows, shifts, dens):
        offset = sum(map(mul, low, weights))
        matrix.append({
            j: {
                sum(map(mul, exp, weights)) - offset:
                    c.numerator * (den // c.denominator)
                for exp, c in e.terms.items()
            }
            for j, e in row.items()
        })
    return matrix, (weights, radices)


def _mul_sub(a, x, b, y, mod2):
    """a*x - b*y of ints, or of packed-key -> int dicts (a product of two
    monomials is the sum of their keys), reduced mod 2 when asked."""
    if isinstance(a, int):
        return a * x - b * y
    acc = {}
    get = acc.get
    for p, q, sign in ((a, x, 1), (b, y, -1)):
        for e1, c1 in p.items():
            c1 *= sign
            for e2, c2 in q.items():
                key = e1 + e2
                acc[key] = get(key, 0) + c1 * c2
    if mod2:
        return {key: 1 for key, c in acc.items() if c & 1}
    return {key: c for key, c in acc.items() if c}


def _divisor(den, packing):
    """A Bareiss divisor prepared for `_exact_div`: an int as it is, else
    (den, leading key, leading coefficient, bounds), where bounds holds
    (W_v, radix, lo_v, hi_v) for each variable v that needs a check. A key
    r of the remainder gives the quotient term r - lead only when every
    digit r_v lies in [lo_v, hi_v]: at least the lead's digit (no borrow,
    so no negative exponent), and small enough that the term times every
    monomial of den stays inside the box (no carry, so the keys keep
    meaning exponents). Every digit of a key in the box passes [0, radix - 1],
    so a variable with those bounds is left out."""
    if isinstance(den, int):
        return den
    weights, radices = packing
    lead = max(den)
    bounds = []
    for w, r in zip(weights, radices):
        low = lead // w % r
        high = r - 1 - max(key // w % r for key in den) + low
        if low or high < r - 1:
            bounds.append((w, r, low, high))
    return den, lead, den[lead], bounds


def _exact_div(num, divisor, mod2):
    """Exact division of ints, or of packed-key -> int dicts with keys in
    the box of the packing (see `_normal_form`), over Z (over Z/2 when
    mod2), dividing coefficients with divmod; `divisor` comes from
    `_divisor`.

    Requires den | num (guaranteed at every Bareiss step); raises
    ArithmeticError otherwise, exactly when division on exponent tuples
    would. Each coefficient quotient is then exact, because the largest
    key of num is that of den plus that of the quotient. A quotient term
    must pass the digit bounds of `_divisor`: the largest key r of the
    remainder may be >= lead while a digit of r is below the lead's (a
    borrow, a negative exponent), and a term whose product with den would
    carry out of a digit is no term of a true quotient, whose degree in
    each variable is that of num less that of den.
    """
    if isinstance(num, int):
        quot, rem = divmod(num, divisor)
        if rem:
            raise ArithmeticError("inexact division")
        return quot
    den, lead, lead_coeff, bounds = divisor
    rem = dict(num)
    quot = {}
    while rem:
        r_key = max(rem)
        for w, r, low, high in bounds:
            if not low <= r_key // w % r <= high:
                raise ArithmeticError("inexact polynomial division")
        q_key = r_key - lead
        q, inexact = divmod(rem[r_key], lead_coeff)
        if inexact:
            raise ArithmeticError("inexact division")
        quot[q_key] = q
        for key, c in den.items():
            key += q_key
            r = rem.get(key, 0) - q * c
            if mod2:
                r &= 1
            if r:
                rem[key] = r
            else:
                del rem[key]
    return quot


def _bareiss_rank(rows, ring, nvars) -> int:
    """Rank over the fraction field by fraction-free elimination (Bareiss
    1968) alone, the phase of the exact rank after the unit pivots, on the
    normal form of sparse rows {column: element}, where every division is
    exact: on ints for constants over Z and Q, on packed-key -> int dicts
    over Z or Z/2 otherwise (see `_normal_form`). The pivot is
    the least column of the next nonzero row: Bareiss on a permuted
    matrix, so every entry is still a minor. Entry x becomes
    (a*x - b*y) / prev, b the row's entry in the pivot column and y the
    pivot row's; it stays zero when x and b or y are, so only stored
    entries are updated."""
    M, packing = _normal_form(rows, ring, nvars)
    mod2 = ring is CoefficientRing.MOD2
    zero, prev = (0, 1) if packing is None else ({}, {0: 1})
    rank = 0
    for k, pivot in enumerate(M):
        if not pivot:
            continue
        c = min(pivot)
        a = pivot.pop(c)
        divisor = _divisor(prev, packing)
        for row in M[k + 1:]:
            b = row.pop(c, zero)
            for j in (row.keys() | pivot.keys()) if b else list(row):
                x = _exact_div(
                    _mul_sub(a, row.get(j, zero), b, pivot.get(j, zero), mod2),
                    divisor, mod2,
                )
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
        prev = a
        rank += 1
    return rank


def _eliminate(M, arithmetic):
    """Sparse elimination on the rows {column: value} of M, in place:
    (pivot count, rows left, empty rows dropped). `arithmetic` holds
    whether an entry may pivot (None: every stored entry, as over a
    field), a pivot a's inverse, the factor -b * a^-1 from an entry b and
    that inverse, and x + f * y (x None when not stored; a false result is
    zero). In index order, a row pivots on its admissible entry whose
    column stores the fewest entries, x <- x - b * a^-1 * y updates the
    rows that store an entry b in that column, and the row is dropped.
    These row operations are invertible, so the rank is the pivot count
    plus the rank of the rows left. Passes repeat over the rows that an
    elimination changed after the pass visited them, as they may have
    gained a pivot; over a field one pass leaves no row.
    """
    admissible, inverse, factor, axpy = arithmetic
    where = {}  # column -> indices of the rows that store it
    for i, row in enumerate(M):
        for j in row:
            where.setdefault(j, set()).add(i)
    pivots = 0
    visit = range(len(M))
    while visit:
        touched = set()  # rows an elimination changed after this pass saw them
        for i in visit:
            touched.discard(i)
            pivot = M[i]
            units = pivot if admissible is None else [
                j for j, x in pivot.items() if admissible(x)
            ]
            if not units:
                continue
            col = min(units, key=lambda j: len(where[j]))
            a_inv = inverse(pivot.pop(col))
            for j in pivot:
                where[j].discard(i)
            others = where.pop(col)
            others.discard(i)
            for r in others:
                row = M[r]
                f = factor(row.pop(col), a_inv)
                for j, y in pivot.items():
                    x = axpy(row.get(j), f, y)
                    if x:
                        if j not in row:
                            where.setdefault(j, set()).add(r)
                        row[j] = x
                    elif j in row:
                        del row[j]
                        where[j].discard(r)
            touched |= others
            M[i] = None
            pivots += 1
        visit = sorted(touched)
    return pivots, [row for row in M if row]


def _unit_arithmetic(mod2, nvars):
    """The units of R[Z^n] for `_eliminate`: constants +-1 (1 over Z/2)
    when nvars is 0, else the elements s * t^e with s = +-1 (1 over Z/2),
    `GroupRingElement.unit_monomial`, in element arithmetic. Over Q no new
    fractions arise; fractions already present are carried exactly."""
    if not nvars:
        def axpy(x, f, y):
            x = (x or 0) + f * y
            return x & 1 if mod2 else x

        return (1, -1).__contains__, lambda a: a, lambda b, a: -a * b, axpy

    def axpy(x, f, y):
        z = f * y if x is None else x + f * y
        return z if z.terms else None

    return (
        lambda x: x.unit_monomial() is not None,
        GroupRingElement.monomial_inverse,
        lambda b, a_inv: -(b * a_inv),
        axpy,
    )


def _unit_eliminate(rows, ring, nvars):
    """The unit phase of the exact rank on sparse rows {column: element},
    which it leaves unchanged: (pivot count, rows left as {column:
    element}, empty rows dropped), with Laurent exponents kept."""
    arithmetic = _unit_arithmetic(ring is CoefficientRing.MOD2, nvars)
    if nvars:
        return _eliminate([dict(row) for row in rows], arithmetic)
    M = [{j: c for j, e in row.items() for c in e.terms.values()} for row in rows]
    pivots, left = _eliminate(M, arithmetic)
    return pivots, [
        {j: GroupRingElement.of_terms(ring, 0, {(): x}) for j, x in row.items()}
        for row in left
    ]


def _gf2_rank(rows) -> int:
    """Rank over GF(2) of constant sparse rows, one int bitmask per row
    with bit j set for each stored column j."""
    pivots = {}  # leading bit -> reduced row with that leading bit
    for row in rows:
        bits = 0
        for j in row:
            bits |= 1 << j
        while bits:
            top = bits.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = bits
                break
            bits ^= pivot
    return len(pivots)


# ---------------------------------------------------------------------------
# rank at a random point

# Z and Q entries are evaluated in F_p for this Mersenne prime
_P = (1 << 61) - 1
# Z/2 entries are evaluated in GF(2^16) = GF(2)[x] / (this primitive
# polynomial), whose nonzero elements are the powers of x
_GF_POLY = 0x1100B  # x^16 + x^12 + x^3 + x + 1
_GF_ORDER = (1 << 16) - 1
# fraction-free elimination on what the unit phase leaves of an uncertified
# Q/Z matrix, up to this many rows and stored columns; above it the rank at
# the point is reported as a labelled lower bound
_BAREISS_LIMIT = 64


@functools.cache
def _gf_tables():
    """Antilog and log tables of GF(2^16), 384 KB, built on first use.

    The antilog table is stored twice over, so a product is one lookup
    exp[log a + log b] without a reduction mod 2^16 - 1.
    """
    exp = array("H", bytes(4 * _GF_ORDER))
    log = array("H", bytes(2 * (_GF_ORDER + 1)))
    x = 1
    for i in range(_GF_ORDER):
        exp[i] = exp[i + _GF_ORDER] = x
        log[x] = i
        x <<= 1
        if x >> 16:
            x ^= _GF_POLY
    return exp, log


# F_p for `_eliminate`: every stored entry pivots
_MOD_P = (
    None,
    lambda a: pow(a, -1, _P),
    lambda b, a_inv: -b * a_inv % _P,
    lambda x, f, y: ((x or 0) + f * y) % _P,
)


def _gf_arithmetic():
    """GF(2^16) for `_eliminate`: every stored entry pivots, and an
    inverse and a factor are discrete logarithms (-b = b in
    characteristic 2), so x + f * y is one antilog lookup."""
    exp, log = _gf_tables()
    return (
        None,
        lambda a: -log[a] % _GF_ORDER,
        lambda b, l_inv: (log[b] + l_inv) % _GF_ORDER,
        lambda x, lf, y: (x or 0) ^ exp[lf + log[y]],
    )


def _point(ring, nvars, seed):
    """A seeded random point with nonzero coordinates: over Z and Q,
    (residue, inverse) pairs mod p, so each coordinate is inverted once;
    over Z/2, discrete logarithms (powers of x)."""
    rng = random.Random(seed)
    if ring is CoefficientRing.MOD2:
        return [rng.randrange(_GF_ORDER) for _ in range(nvars)]
    residues = [rng.randrange(1, _P) for _ in range(nvars)]
    return [(x, pow(x, -1, _P)) for x in residues]


def _evaluate_mod_p(rows, point, monomials):
    """The stored entries of sparse rows at the point, as {column: value}
    rows in F_p without zeros; None when a coefficient's denominator is
    divisible by p (the point is then not in the domain). The point is a
    list of (x, x^-1) pairs (`_point`): t^k is x^k for k > 0 and
    (x^-1)^-k for k < 0, so no monomial takes a modular inverse.
    `monomials` caches exponent -> value at the point."""
    out = []
    for row in rows:
        values = {}
        for j, e in row.items():
            acc = 0
            for exp, c in e.terms.items():
                mono = monomials.get(exp)
                if mono is None:
                    mono = 1
                    for (x, x_inv), k in zip(point, exp):
                        if k > 0:
                            mono = mono * pow(x, k, _P) % _P
                        elif k:
                            mono = mono * pow(x_inv, -k, _P) % _P
                    monomials[exp] = mono
                den = c.denominator
                if den != 1:
                    if den % _P == 0:
                        return None
                    mono = mono * pow(den, -1, _P) % _P
                acc += c.numerator * mono
            acc %= _P
            if acc:
                values[j] = acc
        out.append(values)
    return out


def _evaluate_gf(rows, logs, monomials):
    """The stored entries of sparse rows in GF(2^16), as {column: value}
    rows without zeros, at the point whose coordinates have these discrete
    logarithms; every coefficient is 1. `monomials` caches exponent ->
    value at the point."""
    exp_table, _ = _gf_tables()
    out = []
    for row in rows:
        values = {}
        for j, e in row.items():
            acc = 0
            for exp in e.terms:
                mono = monomials.get(exp)
                if mono is None:
                    power = sum(k * l for k, l in zip(exp, logs)) % _GF_ORDER
                    mono = monomials[exp] = exp_table[power]
                acc ^= mono
            if acc:
                values[j] = acc
        out.append(values)
    return out


def _point_rank(rows, ring, point, monomials) -> int:
    """Rank of sparse rows at the point: a proved lower bound for the rank
    over the fraction field, since evaluation is a ring map and so every
    vanishing minor stays zero. 0 (still a lower bound) when the point is
    outside the domain of a coefficient."""
    if ring is CoefficientRing.MOD2:
        return _eliminate(_evaluate_gf(rows, point, monomials), _gf_arithmetic())[0]
    values = _evaluate_mod_p(rows, point, monomials)
    return 0 if values is None else _eliminate(values, _MOD_P)[0]


def matrix_rank_fraction_field(rows, *, seed: int = 0):
    """Rank of a dense matrix of group-ring elements over the fraction field.

    The rows are checked (InputError if ragged or of mixed rings), turned
    into sparse rows and ranked by the code of `chain_ranks`, as a chain
    of one: constants exactly at any size (route "constant"); otherwise
    the rank at the point seeded by `seed`, certified only when it is
    full (route "modular"), else the fallback ("fraction-free", unit
    pivots then Bareiss, or the labelled lower bound "evaluation"; see
    the module docstring).
    """
    if not rows or not rows[0]:
        return RankResult(0, True, "empty")
    m, ring, nvars = len(rows[0]), rows[0][0].ring, rows[0][0].rank
    for row in rows:
        if len(row) != m:
            raise InputError("ragged matrix")
        for e in row:
            if e.ring is not ring or e.rank != nvars:
                raise InputError("mixed rings or ranks in matrix")
    sparse = [{j: e for j, e in enumerate(row) if e.terms} for row in rows]
    return _ranks([(sparse, m)], ring, nvars, seed)[0]


def chain_ranks(X, *, seed: int = 0):
    """Ranks over the fraction field of the boundaries of the complex X.

    Boundary i, from degree i + 1 to degree i, is ranked as it is stored:
    the columns of `X.columns[i]`, {row: element} each, are the sparse
    lines of its transpose, which has the same rank. d∘d = 0 holds for
    every validated complex and its images under ring maps. Each boundary
    with deck variables is evaluated once, at one seeded random point,
    and its rank there is a proved lower bound lb. It is the exact rank
    when it is min(rows, cols), or when the chain bound closes: d∘d = 0
    gives rank d_i + rank d_{i+1} <= n_i, the cell count between them, so
    lb_i + lb_{i+1} = n_i pins both ranks. These come back exact with
    route "modular"; the randomness can only cost a certificate, never
    make one wrong. Every other such boundary takes the fallback of
    `matrix_rank_fraction_field`, with lb as its labelled lower bound.
    Constant boundaries are exact at any size (route "constant"): bitmask
    elimination over Z/2, the unit pivots and then Bareiss over Z and Q.
    """
    bands = [(band, len(X.cells[k])) for k, band in enumerate(X.columns)]
    return _ranks(bands, X.ring, X.deck.rank, seed)


def _ranks(bands, ring, nvars, seed):
    """RankResults of the boundaries of one chain, consecutive products
    zero, as `chain_ranks` describes. Band i is (lines, length): boundary
    i as its sparse columns {row: element}, and its row count. The chain
    bound reads n_i, the cell count between boundaries i - 1 and i, as
    the line count of band i - 1. The fallback runs the unit phase, then
    Bareiss on the lines left; over Z and Q only when those lines and the
    indices they store number at most _BAREISS_LIMIT each, else the rank
    at the point is reported as the labelled lower bound."""
    mod2 = ring is CoefficientRing.MOD2
    point, monomials = _point(ring, nvars, seed), {}
    results, bounds = [], []
    for rows, m in bands:
        result = None
        if not rows or not m:
            result = RankResult(0, True, "empty")
        elif mod2 and nvars == 0:
            result = RankResult(_gf2_rank(rows), True, "constant")
        elif nvars == 0:  # exact at any size
            pivots, left = _unit_eliminate(rows, ring, nvars)
            rank = pivots + _bareiss_rank(left, ring, nvars)
            result = RankResult(rank, True, "constant")
        results.append(result)
        bounds.append(
            result.rank if result else _point_rank(rows, ring, point, monomials)
        )
    certified = [
        result is None and bound == min(len(rows), m)
        for result, bound, (rows, m) in zip(results, bounds, bands)
    ]
    for i in range(1, len(bands)):
        if bounds[i - 1] + bounds[i] == len(bands[i - 1][0]):
            certified[i - 1] = certified[i] = True
    for i, (rows, m) in enumerate(bands):
        if results[i] is not None:
            continue
        if certified[i]:
            results[i] = RankResult(bounds[i], True, "modular")
            continue
        pivots, left = _unit_eliminate(rows, ring, nvars)
        if not mod2 and max(len(left), len(set().union(*left))) > _BAREISS_LIMIT:
            results[i] = RankResult(bounds[i], False, "evaluation")
        else:
            rank = pivots + _bareiss_rank(left, ring, nvars)
            results[i] = RankResult(rank, True, "fraction-free")
    return results
