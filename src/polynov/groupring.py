"""Exact group-ring arithmetic for free-abelian deck lattices.

Elements are finite sums of monomials t1^e1 * ... * tr^er with coefficients
in Z, Q, or Z/2, stored as a dict from exponent tuples to nonzero
coefficients. The text form is the canonical interface used in JSON
documents, for example "3*t1^2*t2^-1 + 1" (terms sorted by descending
lexicographic exponent). Rank-1 elements may use the bare variable "t".

Matrix rank over the fraction field of the (Laurent) polynomial ring is
exact elimination when the entries are constants (Gaussian elimination over
Q, bitmask elimination over GF(2)), and otherwise fraction-free below a
size threshold and by repeated random rational-point evaluation above it.
"""

from __future__ import annotations

import enum
import random
import re
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .lattice import LatticeMap


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

    @property
    def is_field(self) -> bool:
        return self in (CoefficientRing.RAT, CoefficientRing.MOD2)

    def coerce(self, value):
        """Normalize a raw coefficient into this ring (may normalize to 0)."""
        if isinstance(value, bool):
            raise InputError("booleans are not coefficients")
        if self is CoefficientRing.MOD2:
            if isinstance(value, Fraction):
                if value.denominator % 2 == 0:
                    raise InputError("even denominator has no meaning mod 2")
                value = value.numerator * value.denominator
            return int(value) % 2
        if self is CoefficientRing.RAT:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
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
        if self is CoefficientRing.RAT:
            if a == 0:
                raise InputError("0 is not invertible")
            return 1 / Fraction(a)
        if a in (1, -1):
            return a
        raise InputError(f"{a} is not a unit in Z")


_TERM_FACTOR = re.compile(r"^t(\d*)(?:\^(-?\d+))?$")


class GroupRingElement:
    """An element of R[Z^rank] with R one of the coefficient rings.

    Instances are immutable by convention; all arithmetic returns fresh
    elements and zero coefficients are never stored.
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
    def one(cls, ring, rank):
        return cls(ring, rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, ring, rank, exponent, coeff=1):
        return cls(ring, rank, {tuple(exponent): coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        return set(self.terms)

    def coefficient(self, exponent):
        return self.terms.get(tuple(exponent), self.ring.coerce(0))

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
        result = GroupRingElement.zero(self.ring, self.rank)
        result.terms = out
        return result

    def __neg__(self):
        ring = self.ring
        result = GroupRingElement.zero(self.ring, self.rank)
        result.terms = {exp: ring.neg(c) for exp, c in self.terms.items()}
        return result

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
        result = GroupRingElement.zero(self.ring, self.rank)
        result.terms = out
        return result

    def scalar_mul(self, scalar):
        c0 = self.ring.coerce(scalar)
        if c0 == 0:
            return GroupRingElement.zero(self.ring, self.rank)
        ring = self.ring
        result = GroupRingElement.zero(self.ring, self.rank)
        result.terms = {exp: ring.mul(c, c0) for exp, c in self.terms.items()}
        return result

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative powers need a unit; use monomial_inverse")
        result = GroupRingElement.one(self.ring, self.rank)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

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

    def specialize(self, lattice_map: LatticeMap) -> "GroupRingElement":
        """Push forward along a lattice quotient; colliding monomials are
        combined additively (and may cancel)."""
        if lattice_map.rank_in != self.rank:
            raise InputError(
                f"map expects rank {lattice_map.rank_in}, element has {self.rank}"
            )
        out = GroupRingElement.zero(self.ring, lattice_map.rank_out)
        ring = self.ring
        acc = {}
        for exp, coeff in self.terms.items():
            image = lattice_map.apply(exp)
            if image in acc:
                s = ring.add(acc[image], coeff)
                if s == 0:
                    del acc[image]
                else:
                    acc[image] = s
            else:
                acc[image] = coeff
        out.terms = acc
        return out

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

    def __repr__(self):
        return f"<{self.ring.value}[Z^{self.rank}] {self.to_string()}>"

    @classmethod
    def from_string(cls, text: str, ring: CoefficientRing, rank: int):
        """Parse the canonical text form (and reasonable variants)."""
        s = text.replace(" ", "")
        if s in ("", "0"):
            return cls.zero(ring, rank)
        # split into signed terms; a sign splits unless it follows '^'
        terms = []
        start = 0
        for i in range(1, len(s)):
            if s[i] in "+-" and s[i - 1] not in "^+-*/":
                terms.append(s[start:i])
                start = i
        terms.append(s[start:])
        out = cls.zero(ring, rank)
        for chunk in terms:
            sign = 1
            while chunk and chunk[0] in "+-":
                if chunk[0] == "-":
                    sign = -sign
                chunk = chunk[1:]
            if not chunk:
                raise InputError(f"dangling sign in {text!r}")
            exp = [0] * rank
            coeff = Fraction(sign)
            for factor in chunk.split("*"):
                if not factor:
                    raise InputError(f"empty factor in {text!r}")
                m = _TERM_FACTOR.match(factor)
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
                        raise InputError(
                            f"variable t{idx} out of range for rank {rank}"
                        )
                    exp[idx - 1] += int(pow_text) if pow_text else 1
                else:
                    try:
                        coeff *= Fraction(factor)
                    except (ValueError, ZeroDivisionError) as exc:
                        raise InputError(
                            f"bad factor {factor!r} in {text!r}"
                        ) from exc
            out = out + cls(ring, rank, {tuple(exp): coeff})
        return out


# ---------------------------------------------------------------------------
# matrices


def mat_specialize(A, lattice_map):
    return [[e.specialize(lattice_map) for e in row] for row in A]


class RankResult(NamedTuple):
    rank: int
    exact: bool
    method: str


def _lex_leading(x: GroupRingElement):
    exp = max(x.terms)
    return exp, x.terms[exp]


def _exact_div(num: GroupRingElement, den: GroupRingElement):
    """Exact division of multivariate polynomials over a field.

    Requires den | num in the polynomial ring (guaranteed at every Bareiss
    step); raises ArithmeticError otherwise.
    """
    if den.is_zero():
        raise ArithmeticError("division by zero polynomial")
    ring = num.ring
    quot = GroupRingElement.zero(ring, num.rank)
    rem = num
    d_exp, d_coeff = _lex_leading(den)
    d_inv = ring.invert(d_coeff)
    while not rem.is_zero():
        r_exp, r_coeff = _lex_leading(rem)
        q_exp = tuple(a - b for a, b in zip(r_exp, d_exp))
        if any(e < 0 for e in q_exp):
            raise ArithmeticError("inexact polynomial division")
        q_term = GroupRingElement.monomial(
            ring, num.rank, q_exp, ring.mul(r_coeff, d_inv)
        )
        quot = quot + q_term
        rem = rem - q_term * den
    return quot


def _clear_row_denominators(row):
    """Multiply a row by a unit monomial so all exponents are nonnegative.

    Unit row scalings do not change the rank over the fraction field.
    """
    if all(e.is_zero() for e in row):
        return row
    rank = row[0].rank
    shift = [0] * rank
    for e in row:
        for exp in e.terms:
            for i, v in enumerate(exp):
                shift[i] = min(shift[i], v)
    if all(s == 0 for s in shift):
        return row
    mono = GroupRingElement.monomial(
        row[0].ring, rank, tuple(-s for s in shift)
    )
    return [mono * e for e in row]


def _bareiss_rank(rows) -> int:
    M = [list(_clear_row_denominators(list(row))) for row in rows]
    n = len(M)
    m = len(M[0]) if n else 0
    one = GroupRingElement.one(rows[0][0].ring, rows[0][0].rank) if n and m else None
    prev = one
    rank = 0
    for k in range(min(n, m)):
        pivot = None
        for i in range(k, n):
            for j in range(k, m):
                if not M[i][j].is_zero():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            M[k], M[pi] = M[pi], M[k]
        if pj != k:
            for row in M:
                row[k], row[pj] = row[pj], row[k]
        for i in range(k + 1, n):
            for j in range(k + 1, m):
                M[i][j] = _exact_div(
                    M[k][k] * M[i][j] - M[i][k] * M[k][j], prev
                )
            M[i][k] = GroupRingElement.zero(M[i][k].ring, M[i][k].rank)
        prev = M[k][k]
        rank += 1
    return rank


def _fraction_rank(rows) -> int:
    # plain Gaussian elimination over Fraction entries
    M = [list(r) for r in rows]
    n = len(M)
    m = len(M[0]) if n else 0
    rank = 0
    col = 0
    for col in range(m):
        pivot_row = None
        for i in range(rank, n):
            if M[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        M[rank], M[pivot_row] = M[pivot_row], M[rank]
        inv = 1 / M[rank][col]
        M[rank] = [x * inv for x in M[rank]]
        for i in range(n):
            if i != rank and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def _gf2_rank(rows) -> int:
    """Rank over GF(2) of a constant 0/1 matrix, one int bitmask per row."""
    pivots = {}  # leading bit -> reduced row with that leading bit
    for row in rows:
        bits = 0
        for j, e in enumerate(row):
            if e.terms:
                bits |= 1 << j
        while bits:
            top = bits.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = bits
                break
            bits ^= pivot
    return len(pivots)


def _evaluation_rank(rows, seed: int) -> int:
    rng = random.Random(seed)
    rank_vars = rows[0][0].rank

    def trial():
        point = [
            Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            for _ in range(rank_vars)
        ]
        numeric = []
        for row in rows:
            out = []
            for e in row:
                acc = Fraction(0)
                for exp, coeff in e.terms.items():
                    v = Fraction(coeff)
                    for i, p in enumerate(exp):
                        v *= point[i] ** p
                    acc += v
                out.append(acc)
            numeric.append(out)
        return _fraction_rank(numeric)

    # every trial is a proved lower bound, so keep the largest
    best = trial()
    misses = 0
    while misses < 2:
        current = trial()
        if current > best:
            best, misses = current, 0
        else:
            misses += 1
    return best


def matrix_rank_fraction_field(rows, *, seed: int = 0, dense_threshold: int = 64):
    """Rank of a matrix of group-ring elements over the fraction field.

    With no deck variables the entries are constants and elimination gives
    the exact rank at any size (route "constant"): Gaussian elimination over
    Z or Q, elimination on int-bitmask rows over Z/2. Otherwise
    fraction-free elimination when the larger dimension is at most
    `dense_threshold` (and always over Z/2, where random evaluation has too
    few points to be sound); otherwise repeated random rational-point
    evaluation, keeping the largest rank seen (each trial is a proved lower
    bound) until two consecutive trials do not raise it. The result records
    which route ran and whether the value is exact rather than
    probabilistic.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    if n == 0 or m == 0:
        return RankResult(0, True, "empty")
    ring = rows[0][0].ring
    rank = rows[0][0].rank
    for row in rows:
        if len(row) != m:
            raise InputError("ragged matrix")
        for e in row:
            if e.ring is not ring or e.rank != rank:
                raise InputError("mixed rings or ranks in matrix")
    if ring is CoefficientRing.INT:
        rows = [
            [GroupRingElement(CoefficientRing.RAT, rank, e.terms) for e in row]
            for row in rows
        ]
        ring = CoefficientRing.RAT
    if rank == 0:
        if ring is CoefficientRing.MOD2:
            return RankResult(_gf2_rank(rows), True, "constant")
        constants = [[e.terms.get((), 0) for e in row] for row in rows]
        return RankResult(_fraction_rank(constants), True, "constant")
    if ring is CoefficientRing.MOD2 or max(n, m) <= dense_threshold:
        return RankResult(_bareiss_rank(rows), True, "fraction-free")
    value = _evaluation_rank(rows, seed)
    return RankResult(value, value == min(n, m), "evaluation")
