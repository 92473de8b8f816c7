"""Free-abelian deck lattices, rational cohomology classes, and polytopes.

A deck group here is always Z^rank. A cohomology class is a rational linear
functional on it, stored as a tuple of Fractions (its periods on the standard
basis). A polytope is a finite tuple of such classes, thought of as the
vertex set of their convex hull; a subpolytope selects some of the vertices
by index.

Integer lattice work (kernels, quotients) is done with exact gcd-based
column/row operations so kernels come out saturated and quotients land in a
free lattice of the complementary rank.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul

from .errors import InputError

MAX_DECIMAL_EXPONENT = 4300  # Python's default limit on the digits of an int
_BIG = 10**MAX_DECIMAL_EXPONENT  # the largest size of a parsed number
_DECIMAL_EXPONENT = re.compile(r"[eE]([+-]?\d[\d_]*)$")


def _size(c):
    """max(|numerator|, denominator) of the rational c."""
    return max(abs(c.numerator), c.denominator)


def _read_decimal(text) -> Fraction:
    """Fraction(text); ValueError when its decimal exponent is above
    MAX_DECIMAL_EXPONENT in absolute value, as building 10^exponent would
    take long for a large one."""
    big = _DECIMAL_EXPONENT.search(text)
    if big and abs(int(big[1])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(text)
    return Fraction(text)


def parse_rational(value) -> Fraction:
    """Accept ints, 'p/q' or 'p' strings, and [num, den] pairs.

    A string with a decimal exponent above MAX_DECIMAL_EXPONENT, or whose
    numerator or denominator is above 10^MAX_DECIMAL_EXPONENT, is an
    InputError, as it is for a coefficient (`GroupRingElement.from_string`).
    """
    if isinstance(value, bool):
        raise InputError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            q = _read_decimal(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational string {value!r}") from exc
        if _size(q) > _BIG:
            raise InputError(
                f"rational {value!r} is above 10^{MAX_DECIMAL_EXPONENT}"
            )
        return q
    if isinstance(value, (list, tuple)) and len(value) == 2:
        num, den = value
        if not (isinstance(num, int) and isinstance(den, int)):
            raise InputError(f"bad rational pair {value!r}")
        if den == 0:
            raise InputError("zero denominator")
        return Fraction(num, den)
    raise InputError(f"cannot read {value!r} as a rational")


def format_rational(q: Fraction) -> str:
    """str(q); InputError when str() cannot print it (an int of more than
    MAX_DECIMAL_EXPONENT digits, from 10^4300 on)."""
    try:
        return str(q)
    except ValueError as exc:
        raise InputError(
            f"a rational of more than {MAX_DECIMAL_EXPONENT} digits"
        ) from exc


def _integer_form(periods):
    """(numerators, D): the periods are numerators[i] / D, D the lcm of
    their denominators (1 for no periods)."""
    den = lcm(*(p.denominator for p in periods)) if periods else 1
    return [p.numerator * (den // p.denominator) for p in periods], den


def _primitive_form(periods):
    """(weights, s): weights is the primitive integer vector on the ray of
    the periods, and s the positive rational with periods == weights / s
    (zero weights and s == 1 for the zero vector)."""
    ints, den = _integer_form(periods)
    g = gcd(*ints) or 1
    return [n // g for n in ints], Fraction(den, g)


# The largest deck rank accepted from outside: a document's rank or
# deck_map, a --class or a --vertices class. Quotient and approximation
# work grows like the cube of the rank or faster; at rank 64 a command
# takes well under a second, at rank 10000 it ran for minutes. Every
# bundled and benchmark complex has rank 5 or less.
MAX_DECK_RANK = 64

# The largest starting truncation order of the series oracle (`novikov
# --order`), and the largest window height floor(N * s) of any order N it
# runs, doubled ones included. Its work grows at least linearly with the
# window: from order 32768, whose doubled window is the limit, `novikov`
# takes 0.2-0.3 s on the torus at the class (1,0) and 0.3-0.5 s on the
# Koszul T^3 over Q and over Z/2 at (1,1,1), start-up included (2 cores,
# Python 3.11). The bundled examples, the acceptance suite and the
# benchmark start at 16 and reach at most 2048.
MAX_ORACLE_ORDER = 1 << 16

# The most letters the relators of a presentation may spell, x^n as n,
# counted before any is expanded. `validate` on x^1000000*y*x^-1000000*y^-1
# took 9.7 s unbounded, and at the limit 0.5 s (2 cores, Python 3.11).
MAX_RELATOR_LETTERS = 1 << 16


def check_deck_rank(rank: int) -> int:
    """Return `rank`, or raise InputError when it is above MAX_DECK_RANK."""
    if rank > MAX_DECK_RANK:
        raise InputError(f"deck rank {rank} is above the limit {MAX_DECK_RANK}")
    return rank


@dataclass(frozen=True)
class DeckGroup:
    """The free-abelian deck lattice Z^rank."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise InputError("deck rank must be nonnegative")


@dataclass(frozen=True)
class CohomologyClass:
    """A rational functional on the deck lattice, given by its periods."""

    periods: tuple

    def __init__(self, periods):
        object.__setattr__(
            self, "periods", tuple(parse_rational(p) for p in periods)
        )

    @property
    def rank(self) -> int:
        return len(self.periods)

    def is_zero(self) -> bool:
        return all(p == 0 for p in self.periods)

    def scale(self, r) -> "CohomologyClass":
        r = parse_rational(r)
        return CohomologyClass(tuple(r * p for p in self.periods))

    def ray_normalized(self) -> "CohomologyClass":
        """Scale by the unique positive rational making the periods a
        primitive integer vector (the zero class stays zero).

        Everything a class induces here (its kernel, its finiteness
        condition) depends only on its positive ray, so this is the
        canonical representative used in reports. A nonzero class computes
        it once and keeps it, so it lives as long as the class does.
        """
        if self.is_zero():
            return self
        ray = self.__dict__.get("_ray")
        if ray is None:
            weights, _ = _primitive_form(self.periods)
            ray = CohomologyClass(tuple(map(Fraction, weights)))
            object.__setattr__(self, "_ray", ray)
        return ray

    def to_json(self):
        """The periods as strings; InputError for a period that str()
        cannot print (see `format_rational`)."""
        return [format_rational(p) for p in self.periods]


def zero_class(rank: int) -> CohomologyClass:
    return CohomologyClass((Fraction(0),) * rank)


def period_eval(a: CohomologyClass, exponent) -> Fraction:
    """Evaluate the period functional of `a` on a lattice vector."""
    if len(exponent) != a.rank:
        raise InputError(
            f"lattice vector of length {len(exponent)} against rank {a.rank}"
        )
    return sum((p * n for p, n in zip(a.periods, exponent)), Fraction(0))


@dataclass(frozen=True)
class Polytope:
    """Vertex classes of a polytope of cohomology classes.

    Duplicate period vectors are dropped (first occurrence wins); the
    remaining order is preserved, and subpolytopes refer to it by index.
    """

    vertices: tuple

    def __init__(self, vertices):
        seen = []
        for v in vertices:
            if not isinstance(v, CohomologyClass):
                v = CohomologyClass(v)
            if v not in seen:
                seen.append(v)
        if not seen:
            raise InputError("a polytope needs at least one vertex class")
        if len({v.rank for v in seen}) != 1:
            raise InputError("vertex classes of mixed rank")
        object.__setattr__(self, "vertices", tuple(seen))

    @property
    def rank(self) -> int:
        return self.vertices[0].rank

    def scale(self, r) -> "Polytope":
        r = parse_rational(r)
        if r <= 0:
            raise InputError("polytope scaling factor must be positive")
        return Polytope(tuple(v.scale(r) for v in self.vertices))

    def to_json(self):
        return {
            "rank": self.rank,
            "vertices": [v.to_json() for v in self.vertices],
        }


@dataclass(frozen=True)
class Subpolytope:
    """A face/subset of a polytope, given by indices into its vertex tuple."""

    polytope: Polytope
    vertex_indices: tuple

    def __init__(self, polytope, vertex_indices):
        indices = tuple(dict.fromkeys(int(i) for i in vertex_indices))
        if not indices:
            raise InputError("a subpolytope needs at least one vertex")
        n = len(polytope.vertices)
        bad = [i for i in indices if not 0 <= i < n]
        if bad:
            raise InputError(f"vertex indices {bad} out of range for {n} vertices")
        object.__setattr__(self, "polytope", polytope)
        object.__setattr__(self, "vertex_indices", indices)

    @property
    def vertices(self) -> tuple:
        return tuple(self.polytope.vertices[i] for i in self.vertex_indices)


def active_vertices(region) -> tuple:
    """The vertex classes of a Polytope or Subpolytope."""
    if isinstance(region, (Polytope, Subpolytope)):
        return region.vertices
    raise InputError(f"expected a polytope or subpolytope, got {type(region)!r}")


def polytope_min_period(region, exponent) -> Fraction:
    """min over active vertices of the vertex period on `exponent`.

    Any convex combination of the vertex functionals is bounded below by
    this value on `exponent`, so positivity over the whole polytope can be
    decided at the vertices alone.
    """
    return min(period_eval(v, exponent) for v in active_vertices(region))


def convex_combination(region, weights) -> CohomologyClass:
    """Form sum(weights[l] * vertex_l). Weights must be nonnegative
    rationals summing to 1, one per active vertex."""
    verts = active_vertices(region)
    ws = [parse_rational(w) for w in weights]
    if len(ws) != len(verts):
        raise InputError(
            f"{len(ws)} weights against {len(verts)} vertices"
        )
    if any(w < 0 for w in ws):
        raise InputError("convex weights must be nonnegative")
    if sum(ws) != 1:
        raise InputError("convex weights must sum to 1")
    rank = verts[0].rank
    out = [Fraction(0)] * rank
    for w, v in zip(ws, verts):
        for i, p in enumerate(v.periods):
            out[i] += w * p
    return CohomologyClass(tuple(out))


# ---------------------------------------------------------------------------
# integer lattice elimination


def _bezout(a: int, b: int):
    """(x, y, a/g, b/g) with x*a + y*b == g == gcd(a, b), for a != 0: the
    unimodular 2x2 [[x, y], [-b/g, a/g]] sends (a, b) to (g, 0)."""
    if b % a == 0:  # plain elimination keeps cleared entries cleared
        x, y = (1 if a > 0 else -1), 0
    else:  # the extended Euclidean algorithm
        r0, r1, x, x1, y, y1 = a, b, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            x, x1 = x1, x - q * x1
            y, y1 = y1, y - q * y1
        if r0 < 0:
            x, y = -x, -y
    g = x * a + y * b
    return x, y, a // g, b // g


def _diagonalize(rows):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Only the column operations are tracked: returns (D, T, Tinv) with
    A = S @ D @ T for some untracked unimodular S, T unimodular, and D
    nonzero only at diagonal positions. No divisibility chain is enforced;
    zero/nonzero of the diagonal is all the callers need.
    """
    k = len(rows)
    r = len(rows[0]) if k else 0
    D = [list(row) for row in rows]
    T = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    Tinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        T[i], T[j] = T[j], T[i]
        for row in Tinv:
            row[i], row[j] = row[j], row[i]

    def combine_cols(pivot_row, i, j):
        # unimodular 2x2 on columns (i, j) sending column i to the gcd column
        x, y, ag, bg = _bezout(D[pivot_row][i], D[pivot_row][j])
        for row in D:
            ci, cj = row[i], row[j]
            row[i], row[j] = x * ci + y * cj, -bg * ci + ag * cj
        ti, tj = T[i], T[j]
        for c in range(r):
            vi, vj = ti[c], tj[c]
            ti[c], tj[c] = ag * vi + bg * vj, -y * vi + x * vj
        for row in Tinv:
            vi, vj = row[i], row[j]
            row[i], row[j] = x * vi + y * vj, -bg * vi + ag * vj

    def combine_rows(i, j, col):
        # unimodular 2x2 on rows (i, j) clearing D[j][col]; untracked
        x, y, ag, bg = _bezout(D[i][col], D[j][col])
        ri, rj = D[i], D[j]
        for c in range(r):
            vi, vj = ri[c], rj[c]
            ri[c], rj[c] = x * vi + y * vj, -bg * vi + ag * vj

    pos = 0
    while pos < min(k, r):
        pivot = None
        for i in range(pos, k):
            for j in range(pos, r):
                if D[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        if i != pos:
            D[pos], D[i] = D[i], D[pos]
        if j != pos:
            swap_cols(pos, j)
        while True:
            for i in range(pos + 1, k):
                if D[i][pos]:
                    combine_rows(pos, i, pos)
            for j in range(pos + 1, r):
                if D[pos][j]:
                    combine_cols(pos, pos, j)
            if all(D[i][pos] == 0 for i in range(pos + 1, k)) and all(
                D[pos][j] == 0 for j in range(pos + 1, r)
            ):
                break
        pos += 1
    return D, T, Tinv


def kernel_lattice(classes, rank=None) -> tuple:
    """Saturated basis of the common kernel of the given period functionals.

    Returns a tuple of integer vectors generating
    {A in Z^rank : period_eval(a, A) == 0 for every a}: the kernel of
    `quotient_map(classes, rank)`, and like it an InputError for no
    classes. The quotient by this sublattice is torsion-free (kernels of
    maps into torsion-free groups are automatically saturated).
    """
    return quotient_map(classes, rank).kernel


@dataclass(frozen=True)
class LatticeMap:
    """A surjection Z^rank_in -> Z^rank_out with a prescribed kernel.

    `matrix` has rank_out rows of length rank_in. `induced_class` pushes a
    functional that vanishes on the kernel down to the quotient.
    """

    matrix: tuple
    kernel: tuple
    _tinv: tuple

    @property
    def rank_in(self) -> int:
        return len(self._tinv)

    @property
    def rank_out(self) -> int:
        return len(self.matrix)

    def apply(self, exponent) -> tuple:
        """The image of one lattice vector; `images` maps many."""
        if len(exponent) != self.rank_in:
            raise InputError(
                f"vector of length {len(exponent)} against rank {self.rank_in}"
            )
        return tuple(sum(map(mul, row, exponent)) for row in self.matrix)

    def images(self, exponents):
        """{x: apply(x) for x in exponents}, computed on coordinate columns,
        at every rank_out; at rank_out 0 every image is ().

        Output coordinate i is the sum over the nonzero entries a of row i
        of a times the input column of a: one `map` pass over all the
        vectors per nonzero entry, and no Python call per vector.
        """
        exponents = list(exponents)
        if set(map(len, exponents)) - {self.rank_in}:
            bad = next(x for x in exponents if len(x) != self.rank_in)
            raise InputError(
                f"vector of length {len(bad)} against rank {self.rank_in}"
            )
        columns = list(zip(*exponents))
        out = []
        for row in self.matrix:
            acc = repeat(0, len(exponents))
            for a, column in zip(row, columns):
                if a == 1:
                    acc = map(add, acc, column)
                elif a:
                    acc = map(add, acc, map(mul, repeat(a), column))
            out.append(list(acc))
        return dict(zip(exponents, zip(*out) if out else repeat(())))

    def induced_class(self, a: CohomologyClass) -> CohomologyClass:
        """The unique class b on the quotient with b(apply(x)) == a(x).

        Exists iff a vanishes on the kernel; raises InputError otherwise.
        The periods are summed as integer numerators over their common
        denominator, which is divided out of the results only.
        """
        if a.rank != self.rank_in:
            raise InputError("class rank disagrees with the map")
        nums, den = _integer_form(a.periods)
        image = [sum(map(mul, nums, column)) for column in zip(*self._tinv)]
        if any(image[self.rank_out:]):
            raise InputError(
                "class does not vanish on the kernel of the quotient map"
            )
        return CohomologyClass(
            tuple(Fraction(n, den) for n in image[: self.rank_out])
        )


def quotient_map(classes, rank=None) -> LatticeMap:
    """Quotient of the deck lattice by the common kernel of the classes.

    The result is a surjection onto Z^rank_out whose kernel is exactly
    kernel_lattice(classes), with rank_out = rank - len(kernel basis). The
    induced period functionals of the input classes are jointly injective on
    the quotient.
    """
    classes = tuple(classes)
    if not classes:
        raise InputError("quotient_map needs at least one class")
    ranks = {a.rank for a in classes}
    if rank is not None:
        ranks.add(int(rank))
    if len(ranks) > 1:
        raise InputError(f"classes of mixed rank {sorted(ranks)}")
    r = ranks.pop()
    rows = [_integer_form(a.periods)[0] for a in classes]
    D, T, Tinv = _diagonalize(rows)
    k = len(rows)
    pivots = [j for j in range(min(k, r)) if D[j][j] != 0]
    free = [j for j in range(r) if j not in pivots]
    # reorder so the surviving coordinates come first in T and last in Tinv
    order = pivots + free
    matrix = tuple(tuple(T[j]) for j in pivots)
    tinv = tuple(
        tuple(Tinv[i][j] for j in order) for i in range(r)
    )
    kernel = tuple(tuple(Tinv[i][j] for i in range(r)) for j in free)
    return LatticeMap(matrix=matrix, kernel=kernel, _tinv=tinv)
