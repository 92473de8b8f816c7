"""Window-truncated Novikov series.

A full Novikov-type completion stores sums that are infinite in the
directions where the vertex functionals grow. Finite machines keep the
window {monomials A : direction(A) <= order} instead: a Truncation is such
a window (direction is a rational class, interior to the active polytope
when built through `Truncation.interior`), and a TruncatedNovikovSeries is
a group-ring element supported inside the window, tagged with it.

Arithmetic computes exactly and then discards monomials outside the window.
For data whose support has nonnegative direction-period (every series this
module constructs) the discarded monomials form an ideal, so results agree
with the untruncated computation modulo the window.

The `height_*` functions do the same arithmetic on plain
{height: coefficient} dicts, without building elements; the truncated
oracle (`homology.truncated_homology_oracle`) runs on them alone. Along a
class a = w / s, w a primitive integer vector and s > 0, the monomial t^e
has height w . e, the window of order N keeps exactly the heights
<= floor(N * s) (the integer cutoff of `Truncation(a, N)`), and
coefficients over Z/2 are reduced mod 2.

`Truncation`, `TruncatedNovikovSeries`, `leading_unit_inverse`,
`geom_inverse` and `positivity_check` are on no command's path. They stay
as API and as the tests' reference for the oracle's height arithmetic;
`geom_inverse` is the independent cross-check of `leading_unit_inverse`,
which the benchmark's per-layer tracer also wraps by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import floor
from operator import mul

from .errors import (
    AmbiguousLeadingTerm,
    InputError,
    NotInvertibleUnderPolytope,
)
from .groupring import GroupRingElement
from .lattice import (
    CohomologyClass,
    _primitive_form,
    active_vertices,
    parse_rational,
    period_eval,
)


@dataclass(frozen=True)
class Truncation:
    """A cutoff window: keep monomials whose direction-period is <= order."""

    direction: CohomologyClass
    order: Fraction

    def __init__(self, direction, order):
        if not isinstance(direction, CohomologyClass):
            direction = CohomologyClass(direction)
        order = parse_rational(order)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "order", order)
        # direction = weights / s with `weights` a primitive integer vector,
        # so the window test is an integer comparison: weights . A is an
        # integer, and it is <= order * s iff it is <= floor(order * s)
        weights, s = _primitive_form(direction.periods)
        object.__setattr__(self, "_weights", tuple(weights))
        object.__setattr__(self, "_cutoff", floor(order * s))

    @classmethod
    def interior(cls, region, order) -> "Truncation":
        """Window along the uniform average of the active vertex classes.

        The average is a strictly positive convex combination, so it lies in
        the interior of the active polytope as the truncation contract wants.
        """
        verts = active_vertices(region)
        n = len(verts)
        avg = [Fraction(0)] * verts[0].rank
        for v in verts:
            for i, p in enumerate(v.periods):
                avg[i] += Fraction(p, n)
        return cls(CohomologyClass(tuple(avg)), order)

    def contains(self, exponent) -> bool:
        return sum(map(mul, self._weights, exponent)) <= self._cutoff


class TruncatedNovikovSeries:
    """A group-ring element supported inside a truncation window."""

    __slots__ = ("element", "truncation")

    def __init__(self, element: GroupRingElement, truncation: Truncation):
        if element.rank != truncation.direction.rank:
            raise InputError(
                f"element rank {element.rank} vs window rank "
                f"{truncation.direction.rank}"
            )
        inside = truncation.contains
        kept = GroupRingElement.zero(element.ring, element.rank)
        kept.terms = {exp: c for exp, c in element.terms.items() if inside(exp)}
        self.element = kept
        self.truncation = truncation

    @classmethod
    def one(cls, ring, truncation):
        rank = truncation.direction.rank
        return cls(GroupRingElement.one(ring, rank), truncation)

    @classmethod
    def zero(cls, ring, truncation):
        rank = truncation.direction.rank
        return cls(GroupRingElement.zero(ring, rank), truncation)

    def is_zero(self) -> bool:
        return self.element.is_zero()

    def min_period(self):
        """Smallest direction-period over the stored support, None if zero."""
        if self.element.is_zero():
            return None
        c = self.truncation.direction
        return min(period_eval(c, exp) for exp in self.element.terms)

    def _check_window(self, other):
        if not isinstance(other, TruncatedNovikovSeries):
            raise InputError(f"cannot combine with {type(other)!r}")
        if other.truncation != self.truncation:
            raise InputError("truncation windows differ (direction or order)")

    def __add__(self, other):
        self._check_window(other)
        return TruncatedNovikovSeries(
            self.element + other.element, self.truncation
        )

    def __sub__(self, other):
        self._check_window(other)
        return TruncatedNovikovSeries(
            self.element - other.element, self.truncation
        )

    def __mul__(self, other):
        self._check_window(other)
        return TruncatedNovikovSeries(
            self.element * other.element, self.truncation
        )

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedNovikovSeries)
            and self.truncation == other.truncation
            and self.element == other.element
        )

    def __hash__(self):
        return hash((self.element, self.truncation))

    def __repr__(self):
        c = self.truncation.direction.to_json()
        return (
            f"<series {self.element.to_string()} | window {c} "
            f"<= {self.truncation.order}>"
        )


def positivity_check(u: GroupRingElement, region) -> bool:
    """True iff every vertex functional of the region is strictly positive
    on every monomial of u's support. By vertex determination this makes
    every class of the polytope strictly positive on the support, which is
    the gate for geometric inversion. Zero input is a contract violation."""
    if u.is_zero():
        raise InputError("positivity_check needs a nonzero element")
    for vertex in active_vertices(region):
        for exp in u.terms:
            if period_eval(vertex, exp) <= 0:
                return False
    return True


def _geometric_series(u: GroupRingElement, truncation: Truncation):
    """sum_{j>=0} u^j inside the window; needs direction-period > 0 on u."""
    ring = u.ring
    if u.is_zero():
        return TruncatedNovikovSeries.one(ring, truncation)
    c = truncation.direction
    step = min(period_eval(c, exp) for exp in u.terms)
    if step <= 0:
        raise InputError(
            "window direction is not strictly positive on the support; "
            "the geometric sum would not terminate"
        )
    acc = TruncatedNovikovSeries.one(ring, truncation)
    power = TruncatedNovikovSeries.one(ring, truncation)
    u_series = TruncatedNovikovSeries(u, truncation)
    while True:
        power = power * u_series
        if power.is_zero():
            return acc
        acc = acc + power


def geom_inverse(x: GroupRingElement, truncation: Truncation, region):
    """Invert x = 1 - u through the geometric series, truncated.

    u must pass positivity_check over the region's active vertices; the
    result then satisfies x * result == 1 modulo the window.
    """
    if not x.ring.is_field:
        raise InputError("geometric inversion needs field coefficients")
    one = GroupRingElement.one(x.ring, x.rank)
    u = one - x
    if u.is_zero():
        return TruncatedNovikovSeries.one(x.ring, truncation)
    if not positivity_check(u, region):
        raise NotInvertibleUnderPolytope(
            "1 - u with u not strictly positive at every active vertex"
        )
    return _geometric_series(u, truncation)


def leading_unit_inverse(x, direction: CohomologyClass, truncation: Truncation):
    """Invert an element whose direction-minimal monomial is unique.

    Accepts a GroupRingElement or a TruncatedNovikovSeries. Writing
    x = a*t^A0 * (1 + v) with A0 the unique minimal monomial and v
    supported strictly above 0, the inverse is a^-1 t^-A0 * sum (-v)^j.

    The returned series stores exactly the true inverse's monomials inside
    the window. The defining identity x * result == 1 holds modulo monomials
    of direction-period > order + min(m, 0), where m is the period of the
    leading monomial: for m < 0 the tail of the inverse times the leading
    term re-enters the plain window, so the identity can only be exact
    above that lowered cutoff.
    """
    if isinstance(x, TruncatedNovikovSeries):
        x = x.element
    if not isinstance(direction, CohomologyClass):
        direction = CohomologyClass(direction)
    if truncation.direction != direction:
        raise InputError("truncation window must use the given direction")
    if x.is_zero():
        raise InputError("0 has no leading unit")
    if not x.ring.is_field:
        raise InputError("leading-unit inversion needs field coefficients")
    periods = {exp: period_eval(direction, exp) for exp in x.terms}
    m = min(periods.values())
    minimal = [exp for exp, p in periods.items() if p == m]
    if len(minimal) > 1:
        raise AmbiguousLeadingTerm(
            f"{len(minimal)} monomials share the minimal period {m}"
        )
    lead_exp = minimal[0]
    lead = GroupRingElement.monomial(x.ring, x.rank, lead_exp, x.terms[lead_exp])
    lead_inv = lead.monomial_inverse()
    v = lead_inv * x - GroupRingElement.one(x.ring, x.rank)
    # the geometric part needs window order + m so that after the shift by
    # -A0 the result fills the requested window exactly
    inner = Truncation(direction, truncation.order + m)
    series = _geometric_series(-v, inner)
    return TruncatedNovikovSeries(lead_inv * series.element, truncation)


# ---------------------------------------------------------------------------
# height dicts: rank-one windows in integers


def _nonzero(acc, mod2):
    if mod2:
        return {h: 1 for h, c in acc.items() if c & 1}
    return {h: c for h, c in acc.items() if c}


def height_accumulate(acc, a, b, cutoff):
    """Add a*b windowed at `cutoff` into the dict `acc` and return it, not
    reduced; b is given as (height, coefficient) pairs sorted by height.

    A pair of terms lands at height h1 + h2 and nowhere else, so skipping
    the pairs above the cutoff gives the full product windowed afterwards.
    """
    get = acc.get
    for h1, c1 in a.items():
        room = cutoff - h1
        for h2, c2 in b:
            if h2 > room:
                break
            acc[h1 + h2] = get(h1 + h2, 0) + c1 * c2
    return acc


def height_inverse(x, cutoff, mod2):
    """`leading_unit_inverse` of a nonzero height dict, windowed at `cutoff`.

    With h0 the least height and a its coefficient, x = a t^h0 (1 - u)
    where u has only positive heights, and the inverse is
    a^-1 t^-h0 sum_j u^j. The sum is kept up to height cutoff + h0, the
    integer form of the `order + m` inner window, so that after the shift
    by -h0 it fills the window. Its coefficients are those of the power
    series inverse s of 1 - u, s_k = sum_i u_i s_(k-i), which is the
    truncated geometric sum term by term. Each nonzero s_k is pushed
    forward to the heights k + i, and a heap hands out the next height
    with pending terms, so the work follows the nonzero terms, not the
    window. Needs h0 >= -cutoff, which holds in the oracle, where every
    height is in [0, cutoff].
    """
    h0 = min(x)
    a = x[h0]
    inv = a if a in (1, -1) else 1 / Fraction(a)
    u = sorted((h - h0, -c * inv) for h, c in x.items() if h != h0)
    top = cutoff + h0
    out = {}
    pending = {0: 1}  # height -> s_k summed so far
    heap = [0]
    while heap:
        k = heappop(heap)
        c = pending.pop(k)
        if mod2:
            c &= 1
        if not c:
            continue
        out[k - h0] = inv * c
        for i, ui in u:
            j = k + i
            if j > top:
                break
            if j in pending:
                pending[j] += ui * c
            else:
                pending[j] = ui * c
                heappush(heap, j)
    return out
