"""Betti numbers over completed deck-group rings, and the theorem checks.

Only ranks are computed, never module presentations: every coefficient
domain in scope sits between a Laurent group ring and one of its completed
series rings, and all of them embed in the fraction field of the quotient
Laurent ring, where column ranks agree. Reports say so explicitly.

The truncated-series oracle recomputes one class's Betti numbers by
Gaussian elimination over windowed series, with the window doubled until
two consecutive runs agree; it shares no rank code with the
fraction-field path, and no quotient code either. A windowed series is a
plain {height: coefficient} dict read off the complex as it is: with
a = w / s, w a primitive integer vector, the height of t^e is w . e, and
the window of order N is height <= floor(N * s). One oracle call lifts
each boundary once, from its stored columns, into sparse rows
{column: series}; each order only windows those rows, and each row is
cleared by one windowed series division by the pivot, with no pivot
inverse built. Pivot heights never decrease, so each elimination, at
the window of order 2N, also gives the ranks of order N (see
`_series_rank`). The series arithmetic is that of `novseries`; the
tests check it against the multivariate reference
`tests/series_reference.py`, which no command runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor
from operator import mul

from .complexes import EquivariantComplex, _betti_from_ranks
from .errors import IncreaseOrder, InputError
from .groupring import CoefficientRing, chain_ranks
from .lattice import (
    MAX_ORACLE_ORDER,
    CohomologyClass,
    Polytope,
    convex_combination,
    format_rational,
    kernel_lattice,
    parse_rational,
    quotient_map,
    zero_class,
)
from .morse import morse_reduce
from .novseries import (
    _nonzero,
    height_accumulate,
    height_quotient,
    leading_unit_inverse,
)
from .twist import tensor_base_change, twisted_complex

_MAX_DOUBLINGS = 8  # orders the series oracle runs before IncreaseOrder

RANK_VALIDITY_NOTE = (
    "ranks taken over the fraction field of the quotient Laurent ring; "
    "they agree over every domain between the integral group ring of the "
    "quotient and its completed series rings at the listed vertices"
)


@dataclass(frozen=True)
class BettiReport:
    betti: tuple
    chi: int
    ring: dict
    method: str
    checks: dict

    def to_json(self):
        return {
            "betti": list(self.betti),
            "chi": self.chi,
            "ring": self.ring,
            "method": self.method,
            "checks": self.checks,
        }

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def euler_characteristic(X: EquivariantComplex) -> int:
    return sum((-1) ** i * n for i, n in enumerate(X.cell_counts()))


def _as_class(a, rank=None) -> CohomologyClass:
    if not isinstance(a, CohomologyClass):
        a = CohomologyClass(tuple(a))
    if rank is not None and a.rank != rank:
        raise InputError(f"class of rank {a.rank} against deck rank {rank}")
    return a


def _rank_report(X: EquivariantComplex, ring_desc: dict, *, seed=0) -> BettiReport:
    results = chain_ranks(X, seed=seed)
    betti = _betti_from_ranks(X.cell_counts(), [r.rank for r in results])
    chi = euler_characteristic(X)
    method = (
        "evaluation"
        if any(r.method == "evaluation" for r in results)
        else "fraction-field exact"
    )
    checks = {
        # b_i = n_i - r_(i-1) - r_i, r_i the rank out of degree i + 1, so
        # sum (-1)^i b_i telescopes to sum (-1)^i n_i = chi whatever the ranks
        "euler_consistent": True,
        "rank_exact": all(r.exact for r in results),
    }
    return BettiReport(betti, chi, ring_desc, method, checks)


# ---------------------------------------------------------------------------
# fraction-field Betti numbers


def novikov_betti(X: EquivariantComplex, a) -> BettiReport:
    """Betti numbers of X over the completed ring of a single class.

    The deck lattice is quotiented by the kernel of the class first, so
    the induced period functional is injective; the zero class therefore
    lands in the trivial quotient and reproduces ordinary homology.
    """
    a = _as_class(a, X.deck.rank)
    q = quotient_map([a])
    return _rank_report(X.specialize(q), _class_ring(X.ring.value, X, a))


def _class_ring(coefficients, X: EquivariantComplex, a: CohomologyClass) -> dict:
    return {
        "kind": "class",
        "coefficients": coefficients,
        "deck_rank": X.deck.rank,
        "class": a.ray_normalized().to_json(),
    }


def ordinary_betti(X: EquivariantComplex) -> BettiReport:
    return novikov_betti(X, zero_class(X.deck.rank))


def polytope_betti(X: EquivariantComplex, P: Polytope, B=None, *, seed=0) -> BettiReport:
    """Betti numbers over the rings carried by a polytope of classes.

    B picks the vertices whose finiteness condition is in force; it only
    enters the ring descriptor, because the ranks agree across all the
    intermediate domains (see the validity note on the report).
    """
    T = twisted_complex(X, P, B)
    return _rank_report(T.base, _polytope_ring(T), seed=seed)


def _polytope_ring(T) -> dict:
    return {"kind": "polytope", **T.ring_descriptor(),
            "validity": RANK_VALIDITY_NOTE}


# ---------------------------------------------------------------------------
# truncated-series oracle


def _lift(band, nrows, heights, mod2):
    """One boundary, from its stored columns, as sparse rows
    {column: {height: coefficient}}, each shifted to least height 0.
    t^e has height heights[e]; the terms of an entry that land on one
    height are summed (mod 2 over Z/2) and dropped at zero. The shift is
    a unit monomial, so it keeps the rank, and a window then drops only
    monomials of an ideal (see `novseries`). No window enters here."""
    rows = [{} for _ in range(nrows)]
    for j, column in enumerate(band):
        for i, x in column.items():
            acc = {}
            for e, c in x.terms.items():
                h = heights[e]
                acc[h] = acc.get(h, 0) + c
            # with no two terms on one height, acc holds the stored nonzero
            # coefficients (1 over Z/2) and needs no reduction
            if len(acc) < len(x.terms):
                acc = _nonzero(acc, mod2)
            if acc:
                rows[i][j] = acc
    for i, row in enumerate(rows):
        low = min(map(min, row.values()), default=0)
        if low:
            rows[i] = {j: {h - low: c for h, c in x.items()} for j, x in row.items()}
    return rows


def _series_rank(rows, cutoff, ring) -> list:
    """Pivot heights, in the order taken, of a full-pivot elimination of
    `_lift` rows (left unchanged) over series windowed at height <= cutoff;
    their number is the rank.

    The pivot is the free entry of least lowest height, first in
    row-major order, where a division by it keeps the most of the window, so
    every height stays in [0, cutoff]; each row keeps its least (height,
    column), recomputed when an update changes the row. Entries that
    vanish inside the window count as zero. A pivot p of least height h0
    clears the entry x of another row with the factor
    f = -x / p = (-x t^-h0) / (p t^-h0), one `height_quotient` windowed at
    cutoff - h0: f only multiplies entries of height h0 or more, so its
    terms above that never reach the window, and no pivot is inverted;
    the divisor, the pivot's factored inverse, is built once per pivot
    (`leading_unit_inverse`). Each update x + f*y is summed into one
    windowed dict (`height_accumulate`). Coefficients are reduced mod 2
    over Z/2, and integral ones are ints over Z and Q alike. So every
    windowed entry, pivot and rank is the one the same elimination over
    the multivariate series reference of `tests/series_reference.py`
    gives in one variable, where the height is the exponent times the
    window's sign.

    Every entry has height h0 or more, and x + f*y keeps it so, so pivot
    heights never decrease. Entries at cutoff c are exact below height
    c + 1, and a factor is exact below c + 1 - h0 and multiplies heights
    of h0 or more. So the runs at cutoffs c <= C hold the same entries up
    to height c and take the same pivots among them: the rank at c is the
    number of pivot heights <= c of the run at C. Soundness comes from
    the caller's doubling protocol.
    """
    mod2 = ring is CoefficientRing.MOD2
    work = {}  # free row -> {column: windowed series}
    for r, row in enumerate(rows):
        windowed = {}
        for c, x in row.items():
            if max(x) > cutoff:
                x = {h: v for h, v in x.items() if h <= cutoff}
            if x:
                windowed[c] = x
        if windowed:
            work[r] = windowed
    best = {r: min((min(x), c) for c, x in row.items()) for r, row in work.items()}
    heights = []
    while work:
        h0, pr, pc = min((h, r, c) for r, (h, c) in best.items())
        pivot = work.pop(pr)
        del best[pr]
        p = {h - h0: v for h, v in pivot.pop(pc).items()}
        heights.append(h0)
        divisor = leading_unit_inverse(p)
        for r in list(work):
            row = work[r]
            x = row.pop(pc, None)
            if x is None:
                continue
            neg = {h - h0: -v for h, v in x.items()}
            # in height order, as height_accumulate wants it
            factor = list(height_quotient(neg, divisor, cutoff - h0, mod2).items())
            for c, y in pivot.items():
                acc = height_accumulate(dict(row.get(c, ())), y, factor, cutoff)
                acc = _nonzero(acc, mod2)
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
            if row:
                best[r] = min((min(x), c) for c, x in row.items())
            else:
                del work[r], best[r]
    return heights


def truncated_homology_oracle(X: EquivariantComplex, a, order=16) -> BettiReport:
    """Independent Betti computation over truncated series in one variable.

    Requires a nonzero class. With a = w / s, w the primitive integer
    vector on the ray of a and s > 0 rational, the monomial t^e of X has
    height w . e, so a(e) = (w . e) / s, and the window of order N holds
    the heights up to floor(N * s). The boundaries of X are ranked as
    they are: nothing is pushed to the quotient by the kernel of a, whose
    rank-one image carries the same heights; each is lifted once, and
    only windowed at each order. The truncation order doubles until two
    consecutive runs return the same boundary ranks and no Betti number
    is negative (the Euler identity holds for any ranks); failing to
    stabilize within `_MAX_DOUBLINGS` orders raises IncreaseOrder. Each
    doubling from N to 2N runs one elimination, at the window of order
    2N, which gives the ranks of both orders (see `_series_rank`). A
    starting order above `lattice.MAX_ORACLE_ORDER` is an InputError, and
    so is an order whose cutoff floor(N * s) is above it, before any
    elimination at that order's window runs. For an integral class with
    primitive periods the cutoff is the order itself.
    """
    a = _as_class(a, X.deck.rank)
    if a.is_zero():
        raise InputError("the oracle needs a class with rank-one image")
    order = int(order)
    if order < 1:
        raise InputError("truncation order must be positive")
    if order > MAX_ORACLE_ORDER:
        raise InputError(
            f"truncation order {order} is above the limit {MAX_ORACLE_ORDER}"
        )
    weights, s = a.primitive_form()
    counts = X.cell_counts()
    chi = euler_characteristic(X)

    def window(N):
        cutoff = floor(N * s)
        if cutoff > MAX_ORACLE_ORDER:
            raise InputError(
                f"the oracle window at order {N} reaches heights above "
                f"the limit {MAX_ORACLE_ORDER}"
            )
        return cutoff

    mod2 = X.ring is CoefficientRing.MOD2
    exponents = {
        e for band in X.columns for column in band
        for x in column.values() for e in x.terms
    }
    heights = {e: sum(map(mul, weights, e)) for e in exponents}
    lifted = [
        _lift(band, n, heights, mod2) for band, n in zip(X.columns, counts)
    ]
    N, cutoff = order, window(order)
    orders = [N]
    for _ in range(_MAX_DOUBLINGS - 1):
        N *= 2
        narrow, cutoff = cutoff, window(N)
        pivots = [_series_rank(rows, cutoff, X.ring) for rows in lifted]
        # the pivot heights <= narrow give the ranks of order N / 2
        previous = tuple(sum(h <= narrow for h in p) for p in pivots)
        ranks = tuple(map(len, pivots))
        orders.append(N)
        betti = _betti_from_ranks(counts, ranks)
        if previous == ranks and all(b >= 0 for b in betti):
            checks = {
                # Betti numbers from ranks sum to chi whatever the ranks
                "euler_consistent": True,
                "stabilized": True,
                "orders": orders,
                "boundary_ranks": list(ranks),
            }
            # Z input is ranked as it is, over Q, its fraction field
            ring = "Q" if X.ring is CoefficientRing.INT else X.ring.value
            return BettiReport(
                betti, chi, _class_ring(ring, X, a), "truncated-oracle", checks
            )
    raise IncreaseOrder(
        f"series elimination did not stabilize at orders {orders}"
    )


# ---------------------------------------------------------------------------
# theorem-level checks


def main_theorem_check(
    X: EquivariantComplex,
    P: Polytope,
    a_weights,
    b_weights,
    B=None,
    seed: int = 0,
) -> dict:
    """Materialize the comparison square independently on both sides.

    One side twists directly and reduces with one Morse seed; the other
    extends scalars monomial by monomial and reduces with another seed.
    Betti reports must agree between the sides, between the full and
    restricted rings, and with the single-class computations at the two
    convex combinations supplied.
    """
    a = convex_combination(P, a_weights)
    b = convex_combination(P, b_weights)
    TA = twisted_complex(X, P, B)
    TB = tensor_base_change(X, P, B)
    matrices_match = (
        TA.base == TB.base
        and TA.polytope == TB.polytope
        and TA.finiteness == TB.finiteness
    )

    reduced_a, matching_a = morse_reduce(TA.base, seed=seed)
    reduced_b, matching_b = morse_reduce(TB.base, seed=seed + 101)

    rep_a = _rank_report(reduced_a, _polytope_ring(TA))
    rep_b = _rank_report(reduced_b, _polytope_ring(TB))
    # polytope_betti(X, P, B) and (X, P, None): the twist TA, ranked once;
    # the full ring differs from the restricted one only in its descriptor
    rep_restricted = _rank_report(TA.base, _polytope_ring(TA))
    everything = replace(TA, finiteness=tuple(range(len(P.vertices))))
    rep_full = replace(rep_restricted, ring=_polytope_ring(everything))
    nov_a = novikov_betti(X, a)
    nov_b = novikov_betti(X, b)

    bettis = [
        rep_a.betti, rep_b.betti, rep_full.betti, rep_restricted.betti,
        nov_a.betti, nov_b.betti,
    ]
    chis = [rep_a.chi, rep_b.chi, rep_full.chi, rep_restricted.chi,
            nov_a.chi, nov_b.chi]
    checks = {
        "routes_give_equal_matrices": matrices_match,
        "betti_agree": all(t == bettis[0] for t in bettis),
        "euler_agree": all(c == chis[0] for c in chis),
        "reduction_preserves_report": rep_a.canonical() == rep_b.canonical(),
        "restriction_keeps_betti": rep_restricted.betti == rep_full.betti,
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "betti": list(rep_full.betti),
        "chi": rep_full.chi,
        "classes": {"a": a.to_json(), "b": b.to_json()},
        "seeds": [seed, seed + 101],
        "matchings": [len(matching_a), len(matching_b)],
        "reports": {
            "twist_route": rep_a.to_json(),
            "tensor_route": rep_b.to_json(),
            "polytope_full": rep_full.to_json(),
            "polytope_restricted": rep_restricted.to_json(),
            "class_a": nov_a.to_json(),
            "class_b": nov_b.to_json(),
        },
    }


# ---------------------------------------------------------------------------
# rational approximation families


@dataclass(frozen=True)
class ApproximationFamily:
    target: CohomologyClass
    epsilon: Fraction
    delta: Fraction
    members: tuple
    flags: dict

    @property
    def ok(self) -> bool:
        return all(self.flags.values())

    def to_json(self):
        return {
            "target": self.target.to_json(),
            "epsilon": format_rational(self.epsilon),
            "delta": format_rational(self.delta),
            "members": [m.to_json() for m in self.members],
            "flags": self.flags,
            "ok": self.ok,
        }


def rational_approximation(u, eps, rank=None) -> ApproximationFamily:
    """Family of one-coordinate perturbations of a class.

    One member per nonzero coordinate of the target, each nudged by a
    tenth of the tolerance. The members stay within the tolerance in sup
    norm, are pairwise distinct, kill every lattice vector supported on
    the target's zero coordinates, and jointly span the rational span of
    the active coordinate functionals together with the target.
    """
    u = _as_class(u, rank)
    eps = parse_rational(eps)
    if eps <= 0:
        raise InputError("tolerance must be positive")
    delta = eps / 10
    active = [i for i, p in enumerate(u.periods) if p != 0]
    members = []
    for j in active:
        periods = list(u.periods)
        periods[j] += delta
        members.append(CohomologyClass(tuple(periods)))

    distinct = len(set(members)) == len(members)
    within = all(
        max(abs(m.periods[i] - u.periods[i]) for i in range(u.rank)) < eps
        for m in members
    ) if members else True
    kills_inactive = all(
        m.periods[i] == 0
        for m in members
        for i in range(u.rank)
        if i not in active
    )
    if members:
        common = kernel_lattice(members, rank=u.rank)
        span_dim = u.rank - len(common)
    else:
        span_dim = 0
    flags = {
        "pairwise_distinct": distinct,
        "within_tolerance": within,
        "kernels_contain_inactive_lattice": kills_inactive,
        "spanning": span_dim == len(active),
    }
    return ApproximationFamily(u, eps, delta, tuple(members), flags)
