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
the window of order N is height <= floor(N * s). The elimination
multiplies only the pairs of terms whose heights sum to at most the
cutoff: a pair lands at exactly that sum, so the pruned product equals
the full product windowed afterwards.
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
    _primitive_form,
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
    height_difference,
    height_inverse,
    height_product,
)
from .twist import tensor_base_change, twisted_complex

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
        "euler_consistent": sum(
            (-1) ** i * b for i, b in enumerate(betti)
        ) == chi,
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
    ring_desc = {
        "kind": "class",
        "coefficients": X.ring.value,
        "deck_rank": X.deck.rank,
        "class": a.ray_normalized().to_json(),
    }
    return _rank_report(X.specialize(q), ring_desc)


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


def _lift_row(row, weights, cutoff, mod2):
    """One row as windowed height dicts, shifted so that its least height
    is 0. t^e has height weights . e; the terms of an entry that land on
    one height are summed (mod 2 over Z/2) and dropped at zero. The shift
    is a unit monomial, so it keeps the rank, and the window then drops
    only monomials of an ideal (see `novseries`)."""
    heights = []
    for entry in row:
        acc = {}
        for e, c in entry.terms.items():
            h = sum(map(mul, weights, e))
            acc[h] = acc.get(h, 0) + c
        # without two terms on one height, nothing was summed
        heights.append(acc if len(acc) == len(entry.terms) else _nonzero(acc, mod2))
    low = min((h for entry in heights for h in entry), default=0)
    return [
        {h - low: c for h, c in entry.items() if h - low <= cutoff}
        for entry in heights
    ]


def _series_rank(matrix, weights, cutoff, ring) -> int:
    """Rank by full-pivot elimination over windowed series.

    Each series is a height dict (see `novseries`): t^e has height
    weights . e, for the class's primitive integer weight vector, and the
    window is height <= cutoff. Every row starts with least height 0;
    the pivot is the free entry of least lowest height, first in
    row-major order, where the leading-term inverse is most accurate, so
    every height stays in [0, cutoff]. A product lands each pair of terms
    at the sum of their heights, so skipping the pairs above the cutoff is
    the full product windowed afterwards. The pivot's inverse is kept only
    up to height cutoff - h0, h0 the pivot's least height: it only
    multiplies free entries of the pivot column, whose heights are all
    h0 or more. Coefficients are reduced mod 2 over Z/2; integral
    coefficients are ints over Z and Q alike, so Z input runs as it is
    over Q. So every windowed entry, pivot and rank is the one the same
    elimination over `TruncatedNovikovSeries` with `leading_unit_inverse`
    gives in one variable, where the height is the exponent times the
    window's sign. Entries that vanish inside the window count as zero.
    Soundness comes from the caller's doubling protocol, not from any
    single run.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    if nrows == 0 or ncols == 0:
        return 0
    mod2 = ring is CoefficientRing.MOD2
    work = [_lift_row(row, weights, cutoff, mod2) for row in matrix]
    row_free = [True] * nrows
    col_free = [True] * ncols
    rank = 0
    while True:
        best = None
        for r in range(nrows):
            if not row_free[r]:
                continue
            row = work[r]
            for c in range(ncols):
                if col_free[c] and row[c]:
                    h = min(row[c])
                    if best is None or h < best[0]:
                        best = (h, r, c)
        if best is None:
            break
        h0, pr, pc = best
        pivot_row = work[pr]
        pinv = height_inverse(pivot_row[pc], cutoff - h0, mod2)
        for r in range(nrows):
            row = work[r]
            if r == pr or not row_free[r] or not row[pc]:
                continue
            factor = height_product(row[pc], pinv, cutoff, mod2)
            for c in range(ncols):
                if col_free[c] and c != pc and pivot_row[c]:
                    step = height_product(factor, pivot_row[c], cutoff, mod2)
                    row[c] = height_difference(row[c], step, mod2)
            row[pc] = {}
        row_free[pr] = False
        col_free[pc] = False
        rank += 1
    return rank


def truncated_homology_oracle(
    X: EquivariantComplex, a, order=16, *, max_doublings=8
) -> BettiReport:
    """Independent Betti computation over truncated series in one variable.

    Requires a nonzero class. With a = w / s, w the primitive integer
    vector on the ray of a and s > 0 rational, the monomial t^e of X has
    height w . e, so a(e) = (w . e) / s, and the window of order N holds
    the heights up to floor(N * s). The boundaries of X are ranked as
    they are: nothing is pushed to the quotient by the kernel of a, whose
    rank-one image carries the same heights. The truncation order doubles
    until two consecutive runs return the same boundary ranks and the
    result is internally consistent (nonnegative Betti, Euler identity);
    failing to stabilize raises IncreaseOrder. A starting order above
    `lattice.MAX_ORACLE_ORDER` is an InputError, and so is a starting
    window whose cutoff floor(order * s) is above it. For an integral
    class with primitive periods the cutoff is the order itself.
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
    weights, s = _primitive_form(a.periods)
    if floor(order * s) > MAX_ORACLE_ORDER:
        raise InputError(
            f"the oracle window at order {order} reaches heights above "
            f"the limit {MAX_ORACLE_ORDER}"
        )
    counts = X.cell_counts()
    chi = euler_characteristic(X)

    boundaries = X.boundaries
    orders = []
    previous = None
    N = order
    for _ in range(max_doublings):
        ranks = tuple(
            _series_rank(m, weights, floor(N * s), X.ring) for m in boundaries
        )
        orders.append(N)
        betti = _betti_from_ranks(counts, ranks)
        consistent = all(b >= 0 for b in betti) and (
            sum((-1) ** i * b for i, b in enumerate(betti)) == chi
        )
        if previous == ranks and consistent:
            ring_desc = {
                "kind": "class",
                # Z input is ranked as it is, over Q, its fraction field
                "coefficients": (
                    "Q" if X.ring is CoefficientRing.INT else X.ring.value
                ),
                "deck_rank": X.deck.rank,
                "class": a.ray_normalized().to_json(),
            }
            checks = {
                "euler_consistent": True,
                "stabilized": True,
                "orders": orders,
                "boundary_ranks": list(ranks),
            }
            return BettiReport(betti, chi, ring_desc, "truncated-oracle", checks)
        previous = ranks
        N *= 2
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
