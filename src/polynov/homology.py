"""Betti numbers over completed deck-group rings, and the theorem checks.

Only ranks are computed, never module presentations: every coefficient
domain in scope sits between a Laurent group ring and one of its completed
series rings, and all of them embed in the fraction field of the quotient
Laurent ring, where column ranks agree. Reports say so explicitly.

The truncated-series oracle recomputes rank-one cases by Gaussian
elimination over windowed series, with the window doubled until two
consecutive runs agree; it shares no rank code with the fraction-field
path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .complexes import EquivariantComplex, _betti_from_ranks
from .errors import IncreaseOrder, InputError
from .groupring import (
    CoefficientRing,
    GroupRingElement,
    matrix_rank_fraction_field,
)
from .lattice import (
    CohomologyClass,
    Polytope,
    convex_combination,
    format_rational,
    kernel_lattice,
    parse_rational,
    period_eval,
    quotient_map,
    zero_class,
)
from .morse import morse_reduce
from .novseries import (
    TruncatedNovikovSeries,
    Truncation,
    leading_unit_inverse,
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
    results = [matrix_rank_fraction_field(m, seed=seed) for m in X.boundaries]
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
    ring_desc = {"kind": "polytope", **T.ring_descriptor(),
                 "validity": RANK_VALIDITY_NOTE}
    return _rank_report(T.base, ring_desc, seed=seed)


# ---------------------------------------------------------------------------
# truncated-series oracle


def _field_complex(X: EquivariantComplex) -> EquivariantComplex:
    if X.ring is not CoefficientRing.INT:
        return X
    rat = CoefficientRing.RAT

    def promote(e):
        return GroupRingElement(
            rat, e.rank, {exp: Fraction(c) for exp, c in e.terms.items()}
        )

    boundaries = [
        [[promote(e) for e in row] for row in m] for m in X.boundaries
    ]
    return EquivariantComplex(rat, X.deck.rank, X.cells, boundaries)


def _lift_row(row, direction):
    """Multiply a row by the unit monomial that moves its least
    direction-period to 0. Windowing then drops only monomials of an ideal
    (see `novseries`), and unit row scaling keeps the rank."""
    support = [exp for e in row for exp in e.terms]
    if not support:
        return row
    low = min(support, key=lambda exp: period_eval(direction, exp))
    unit = GroupRingElement.monomial(
        row[0].ring, row[0].rank, tuple(-x for x in low)
    )
    return [unit * e for e in row]


def _series_rank(matrix, region, order, ring) -> int:
    """Rank by full-pivot elimination over windowed series.

    Pivots are chosen with minimal leading period, where the leading-term
    inverse is most accurate; entries that vanish inside the window count
    as zero. Soundness comes from the caller's doubling protocol, not
    from any single run.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    if nrows == 0 or ncols == 0:
        return 0
    trunc = Truncation.interior(region, order)
    work = [
        [TruncatedNovikovSeries(e, trunc) for e in _lift_row(row, trunc.direction)]
        for row in matrix
    ]
    zero = TruncatedNovikovSeries.zero(ring, trunc)
    row_free = [True] * nrows
    col_free = [True] * ncols
    rank = 0
    while True:
        best = None
        for r in range(nrows):
            if not row_free[r]:
                continue
            for c in range(ncols):
                if not col_free[c]:
                    continue
                p = work[r][c].min_period()
                if p is None:
                    continue
                if best is None or p < best[0]:
                    best = (p, r, c)
        if best is None:
            break
        _, pr, pc = best
        pinv = leading_unit_inverse(work[pr][pc], trunc.direction, trunc)
        for r in range(nrows):
            if r == pr or not row_free[r]:
                continue
            lead = work[r][pc]
            if lead.is_zero():
                continue
            factor = lead * pinv
            for c in range(ncols):
                if col_free[c]:
                    work[r][c] = work[r][c] - factor * work[pr][c]
            work[r][pc] = zero
        row_free[pr] = False
        col_free[pc] = False
        rank += 1
    return rank


def truncated_homology_oracle(
    X: EquivariantComplex, a, order=16, *, max_doublings=8
) -> BettiReport:
    """Independent Betti computation over truncated series in one variable.

    Requires a class whose induced period has rank-one image (any nonzero
    class after the kernel quotient). The truncation order doubles until
    two consecutive runs return the same boundary ranks and the result is
    internally consistent (nonnegative Betti, Euler identity); failing to
    stabilize raises IncreaseOrder.
    """
    a = _as_class(a, X.deck.rank)
    if a.is_zero():
        raise InputError("the oracle needs a class with rank-one image")
    order = int(order)
    if order < 1:
        raise InputError("truncation order must be positive")
    q = quotient_map([a])
    if q.rank_out != 1:
        raise InputError("class does not induce a rank-one quotient")
    Y = _field_complex(X.specialize(q))
    induced = q.induced_class(a)
    region = Polytope([induced])
    counts = Y.cell_counts()
    chi = euler_characteristic(Y)

    orders = []
    previous = None
    N = order
    for _ in range(max_doublings):
        ranks = tuple(
            _series_rank(m, region, N, Y.ring) for m in Y.boundaries
        )
        orders.append(N)
        betti = _betti_from_ranks(counts, ranks)
        consistent = all(b >= 0 for b in betti) and (
            sum((-1) ** i * b for i, b in enumerate(betti)) == chi
        )
        if previous == ranks and consistent:
            ring_desc = {
                "kind": "class",
                "coefficients": Y.ring.value,
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

    def twist_report(reduced, T):
        desc = {"kind": "polytope", **T.ring_descriptor(),
                "validity": RANK_VALIDITY_NOTE}
        return _rank_report(reduced, desc)

    rep_a = twist_report(reduced_a, TA)
    rep_b = twist_report(reduced_b, TB)
    rep_full = polytope_betti(X, P, None)
    rep_restricted = polytope_betti(X, P, B) if B is not None else rep_full
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
