"""Discrete Morse reduction of equivariant complexes.

A matching pairs a k-cell with a (k+1)-cell whose incidence is a unit
monomial (coefficient +-1 times a deck monomial). When the matching is
acyclic, eliminating all matched pairs leaves a smaller complex on the
unmatched (critical) cells with the same homology over any coefficient
extension; the reduced boundary sums incidences transported along
alternating paths through matched pairs.

Pairs are recorded positionally: (k, i, j) matches cell i of degree k
with cell j of degree k + 1 through the stored incidence columns[k][j][i].
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add, sub

from .complexes import EquivariantComplex
from .errors import CyclicMatchingError, InputError
from .groupring import CoefficientRing, GroupRingElement


@dataclass(frozen=True)
class Matching:
    pairs: tuple

    def __init__(self, pairs):
        cleaned = tuple(
            (int(k), int(i), int(j)) for k, i, j in pairs
        )
        object.__setattr__(self, "pairs", cleaned)

    def __len__(self):
        return len(self.pairs)


def validate_matching(X: EquivariantComplex, matching: Matching) -> None:
    used = set()
    for k, i, j in matching.pairs:
        if not 0 <= k < len(X.columns):
            raise InputError(f"pair degree {k} out of range")
        if not 0 <= i < len(X.cells[k]) or not 0 <= j < len(X.cells[k + 1]):
            raise InputError(f"pair ({k}, {i}, {j}) out of range")
        e = X.columns[k][j].get(i)
        if e is None or e.unit_monomial() is None:
            raise InputError(
                f"pair ({k}, {i}, {j}) has non-unit incidence "
                f"{'0' if e is None else e.to_string()}"
            )
        lower, upper = (k, i), (k + 1, j)
        if lower in used or upper in used:
            raise InputError("matching reuses a cell")
        used.add(lower)
        used.add(upper)


def _closes_vpath(faces, pairs, i, j) -> bool:
    """Whether matching k-cell i with j closes a V-path in its band.

    The band's `pairs` close none, so a new one passes through i: follow
    V-path steps from j (a matched face of a partner leads on to its own
    partner) and look for a partner that has i as a face.
    """
    seen = set()
    stack = [j]
    while stack:
        col = stack.pop()
        for r in faces[col]:
            if r == i:
                if col != j:
                    return True
            elif r in pairs and r not in seen:
                seen.add(r)
                stack.append(pairs[r])
    return False


def acyclic_matching(X: EquivariantComplex, seed: int = 0) -> Matching:
    """Randomized greedy search for an acyclic unit-incidence matching.

    Candidates are shuffled with the seed, then accepted whenever both
    cells are still free and the band's V-path digraph stays acyclic.
    """
    rng = random.Random(seed)
    candidates = sorted(
        (k, i, j)
        for k, band in enumerate(X.columns)
        for j, column in enumerate(band)
        for i, e in column.items()
        if e.unit_monomial() is not None
    )
    rng.shuffle(candidates)
    used = set()
    accepted = []
    band = [{} for _ in X.columns]
    for k, i, j in candidates:
        if (k, i) in used or (k + 1, j) in used:
            continue
        if _closes_vpath(X.columns[k], band[k], i, j):
            continue
        band[k][i] = j
        used.add((k, i))
        used.add((k + 1, j))
        accepted.append((k, i, j))
    return Matching(tuple(accepted))


def vpath_boundary(X: EquivariantComplex, matching: Matching) -> EquivariantComplex:
    """Reduced complex on the critical cells.

    The flow of a k-cell is a critical chain: critical cells flow to
    themselves, cells matched downward flow to zero, and a cell matched
    upward to tau flows through the other faces of tau, weighted by
    -u^-1 times their incidences (u the unit incidence of the pair).
    The reduced boundary of a critical cell pushes each face through its
    flow. A flow is kept as plain terms, {critical cell: {exponent:
    nonzero coefficient}}, and group-ring elements are built only for the
    entries of the reduced columns. A matching whose flow search
    re-enters a cell it is still resolving is cyclic and is reported as
    such. An acyclic matching keeps d∘d = 0 (algebraic Morse theory): the
    result is not validated.
    """
    validate_matching(X, matching)
    if not matching.pairs:
        return X
    ring, rank = X.ring, X.deck.rank
    mod2 = ring is CoefficientRing.MOD2
    faces = X.columns

    up = [{} for _ in X.cells]
    down = [set() for _ in X.cells]
    for k, i, j in matching.pairs:
        up[k][i] = j
        down[k + 1].add(j)
    critical = [
        tuple(i for i in range(len(names)) if i not in up[k] and i not in down[k])
        for k, names in enumerate(X.cells)
    ]

    # flow[k][i]: the critical chain k-cell i flows to, as {critical k-cell
    # index: {exponent: coefficient}}; cells matched upward are filled in
    # below
    zero = (0,) * rank
    flow = [
        dict.fromkeys(d, {}) | {i: {i: {zero: 1}} for i in c}
        for d, c in zip(down, critical)
    ]

    def push(k, j, skip=None):
        # sum of d[i][j] * flow[k][i] over the faces i of column j, as
        # {critical k-cell index: nonzero terms}; with skip, the flow of
        # the cell matched up to j through the unit u = a t^v: the other
        # faces weighted by -u^-1 = -a t^-v (a = +-1, and 1 over Z/2)
        column = faces[k][j]
        incidences = ((i, e.terms) for i, e in column.items())
        if skip is not None:
            ((v, a),) = column[skip].terms.items()
            keep = mod2 or a == -1
            incidences = (
                (i, {tuple(map(sub, e1, v)): c1 if keep else -c1
                     for e1, c1 in terms.items()})
                for i, terms in incidences if i != skip
            )
        acc = {}
        for i, incidence in incidences:
            for c, chain in flow[k][i].items():
                terms = acc.setdefault(c, {})
                for e1, c1 in incidence.items():
                    shifted = e1 != zero  # a constant term adds no exponent
                    for e2, c2 in chain.items():
                        exp = tuple(map(add, e1, e2)) if shifted else e2
                        got = terms.pop(exp, 0) + c1 * c2
                        if mod2:
                            got &= 1
                        if got:
                            terms[exp] = got
        return {c: terms for c, terms in acc.items() if terms}

    # every flow up front, so closed paths are caught even when no critical
    # cell's boundary would ever walk into them; depth first from the lowest
    # cell and in face order, on an explicit stack, since V-paths can be
    # longer than Python's recursion limit
    for k, band in enumerate(up):
        active = set()
        for start in sorted(band):
            stack = [(start, False)]
            while stack:
                i, ready = stack.pop()
                if ready:
                    flow[k][i] = push(k, band[i], skip=i)
                    active.discard(i)
                elif i not in flow[k]:
                    if i in active:
                        raise CyclicMatchingError(
                            f"closed alternating path through cell {i} of degree {k}"
                        )
                    active.add(i)
                    stack.append((i, True))
                    faces_i = reversed(faces[k][band[i]])
                    stack.extend((i2, False) for i2 in faces_i if i2 != i)

    # push lists cells in accumulation order; sorted, the rows ascend
    of_terms = GroupRingElement.of_terms
    columns = []
    for k in range(len(faces)):
        rows = {c: r for r, c in enumerate(critical[k])}
        columns.append(tuple(
            {rows[c]: of_terms(ring, rank, terms)
             for c, terms in sorted(push(k, j).items())}
            for j in critical[k + 1]
        ))

    cells = tuple(tuple(X.cells[k][i] for i in c) for k, c in enumerate(critical))
    return EquivariantComplex._stored(ring, rank, cells, tuple(columns))


def morse_reduce(X: EquivariantComplex, seed: int = 0):
    """Search a matching and apply it; returns (reduced complex, matching)."""
    matching = acyclic_matching(X, seed=seed)
    return vpath_boundary(X, matching), matching
