"""Discrete Morse reduction of equivariant complexes.

A matching pairs a k-cell with a (k+1)-cell whose incidence is a unit
monomial (coefficient +-1 times a deck monomial). When the matching is
acyclic, eliminating all matched pairs leaves a smaller complex on the
unmatched (critical) cells with the same homology over any coefficient
extension; the reduced boundary sums incidences transported along
alternating paths through matched pairs.

Pairs are recorded positionally: (k, i, j) matches cell i of degree k
with cell j of degree k + 1 through entry boundaries[k][i][j].
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import EquivariantComplex
from .errors import CyclicMatchingError, InputError
from .groupring import GroupRingElement


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
        if not 0 <= k < len(X.boundaries):
            raise InputError(f"pair degree {k} out of range")
        if not 0 <= i < len(X.cells[k]) or not 0 <= j < len(X.cells[k + 1]):
            raise InputError(f"pair ({k}, {i}, {j}) out of range")
        if X.boundaries[k][i][j].unit_monomial() is None:
            raise InputError(
                f"pair ({k}, {i}, {j}) has non-unit incidence "
                f"{X.boundaries[k][i][j].to_string()}"
            )
        lower, upper = (k, i), (k + 1, j)
        if lower in used or upper in used:
            raise InputError("matching reuses a cell")
        used.add(lower)
        used.add(upper)


def _band_pairs(matching: Matching, k: int):
    return {i: j for kk, i, j in matching.pairs if kk == k}


def _band_is_acyclic(boundary, pairs) -> bool:
    """V-path digraph on the matched k-cells of one band, checked by DFS.

    Edge sigma -> sigma' when sigma' is a different face of sigma's partner
    with nonzero incidence; a cycle is exactly a closed V-path.
    """
    matched = set(pairs)
    color = {i: 0 for i in matched}  # 0 new, 1 active, 2 done

    def neighbors(i):
        j = pairs[i]
        for i2 in matched:
            if i2 != i and not boundary[i2][j].is_zero():
                yield i2

    for start in matched:
        if color[start]:
            continue
        stack = [(start, iter(neighbors(start)))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return False
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(neighbors(nxt))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return True


def acyclic_matching(X: EquivariantComplex, seed: int = 0) -> Matching:
    """Randomized greedy search for an acyclic unit-incidence matching.

    Candidates are shuffled with the seed, then accepted whenever both
    cells are still free and the band's V-path digraph stays acyclic.
    """
    rng = random.Random(seed)
    candidates = [
        (k, i, j)
        for k, matrix in enumerate(X.boundaries)
        for i, row in enumerate(matrix)
        for j, entry in enumerate(row)
        if entry.unit_monomial() is not None
    ]
    rng.shuffle(candidates)
    used = set()
    accepted = []
    band = {}
    for k, i, j in candidates:
        if (k, i) in used or (k + 1, j) in used:
            continue
        trial = dict(band.get(k, {}))
        trial[i] = j
        if not _band_is_acyclic(X.boundaries[k], trial):
            continue
        band[k] = trial
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
    flow. A matching whose flow recursion re-enters itself is cyclic and
    is reported as such.
    """
    validate_matching(X, matching)
    if not matching.pairs:
        return X
    ring, rank = X.ring, X.deck.rank
    zero = GroupRingElement.zero(ring, rank)
    one = GroupRingElement.one(ring, rank)

    up = {k: _band_pairs(matching, k) for k in range(len(X.boundaries))}
    down = {
        k + 1: {j for kk, i, j in matching.pairs if kk == k}
        for k in range(len(X.boundaries))
    }
    critical = [
        tuple(
            i
            for i in range(len(names))
            if i not in up.get(k, {}) and i not in down.get(k, set())
        )
        for k, names in enumerate(X.cells)
    ]

    memo = [dict() for _ in X.cells]
    active = set()

    def flow(k, i):
        # returns {critical k-cell index: coefficient}
        if i in memo[k]:
            return memo[k][i]
        if (k, i) in active:
            raise CyclicMatchingError(
                f"closed alternating path through cell {i} of degree {k}"
            )
        if i in down.get(k, set()):
            value = {}
        elif i not in up.get(k, {}):
            value = {i: one}
        else:
            active.add((k, i))
            j = up[k][i]
            u_inv = X.boundaries[k][i][j].monomial_inverse()
            acc = {}
            for i2 in range(len(X.cells[k])):
                if i2 == i:
                    continue
                e = X.boundaries[k][i2][j]
                if e.is_zero():
                    continue
                for c, val in flow(k, i2).items():
                    term = e * val
                    got = acc.get(c)
                    acc[c] = term if got is None else got + term
            value = {}
            for c, val in acc.items():
                scaled = -(u_inv * val)
                if not scaled.is_zero():
                    value[c] = scaled
            active.discard((k, i))
        memo[k][i] = value
        return value

    # force every flow up front so closed paths are caught even when no
    # critical cell's boundary would ever walk into them
    for k in range(len(X.cells)):
        for i in range(len(X.cells[k])):
            flow(k, i)

    boundaries = []
    for k, matrix in enumerate(X.boundaries):
        rows = {c: r for r, c in enumerate(critical[k])}
        reduced = [
            [zero for _ in critical[k + 1]] for _ in critical[k]
        ]
        for col, j in enumerate(critical[k + 1]):
            acc = {}
            for i in range(len(X.cells[k])):
                e = matrix[i][j]
                if e.is_zero():
                    continue
                for c, val in flow(k, i).items():
                    term = e * val
                    got = acc.get(c)
                    acc[c] = term if got is None else got + term
            for c, val in acc.items():
                if not val.is_zero():
                    reduced[rows[c]][col] = val
        boundaries.append(reduced)

    cells = [
        tuple(X.cells[k][i] for i in critical[k]) for k in range(len(X.cells))
    ]
    return EquivariantComplex(ring, rank, cells, boundaries)


def morse_reduce(X: EquivariantComplex, seed: int = 0):
    """Search a matching and apply it; returns (reduced complex, matching)."""
    matching = acyclic_matching(X, seed=seed)
    return vpath_boundary(X, matching), matching
