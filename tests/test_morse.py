"""Matching search and V-path reduction.

The reduction is cross-checked against an independent oracle: one-pair
Gaussian elimination applied pair by pair (Schur complement on the band,
then dropping the pair's row and column). For an acyclic matching the
pivots of pending pairs are never touched by earlier eliminations, so the
pairs can be eliminated in accepted order; the result must match the
library's flow-based reduction exactly.
"""

import random

import pytest

from polynov.complexes import EquivariantComplex, ingest
from polynov.errors import CyclicMatchingError, InputError
from polynov.groupring import (
    CoefficientRing,
    GroupRingElement,
    matrix_rank_fraction_field,
)
from polynov.morse import (
    Matching,
    acyclic_matching,
    morse_reduce,
    validate_matching,
    vpath_boundary,
)

Q = CoefficientRing.RAT


def subdivided_circle(ring=Q):
    tag = {Q: "Q", CoefficientRing.MOD2: "Z2"}[ring]
    return ingest({
        "coefficients": tag,
        "rank": 1,
        "cells": [["v0", "v1"], ["e0", "e1"]],
        "boundaries": [[["-1", "t"], ["1", "-1"]]],
    })


def torus():
    return ingest({
        "coefficients": "Q",
        "rank": 2,
        "cells": [["v"], ["e1", "e2"], ["f"]],
        "boundaries": [
            [["t1 - 1", "t2 - 1"]],
            [["1 - t2"], ["t1 - 1"]],
        ],
    })


def tensor_complex(A: EquivariantComplex, B: EquivariantComplex):
    """Chain-level product; deck coordinates are concatenated."""
    assert A.ring is B.ring
    ring = A.ring
    ra, rb = A.deck.rank, B.deck.rank
    rank = ra + rb

    def lift_a(x):
        return GroupRingElement(
            ring, rank, {e + (0,) * rb: c for e, c in x.terms.items()}
        )

    def lift_b(x):
        return GroupRingElement(
            ring, rank, {(0,) * ra + e: c for e, c in x.terms.items()}
        )

    dim = A.dimension + B.dimension
    index = {}  # (p, i, q, j) -> position in degree p + q
    cells = []
    for n in range(dim + 1):
        names = []
        for p in range(n + 1):
            q = n - p
            if p > A.dimension or q > B.dimension:
                continue
            for i, a in enumerate(A.cells[p]):
                for j, b in enumerate(B.cells[q]):
                    index[(p, i, q, j)] = len(names)
                    names.append(f"{a}|{b}")
        cells.append(names)

    zero = GroupRingElement.zero(ring, rank)
    boundaries = []
    for n in range(1, dim + 1):
        matrix = [[zero] * len(cells[n]) for _ in cells[n - 1]]
        for p in range(n + 1):
            q = n - p
            if p > A.dimension or q > B.dimension:
                continue
            for i in range(len(A.cells[p])):
                for j in range(len(B.cells[q])):
                    col = index[(p, i, q, j)]
                    if p >= 1:
                        for i2 in range(len(A.cells[p - 1])):
                            e = A.boundaries[p - 1][i2][i]
                            if e.is_zero():
                                continue
                            row = index[(p - 1, i2, q, j)]
                            matrix[row][col] = matrix[row][col] + lift_a(e)
                    if q >= 1:
                        sign = -1 if p % 2 else 1
                        for j2 in range(len(B.cells[q - 1])):
                            e = B.boundaries[q - 1][j2][j]
                            if e.is_zero():
                                continue
                            row = index[(p, i, q - 1, j2)]
                            term = lift_b(e)
                            if sign < 0:
                                term = -term
                            matrix[row][col] = matrix[row][col] + term
        boundaries.append(matrix)
    return EquivariantComplex(ring, rank, cells, boundaries)


def subdivided_torus(ring=Q):
    c = subdivided_circle(ring)
    return tensor_complex(c, c)


def ff_betti(X):
    ranks = [
        matrix_rank_fraction_field([list(r) for r in m]).rank
        for m in X.boundaries
    ]
    counts = X.cell_counts()
    out = []
    for i, n in enumerate(counts):
        left = ranks[i - 1] if i >= 1 else 0
        right = ranks[i] if i < len(ranks) else 0
        out.append(n - left - right)
    return tuple(out)


def euler(X):
    return sum((-1) ** i * n for i, n in enumerate(X.cell_counts()))


# -- independent oracle -------------------------------------------------------


def eliminate_pairs(X: EquivariantComplex, matching: Matching):
    mats = [
        [[e for e in row] for row in m] for m in X.boundaries
    ]
    dead = [set() for _ in X.cells]
    for k, i, j in matching.pairs:
        u = mats[k][i][j]
        assert u.unit_monomial() is not None
        uinv = u.monomial_inverse()
        for r in range(len(X.cells[k])):
            if r == i or r in dead[k]:
                continue
            lam = mats[k][r][j]
            if lam.is_zero():
                continue
            for c in range(len(X.cells[k + 1])):
                if c == j or c in dead[k + 1]:
                    continue
                mats[k][r][c] = mats[k][r][c] - lam * uinv * mats[k][i][c]
        dead[k].add(i)
        dead[k + 1].add(j)
    cells = [
        [X.cells[k][i] for i in range(len(X.cells[k])) if i not in dead[k]]
        for k in range(len(X.cells))
    ]
    boundaries = [
        [
            [mats[k][i][j] for j in range(len(X.cells[k + 1])) if j not in dead[k + 1]]
            for i in range(len(X.cells[k]))
            if i not in dead[k]
        ]
        for k in range(len(X.boundaries))
    ]
    return EquivariantComplex(X.ring, X.deck.rank, cells, boundaries)


def test_vpath_matches_elimination_oracle():
    cases = [subdivided_circle(), subdivided_torus(),
             subdivided_torus(CoefficientRing.MOD2)]
    for X in cases:
        for seed in range(10):
            m = acyclic_matching(X, seed=seed)
            if not m.pairs:
                continue
            assert vpath_boundary(X, m) == eliminate_pairs(X, m)


# -- frozen small cases --------------------------------------------------------


def test_subdivided_circle_forces_one_pair():
    X = subdivided_circle()
    for seed in range(10):
        m = acyclic_matching(X, seed=seed)
        assert len(m) == 1
        R = vpath_boundary(X, m)
        assert R.cell_counts() == (1, 1)
        entry = R.boundaries[0][0][0]
        terms = entry.sorted_terms()
        assert len(terms) == 2
        assert sum(c for _, c in terms) == 0
        assert {abs(c) for _, c in terms} == {1}
        (e_hi, _), (e_lo, _) = terms
        assert e_hi[0] - e_lo[0] == 1


def test_torus_standard_complex_is_irreducible():
    X = torus()
    for seed in range(5):
        m = acyclic_matching(X, seed=seed)
        assert len(m) == 0
        assert vpath_boundary(X, m) is X


def test_interval_collapses_to_a_point():
    for rank in (0, 1):
        X = EquivariantComplex(
            Q,
            rank,
            [["v0", "v1"], ["e"]],
            [[[GroupRingElement.from_string("-1", Q, rank)],
              [GroupRingElement.from_string("1", Q, rank)]]],
        )
        R, m = morse_reduce(X, seed=3)
        assert len(m) == 1
        assert R.cell_counts() == (1, 0)


def test_perfect_collapse_to_empty_complex():
    # one vertex swallowed by one edge: reduction leaves nothing at all
    X = EquivariantComplex(
        Q, 1, [["v"], ["e"]],
        [[[GroupRingElement.from_string("1", Q, 1)]]],
    )
    R = vpath_boundary(X, Matching([(0, 0, 0)]))
    assert R.cell_counts() == (0, 0)
    assert euler(R) == euler(X) == 0


def test_point_is_a_fixed_point():
    X = EquivariantComplex(Q, 1, [["v"]], [])
    R, m = morse_reduce(X)
    assert len(m) == 0 and R is X


# -- structure preservation -----------------------------------------------------


def test_reduction_preserves_betti_and_chi():
    cases = [subdivided_circle(), subdivided_torus(),
             subdivided_circle(CoefficientRing.MOD2)]
    for X in cases:
        chi = euler(X)
        betti = ff_betti(X)
        for seed in range(20):
            R, m = morse_reduce(X, seed=seed)
            assert euler(R) == chi
            assert ff_betti(R) == betti
            for k, names in enumerate(R.cells):
                assert set(names) <= set(X.cells[k])


def test_double_reduction_is_stable():
    X = subdivided_torus()
    R1, _ = morse_reduce(X, seed=1)
    R2, _ = morse_reduce(R1, seed=2)
    assert ff_betti(R2) == ff_betti(X)
    assert euler(R2) == euler(X)


# -- pathologies ----------------------------------------------------------------


def test_cyclic_matching_detected():
    X = subdivided_circle()
    cyclic = Matching([(0, 0, 0), (0, 1, 1)])
    validate_matching(X, cyclic)  # structurally fine, dynamically cyclic
    with pytest.raises(CyclicMatchingError):
        vpath_boundary(X, cyclic)


def test_validate_matching_rejects_bad_pairs():
    X = subdivided_circle()
    with pytest.raises(InputError):
        validate_matching(torus(), Matching([(0, 0, 0)]))  # t1 - 1 not a unit
    with pytest.raises(InputError):
        validate_matching(X, Matching([(1, 0, 0)]))
    with pytest.raises(InputError):
        validate_matching(X, Matching([(0, 0, 5)]))
    with pytest.raises(InputError):
        validate_matching(X, Matching([(0, 0, 0), (0, 0, 1)]))


def test_matching_is_deterministic_per_seed():
    X = subdivided_torus()
    assert acyclic_matching(X, seed=7) == acyclic_matching(X, seed=7)
