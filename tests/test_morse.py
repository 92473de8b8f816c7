"""Matching search and V-path reduction.

The reduction is cross-checked against an independent oracle: one-pair
Gaussian elimination applied pair by pair (Schur complement on the band,
then dropping the pair's row and column). For an acyclic matching the
pivots of pending pairs are never touched by earlier eliminations, so the
pairs can be eliminated in accepted order; the result must match the
library's flow-based reduction exactly.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from polynov.complexes import EquivariantComplex, ingest
from polynov.errors import CyclicMatchingError, InputError
from polynov.groupring import (
    CoefficientRing,
    GroupRingElement,
    matrix_rank_fraction_field,
)
from polynov.homology import ordinary_betti
from polynov.morse import (
    Matching,
    acyclic_matching,
    morse_reduce,
    validate_matching,
    vpath_boundary,
)
from test_complexes import cubical_torus
from test_generated import SHAPES, _hidden_koszul, families

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

    dim = len(A.cells) + len(B.cells) - 2
    index = {}  # (p, i, q, j) -> position in degree p + q
    cells = []
    for n in range(dim + 1):
        names = []
        for p in range(n + 1):
            q = n - p
            if p >= len(A.cells) or q >= len(B.cells):
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
            if p >= len(A.cells) or q >= len(B.cells):
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


def cubical(n, m, ring=Q):
    """Cubical T^n,m; m = 1 is the Koszul complex of T^n."""
    return EquivariantComplex(ring, n, *cubical_torus(n, m, ring))


def with_unit_summand(X, k, u):
    """X plus cells b of degree k and a of degree k + 1 with d(a) = u * b."""
    zero = GroupRingElement.zero(X.ring, X.deck.rank)
    cells = [
        list(names) + [f"s{len(names)}"] * (d in (k, k + 1))
        for d, names in enumerate(X.cells)
    ]
    mats = [[list(row) for row in m] for m in X.boundaries]
    if k >= 1:
        for row in mats[k - 1]:
            row.append(zero)
    mats[k] = [row + [zero] for row in mats[k]]
    mats[k].append([zero] * len(X.cells[k + 1]) + [u])
    if k + 1 < len(mats):
        mats[k + 1].append([zero] * len(cells[k + 2]))
    return EquivariantComplex(X.ring, X.deck.rank, cells, mats)


def random_unit(ring, rank, rng):
    exp = tuple(rng.randint(-1, 1) for _ in range(rank))
    return GroupRingElement.monomial(ring, rank, exp, rng.choice((1, -1)))


def conjugate(X, rng, steps):
    """X in another basis, after `steps` elementary changes P = 1 + g E_ab
    of one degree, g a random +-monomial: d_(d-1) <- d_(d-1) P and
    d_d <- P^-1 d_d."""
    rank = X.deck.rank
    mats = [[list(row) for row in m] for m in X.boundaries]
    for _ in range(steps):
        d = rng.randrange(len(X.cells))
        if len(X.cells[d]) < 2:
            continue
        a, b = rng.sample(range(len(X.cells[d])), 2)
        g = random_unit(X.ring, rank, rng)
        if d >= 1:
            for row in mats[d - 1]:
                row[b] = row[b] + g * row[a]
        if d < len(mats):
            mats[d][a] = [x - g * y for x, y in zip(mats[d][a], mats[d][b])]
    return EquivariantComplex(X.ring, rank, X.cells, mats)


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


def test_vpath_matches_elimination_oracle_on_cubical_t3_4():
    X = cubical(3, 4, CoefficientRing.MOD2)
    m = acyclic_matching(X, seed=1)
    R = vpath_boundary(X, m)
    assert R == eliminate_pairs(X, m)
    assert ordinary_betti(R).betti == (1, 3, 3, 1)


def generated_complex(shape, ring):
    """Relabelled cubical T^n,m for (n, m), hidden Koszul T^n for (n,); over
    Z the Q document is read back with its coefficients re-tagged."""
    rng = random.Random(f"{shape}:{ring}")
    tag = "Q" if ring == "Z" else ring
    if len(shape) == 2:
        X = families.relabel(families.cubical(*shape, tag), rng).complex
    else:
        X = _hidden_koszul(*shape, tag, rng).complex
    return ingest({**X.to_json(), "coefficients": "Z"}) if ring == "Z" else X


@pytest.mark.parametrize("ring", ["Q", "Z", "Z2"])
@pytest.mark.parametrize("shape", SHAPES, ids=[
    f"cubical-{s[0]},{s[1]}" if len(s) == 2 else f"hidden-koszul-{s[0]}" for s in SHAPES
])
def test_vpath_matches_the_oracle_on_generated_complexes(shape, ring):
    # hidden Koszul entries have several terms and non-unit coefficients
    X = generated_complex(shape, ring)
    for seed in range(4):
        m = acyclic_matching(X, seed=seed)
        assert m.pairs
        assert vpath_boundary(X, m) == eliminate_pairs(X, m)


def test_vpath_carries_fractions_through_matched_pairs():
    # a relabelled cubical T^3,3 over Q with half of its edges doubled: the
    # edge's row of the face band is scaled by 1/2 and its column of the
    # edge band by 2, so d∘d = 0 holds and the other entries of a face
    # stay units that the matching may pair
    rng = random.Random(5)
    X = families.relabel(families.cubical(3, 3, "Q"), rng).complex
    rank = X.deck.rank

    def scaled(e, factor):
        return GroupRingElement(Q, rank, {x: c * factor for x, c in e.terms.items()})

    edges, faces, solids = (list(map(list, m)) for m in X.boundaries)
    halved = set(rng.sample(range(len(X.cells[1])), len(X.cells[1]) // 2))
    for r in halved:
        faces[r] = [scaled(e, Fraction(1, 2)) for e in faces[r]]
        for row in edges:
            row[r] = scaled(row[r], 2)
    Y = EquivariantComplex(Q, rank, X.cells, [edges, faces, solids])
    through = 0
    for seed in range(4):
        m = acyclic_matching(Y, seed=seed)
        # a pair of the face band whose face has another, halved edge puts
        # 1/2 into the flow of the paired edge
        through += sum(
            k == 1 and any(r in halved for r in Y.columns[1][j] if r != i)
            for k, i, j in m.pairs
        )
        assert vpath_boundary(Y, m) == eliminate_pairs(Y, m)
    assert through


def test_vpath_builds_no_element_per_flow_step(monkeypatch):
    cases = [generated_complex(shape, ring)
             for shape, ring in (((3, 3), "Q"), ((4,), "Q"), ((4,), "Z"), ((3, 3), "Z2"))]
    calls = Counter()
    for name in ("__mul__", "__add__"):
        def spy(self, other, name=name, method=getattr(GroupRingElement, name)):
            calls[name] += 1
            return method(self, other)
        monkeypatch.setattr(GroupRingElement, name, spy)
    for X in cases:
        m = acyclic_matching(X, seed=1)
        R = vpath_boundary(X, m)
        assert not calls
        assert R == eliminate_pairs(X, m)
        assert calls["__mul__"]  # the spies see the oracle's products
        calls.clear()


def reference_matching(X: EquivariantComplex, seed: int):
    """The greedy search that reruns a three-colour DFS over the whole
    band's V-path digraph for every candidate; returns the matching and
    how many free candidates the digraph check rejected."""
    def band_is_acyclic(boundary, pairs):
        color = dict.fromkeys(pairs, 0)  # 0 new, 1 active, 2 done

        def neighbors(i):
            j = pairs[i]
            return (i2 for i2 in pairs if i2 != i and not boundary[i2][j].is_zero())

        for start in pairs:
            if color[start]:
                continue
            stack = [(start, neighbors(start))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                for nxt in it:
                    if color[nxt] == 1:
                        return False
                    if color[nxt] == 0:
                        color[nxt] = 1
                        stack.append((nxt, neighbors(nxt)))
                        break
                else:
                    color[node] = 2
                    stack.pop()
        return True

    rng = random.Random(seed)
    candidates = [
        (k, i, j)
        for k, matrix in enumerate(X.boundaries)
        for i, row in enumerate(matrix)
        for j, entry in enumerate(row)
        if entry.unit_monomial() is not None
    ]
    rng.shuffle(candidates)
    used, accepted, band, rejected = set(), [], {}, 0
    for k, i, j in candidates:
        if (k, i) in used or (k + 1, j) in used:
            continue
        trial = {**band.get(k, {}), i: j}
        if not band_is_acyclic(X.boundaries[k], trial):
            rejected += 1
            continue
        band[k] = trial
        used |= {(k, i), (k + 1, j)}
        accepted.append((k, i, j))
    return Matching(accepted), rejected


def test_matching_equals_the_whole_band_search():
    rng = random.Random(17)
    Z2 = CoefficientRing.MOD2
    cases = [subdivided_circle(), subdivided_torus(Z2)]
    for ring in (Q, Z2):
        cases += [conjugate(cubical(n, m, ring), rng, 6)
                  for n, m in ((2, 3), (2, 4), (3, 2), (3, 3))]
        for _ in range(3):
            koszul = cubical(3, 1, ring)
            for k in (0, 1, 1, 2):
                koszul = with_unit_summand(koszul, k, random_unit(ring, 3, rng))
            cases.append(conjugate(koszul, rng, 20))
    rejected = 0
    for X in cases:
        for seed in range(6):
            expected, r = reference_matching(X, seed)
            assert acyclic_matching(X, seed=seed) == expected
            rejected += r
    # the digraph check decides: without it the matchings would differ
    assert rejected > 100


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
    # the search starts from the lowest matched cell, whatever the pair order
    with pytest.raises(CyclicMatchingError, match="through cell 0 of degree 0"):
        vpath_boundary(X, Matching([(0, 1, 1), (0, 0, 0)]))


def test_vpath_longer_than_the_recursion_limit():
    # vertex j matched up to edge j: the flow of v0 runs through every
    # other vertex
    n = sys.getrecursionlimit() + 200
    R = vpath_boundary(cubical(1, n), Matching([(0, j, j) for j in range(n - 1)]))
    assert R.cell_counts() == (1, 1)
    assert R.boundaries[0][0][0].to_string() == "t - 1"


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
    # a zero incidence is not stored; it is still named as an incidence
    T = cubical(2, 2)
    i, j = next(
        (i, j) for i, row in enumerate(T.boundaries[0])
        for j, e in enumerate(row) if e.is_zero()
    )
    assert i not in T.columns[0][j]
    with pytest.raises(InputError, match=rf"^pair \(0, {i}, {j}\) has non-unit incidence 0$"):
        validate_matching(T, Matching([(0, i, j)]))


def test_matching_is_deterministic_per_seed():
    X = subdivided_torus()
    assert acyclic_matching(X, seed=7) == acyclic_matching(X, seed=7)
