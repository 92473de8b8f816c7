"""Twisting, base change agreement, the zero vertex, and lift independence.

The tensor route rebuilds every boundary entry monomial by monomial, so
agreement with the direct specialization is a real cross-check, not a
tautology. Induced classes are checked to reproduce the original periods
through the quotient, and to be jointly faithful there.
"""

import json
import random
from fractions import Fraction

import pytest

from polynov.complexes import EquivariantComplex, GroupPresentation, fox_boundary, ingest
from polynov.errors import InputError
from polynov.groupring import CoefficientRing, GroupRingElement, chain_ranks
from polynov.lattice import (
    CohomologyClass,
    Polytope,
    Subpolytope,
    kernel_lattice,
    period_eval,
    zero_class,
)
from polynov.twist import (
    TwistedComplex,
    tensor_base_change,
    twisted_complex,
    zero_vertex_extend,
)
from test_complexes import conjugated

Q = CoefficientRing.RAT


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


def klein():
    return ingest({
        "coefficients": "Z2",
        "rank": 1,
        "cells": [["v"], ["e1", "e2"], ["f"]],
        "boundaries": [
            [["0", "t + 1"]],
            [["t + 1"], ["0"]],
        ],
    })


def genus2():
    pres = GroupPresentation(["a", "b", "c", "d"], ["abABcdCD"])
    return fox_boundary(pres, [[int(i == j) for j in range(4)] for i in range(4)])


def random_polytope(rng, rank, nverts):
    verts = []
    for _ in range(nverts):
        verts.append(tuple(
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
            for _ in range(rank)
        ))
    return Polytope(verts)


def test_full_rank_polytope_leaves_torus_alone():
    X = torus()
    T = twisted_complex(X, Polytope([(1, 0), (0, 1)]))
    assert T.base == X
    assert T.quotient.rank_out == 2
    assert T.finiteness == (0, 1)


def test_diagonal_vertex_merges_the_two_loops():
    X = torus()
    T = twisted_complex(X, Polytope([(1, 1)]))
    assert T.base.deck.rank == 1
    e1, e2 = T.base.boundaries[0][0]
    assert e1 == e2 and not e1.is_zero()
    top1, top2 = T.base.boundaries[1][0][0], T.base.boundaries[1][1][0]
    assert top1 == -top2
    # the induced vertex reproduces the original periods through the quotient
    a = CohomologyClass((1, 1))
    induced = T.polytope.vertices[0]
    for A in [(1, 0), (0, 1), (2, -3), (5, 5)]:
        assert period_eval(induced, T.quotient.apply(A)) == period_eval(a, A)


def test_specialization_can_cancel_entries():
    X = EquivariantComplex(
        Q, 2, [["v"], ["e"]],
        [[[GroupRingElement.from_string("t1 - t2", Q, 2)]]],
    )
    for route in (twisted_complex, tensor_base_change):
        T = route(X, Polytope([(1, 1)]))
        assert T.base.boundaries[0][0][0].is_zero()


def crowded_edge(ring, rng):
    """One edge whose two ~150-monomial boundary entries collide under any
    polytope that kills t1/t2: the first is g*(t1 - t2), whose image
    cancels to zero, the second adds random terms to it."""
    def element(count, coefficients):
        terms = {}
        for _ in range(count):
            exp = tuple(rng.randint(-4, 4) for _ in range(3))
            terms[exp] = rng.choice(coefficients)
        return GroupRingElement(ring, 3, terms)

    coefficients = {
        Q: (-2, -1, 1, 3, Fraction(1, 2)),
        CoefficientRing.INT: (-2, -1, 1, 3),
        CoefficientRing.MOD2: (1,),
    }[ring]
    g = element(90, coefficients)
    t1 = GroupRingElement.monomial(ring, 3, (1, 0, 0))
    t2 = GroupRingElement.monomial(ring, 3, (0, 1, 0))
    first = g * (t1 - t2)
    second = first + element(60, coefficients)
    assert len(first.terms) > 120 and len(second.terms) > 140
    return EquivariantComplex(ring, 3, [["v"], ["a", "b"]], [[[first, second]]])


def test_tensor_route_agrees_everywhere():
    rng = random.Random(23)
    cases = [
        (torus(), Polytope([(1, 0), (0, 1)])),
        (torus(), Polytope([(1, 1)])),
        (torus(), Polytope([(1, 1), (0, 0)])),
        (klein(), Polytope([(1,)])),
        (genus2(), Polytope([(1, 0, 0, 0), (0, 0, 0, 1)])),
    ]
    for _ in range(10):
        cases.append((torus(), random_polytope(rng, 2, rng.randrange(1, 4))))
    crowded = []
    for ring in (Q, CoefficientRing.INT, CoefficientRing.MOD2):
        for P in (Polytope([(1, 1, 0)]), Polytope([(1, 1, 0), (1, 1, 2)])):
            crowded.append((crowded_edge(ring, rng), P))
    for X, P in cases + crowded:
        A = twisted_complex(X, P)
        B = tensor_base_change(X, P)
        assert A.base == B.base
        assert A.polytope == B.polytope
        assert A.finiteness == B.finiteness
        assert A.quotient.matrix == B.quotient.matrix
    for X, P in crowded:
        first, second = tensor_base_change(X, P).base.boundaries[0][0]
        assert first.is_zero() and not second.is_zero()


def test_induced_polytope_is_jointly_faithful():
    rng = random.Random(5)
    for _ in range(20):
        P = random_polytope(rng, 3, rng.randrange(1, 4))
        if all(v.is_zero() for v in P.vertices):
            continue
        T = twisted_complex(
            EquivariantComplex(
                Q, 3, [["v"], ["e"]],
                [[[GroupRingElement.from_string("t1 - 1", Q, 3)]]],
            ),
            P,
        )
        # common kernel of the induced classes is trivial on the quotient
        assert kernel_lattice(T.polytope.vertices, rank=T.base.deck.rank) == ()


def test_restriction_index_forms():
    X = torus()
    P = Polytope([(1, 0), (0, 1), (1, 1)])
    assert twisted_complex(X, P).finiteness == (0, 1, 2)
    assert twisted_complex(X, P, [2, 0]).finiteness == (2, 0)
    sub = Subpolytope(P, (1,))
    assert twisted_complex(X, P, sub).finiteness == (1,)
    other = Polytope([(1, 0), (0, 1)])
    with pytest.raises(InputError):
        twisted_complex(X, P, Subpolytope(other, (0,)))
    with pytest.raises(InputError):
        twisted_complex(X, P, [7])


def test_rank_mismatch_rejected():
    with pytest.raises(InputError):
        twisted_complex(torus(), Polytope([(1,)]))
    with pytest.raises(InputError):
        tensor_base_change(klein(), Polytope([(1, 0)]))


def test_zero_vertex_extend():
    P = Polytope([(1, 0), (0, 1)])
    extended, idx = zero_vertex_extend(P)
    assert idx == 2
    assert extended.vertices[idx] == zero_class(2)
    assert kernel_lattice(extended.vertices) == kernel_lattice(P.vertices)
    # already present: index points at the existing copy
    P0 = Polytope([(0, 0), (1, 0)])
    again, idx0 = zero_vertex_extend(P0)
    assert idx0 == 0 and len(again.vertices) == 2
    # the twist itself is unchanged by the extra vertex
    X = torus()
    T_plain = twisted_complex(X, P)
    T_ext = twisted_complex(X, extended, [idx])
    assert T_plain.base == T_ext.base
    assert T_ext.finiteness == (idx,)


def test_lift_conjugation_preserves_structure():
    targets = [
        twisted_complex(torus(), Polytope([(1, 0), (0, 1)])),
        twisted_complex(torus(), Polytope([(1, 1)])),
        twisted_complex(klein(), Polytope([(1,)])),
        twisted_complex(genus2(), Polytope([(1, 1, 1, 1)])),
    ]
    for T in targets:
        for seed in range(5):
            relifted = conjugated(T.base, random.Random(seed))
            assert relifted.validate()
            assert chain_ranks(relifted) == chain_ranks(T.base)


def test_ring_descriptor_is_ray_invariant():
    X = torus()
    P = Polytope([(1, 1), (2, 0)])
    base = twisted_complex(X, P)
    for r in (Fraction(1, 2), 3, Fraction(7, 5)):
        scaled = twisted_complex(X, P.scale(r))
        assert json.dumps(scaled.ring_descriptor(), sort_keys=True) == \
            json.dumps(base.ring_descriptor(), sort_keys=True)
        assert scaled.base == base.base
