"""Twisting a complex by a polytope of cohomology classes.

The classes spanned by a polytope all factor through one quotient of the
deck lattice (the quotient by their common kernel). Twisting pushes the
chain complex forward along that quotient and records, on the quotient
side, the induced vertex classes together with the subset of vertices that
carry the finiteness condition. Homology over the associated completed
rings is computed elsewhere; this module owns the data transport and its
consistency checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import EquivariantComplex, _betti_from_ranks
from .errors import InputError
from .groupring import (
    CoefficientRing,
    GroupRingElement,
    matrix_rank_fraction_field,
)
from .lattice import (
    LatticeMap,
    Polytope,
    Subpolytope,
    kernel_lattice,
    quotient_map,
    zero_class,
)


@dataclass(frozen=True)
class TwistedComplex:
    """A complex specialized to the quotient determined by a polytope.

    `base` lives over the quotient deck lattice; `polytope` holds the
    induced vertex classes there (same count and order as the input
    polytope, since inducing along the common-kernel quotient keeps
    distinct functionals distinct); `finiteness` lists the vertex indices
    whose completion condition is in force.
    """

    base: EquivariantComplex
    quotient: LatticeMap
    polytope: Polytope
    finiteness: tuple
    source_rank: int

    @property
    def region(self) -> Subpolytope:
        return Subpolytope(self.polytope, self.finiteness)

    def ring_descriptor(self):
        """Canonical description of the coefficient ring of the twist.

        The ring is determined by the deck quotient and the classes whose
        finiteness condition is in force, so only those vertices are
        listed; other vertices of the ambient polytope enter solely
        through the quotient. Classes appear ray-normalized, so polytopes
        on the same positive rays (e.g. rescalings) describe byte-identical
        rings.
        """
        return {
            "coefficients": self.base.ring.value,
            "deck_rank": self.base.deck.rank,
            "vertices": [
                list(self.polytope.vertices[i].ray_normalized().to_json())
                for i in self.finiteness
            ],
            "finiteness": list(self.finiteness),
        }

    def to_json(self):
        return {
            "complex": self.base.to_json(),
            "ring": self.ring_descriptor(),
            "source_rank": self.source_rank,
        }


def _restriction_indices(P: Polytope, B) -> tuple:
    if B is None:
        return tuple(range(len(P.vertices)))
    if isinstance(B, Subpolytope):
        if B.polytope != P:
            raise InputError("subpolytope belongs to a different polytope")
        return B.vertex_indices
    return Subpolytope(P, B).vertex_indices


def _induced_polytope(P: Polytope, q: LatticeMap) -> Polytope:
    induced = [q.induced_class(v) for v in P.vertices]
    if len(set(induced)) != len(induced):
        raise InputError("polytope vertices collapsed under their own quotient")
    return Polytope(induced)


def twisted_complex(X: EquivariantComplex, P: Polytope, B=None) -> TwistedComplex:
    """Push X forward along the quotient by the polytope's common kernel."""
    if P.rank != X.deck.rank:
        raise InputError(
            f"polytope rank {P.rank} against deck rank {X.deck.rank}"
        )
    indices = _restriction_indices(P, B)
    q = quotient_map(P.vertices)
    return TwistedComplex(
        base=X.specialize(q),
        quotient=q,
        polytope=_induced_polytope(P, q),
        finiteness=indices,
        source_rank=X.deck.rank,
    )


def tensor_base_change(X: EquivariantComplex, P: Polytope, B=None) -> TwistedComplex:
    """Same twist, built as an extension of scalars.

    Each boundary entry is expanded into monomials, every monomial is
    mapped through the quotient on its own, and the images are re-summed
    in the target ring. This exercises a different code path from
    `twisted_complex` (which pushes whole elements forward); the two must
    agree entry by entry.
    """
    if P.rank != X.deck.rank:
        raise InputError(
            f"polytope rank {P.rank} against deck rank {X.deck.rank}"
        )
    indices = _restriction_indices(P, B)
    q = quotient_map(P.vertices)
    ring = X.ring

    def move(e: GroupRingElement) -> GroupRingElement:
        out = GroupRingElement.zero(ring, q.rank_out)
        for exp, coeff in e.sorted_terms():
            image = GroupRingElement.monomial(ring, q.rank_out, q.apply(exp))
            out = out + image.scalar_mul(coeff)
        return out

    boundaries = [
        [[move(e) for e in row] for row in matrix] for matrix in X.boundaries
    ]
    base = EquivariantComplex(ring, q.rank_out, X.cells, boundaries)
    return TwistedComplex(
        base=base,
        quotient=q,
        polytope=_induced_polytope(P, q),
        finiteness=indices,
        source_rank=X.deck.rank,
    )


def zero_vertex_extend(P: Polytope):
    """Adjoin the zero class as an extra vertex.

    The zero functional kills nothing, so the common kernel (hence the
    quotient and the twisted complex) is unchanged; only the available
    finiteness conditions grow. Returns the extended polytope together
    with the index of the zero vertex, which is the subpolytope to
    restrict to when recovering plain group-ring homology.
    """
    zero = zero_class(P.rank)
    extended = Polytope(tuple(P.vertices) + (zero,))
    if kernel_lattice(extended.vertices) != kernel_lattice(P.vertices):
        raise InputError("adding the zero vertex moved the kernel")
    return extended, extended.vertices.index(zero)


def lift_conjugation_self_test(T: TwistedComplex, seed: int = 0):
    """Re-pick the lift of every base cell and compare the outcome.

    Changing lifts conjugates each boundary matrix by diagonal unit
    monomials. The conjugated complex must still square to zero and must
    have the same boundary ranks (hence the same Betti numbers over the
    generic fiber). Returns a report dict with the ranks on both sides.
    """
    rng = random.Random(seed)
    X = T.base
    ring = X.ring
    rank = X.deck.rank

    def unit():
        exp = tuple(rng.randrange(-2, 3) for _ in range(rank))
        u = GroupRingElement.monomial(ring, rank, exp)
        if ring is not CoefficientRing.MOD2 and rng.random() < 0.5:
            u = -u
        return u

    units = [[unit() for _ in names] for names in X.cells]
    inverses = [[u.monomial_inverse() for u in row] for row in units]

    boundaries = []
    for k, matrix in enumerate(X.boundaries):
        conj = [
            [
                inverses[k][i] * entry * units[k + 1][j]
                for j, entry in enumerate(row)
            ]
            for i, row in enumerate(matrix)
        ]
        boundaries.append(conj)
    relifted = EquivariantComplex(ring, rank, X.cells, boundaries)

    def boundary_ranks(Y):
        return tuple(matrix_rank_fraction_field(m).rank for m in Y.boundaries)

    before = boundary_ranks(X)
    after = boundary_ranks(relifted)
    counts = X.cell_counts()
    report = {
        "ok": before == after,
        "ranks_before": before,
        "ranks_after": after,
        "betti_before": _betti_from_ranks(counts, before),
        "betti_after": _betti_from_ranks(counts, after),
    }
    return report
