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

from dataclasses import dataclass

from .complexes import EquivariantComplex
from .errors import InputError
from .groupring import GroupRingElement
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


def _twist(X: EquivariantComplex, P: Polytope, B, push) -> TwistedComplex:
    """The twist of X by P restricted to B, with base push(X, q) for the
    quotient q by the polytope's common kernel. The two routes below
    differ only in `push`."""
    if P.rank != X.deck.rank:
        raise InputError(
            f"polytope rank {P.rank} against deck rank {X.deck.rank}"
        )
    if B is None:
        indices = tuple(range(len(P.vertices)))
    elif isinstance(B, Subpolytope):
        if B.polytope != P:
            raise InputError("subpolytope belongs to a different polytope")
        indices = B.vertex_indices
    else:
        indices = Subpolytope(P, B).vertex_indices
    q = quotient_map(P.vertices)
    base = push(X, q)
    induced = [q.induced_class(v) for v in P.vertices]
    if len(set(induced)) != len(induced):
        raise InputError("polytope vertices collapsed under their own quotient")
    return TwistedComplex(
        base=base, quotient=q, polytope=Polytope(induced), finiteness=indices
    )


def twisted_complex(X: EquivariantComplex, P: Polytope, B=None) -> TwistedComplex:
    """Push X forward along the quotient by the polytope's common kernel."""
    return _twist(X, P, B, EquivariantComplex.specialize)


def tensor_base_change(X: EquivariantComplex, P: Polytope, B=None) -> TwistedComplex:
    """Same twist, built as an extension of scalars.

    Each boundary entry is expanded into monomials, every monomial is
    mapped through the quotient on its own, and the images are re-summed
    in the target ring one monomial at a time. This exercises a different
    code path from `twisted_complex` (which pushes each distinct element
    once, through `GroupRingElement.pushed_terms`); the two must agree
    entry by entry. Only the exponent images are shared: they come from
    one `LatticeMap.images` call over the distinct exponents. The image of
    a ring map keeps d∘d = 0, so it is not validated again.
    """
    return _twist(X, P, B, _extend_scalars)


def _extend_scalars(X: EquivariantComplex, q: LatticeMap) -> EquivariantComplex:
    ring = X.ring
    exponents = set().union(
        *(e.terms for band in X.columns for column in band for e in column.values())
    )
    images = q.images(exponents)  # None on a quotient of rank 0

    def move(e: GroupRingElement) -> GroupRingElement:
        terms = {}
        for exp, coeff in e.sorted_terms():
            image = () if images is None else images[exp]
            s = ring.add(terms.get(image, 0), coeff)
            if s == 0:
                del terms[image]
            else:
                terms[image] = s
        return GroupRingElement.of_terms(ring, q.rank_out, terms)

    columns = [
        [{i: move(e) for i, e in column.items()} for column in band]
        for band in X.columns
    ]
    return EquivariantComplex.from_columns(
        ring, q.rank_out, X.cells, columns, validate=False
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
