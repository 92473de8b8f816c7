"""Finite equivariant CW chain complexes over group rings.

A complex stores, per degree, the list of base cell names and the boundary
matrix whose entries live in the deck group ring (rows indexed by cells one
degree down, columns by cells of the degree). Square-zero is validated
exactly on construction.

Two JSON input modes are understood by `ingest`: explicit matrices, and a
group presentation whose 2-complex (one vertex, one edge per generator, one
disc per relator) is built through Fox derivatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CoverMismatch, InputError, ValidationError
from .groupring import (
    CoefficientRing,
    GroupRingElement,
    mat_mul,
    mat_specialize,
)
from .lattice import (
    DeckGroup,
    LatticeMap,
    Polytope,
    kernel_lattice,
    parse_rational,
    quotient_map,
)


class EquivariantComplex:
    """A finite free chain complex over R[Z^rank], validated square-zero."""

    __slots__ = ("ring", "deck", "cells", "boundaries")

    def __init__(self, ring, rank, cells, boundaries, validate=True):
        self.ring = ring
        self.deck = DeckGroup(int(rank))
        self.cells = tuple(tuple(str(n) for n in degree) for degree in cells)
        for degree, names in enumerate(self.cells):
            if len(set(names)) != len(names):
                raise InputError(f"duplicate cell names in degree {degree}")
        boundaries = [
            [list(row) for row in matrix] for matrix in boundaries
        ]
        if len(boundaries) != len(self.cells) - 1:
            raise InputError(
                f"{len(self.cells)} degrees need {len(self.cells) - 1} "
                f"boundary matrices, got {len(boundaries)}"
            )
        for k, matrix in enumerate(boundaries):
            if len(matrix) != len(self.cells[k]):
                raise InputError(
                    f"boundary into degree {k}: {len(matrix)} rows for "
                    f"{len(self.cells[k])} cells"
                )
            for row in matrix:
                if len(row) != len(self.cells[k + 1]):
                    raise InputError(
                        f"boundary from degree {k + 1}: row of length "
                        f"{len(row)} for {len(self.cells[k + 1])} cells"
                    )
                for e in row:
                    if not isinstance(e, GroupRingElement):
                        raise InputError("boundary entries must be ring elements")
                    if e.ring is not ring or e.rank != self.deck.rank:
                        raise InputError("boundary entry in the wrong ring")
        self.boundaries = tuple(tuple(tuple(row) for row in m) for m in boundaries)
        if validate:
            self.validate()

    # -- shape ----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1

    def cell_counts(self):
        return tuple(len(names) for names in self.cells)

    def boundary_operator(self, i: int):
        """Matrix of the boundary leaving degree i (empty for i<1, i>dim)."""
        if 1 <= i <= self.dimension:
            return self.boundaries[i - 1]
        ncells = len(self.cells[i - 1]) if 1 <= i - 1 < len(self.cells) else 0
        return tuple(() for _ in range(ncells))

    # -- validation -------------------------------------------------------

    def validate(self):
        """Exact square-zero check; reports the first offending entry."""
        for k in range(len(self.boundaries) - 1):
            product = mat_mul(
                self.boundaries[k],
                self.boundaries[k + 1],
                self.ring,
                self.deck.rank,
                len(self.cells[k + 1]),
            )
            for i, row in enumerate(product):
                for j, entry in enumerate(row):
                    if not entry.is_zero():
                        raise ValidationError(
                            f"boundary square is nonzero from degree {k + 2}: "
                            f"entry ({i}, {j}) is {entry.to_string()}",
                            degree=k + 2,
                            row=i,
                            col=j,
                        )
        return True

    # -- transport ----------------------------------------------------

    def specialize(self, lattice_map: LatticeMap) -> "EquivariantComplex":
        """Push all boundary entries forward along a deck-lattice quotient."""
        return EquivariantComplex(
            self.ring,
            lattice_map.rank_out,
            self.cells,
            [mat_specialize(m, lattice_map) for m in self.boundaries],
        )

    # -- serialization --------------------------------------------------

    def to_json(self):
        return {
            "coefficients": self.ring.value,
            "rank": self.deck.rank,
            "cells": [list(names) for names in self.cells],
            "boundaries": [
                [[e.to_string() for e in row] for row in matrix]
                for matrix in self.boundaries
            ],
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()

    def __eq__(self, other):
        return (
            isinstance(other, EquivariantComplex)
            and self.ring is other.ring
            and self.deck == other.deck
            and self.cells == other.cells
            and self.boundaries == other.boundaries
        )

    def __repr__(self):
        counts = "x".join(str(c) for c in self.cell_counts())
        return f"<complex {counts} over {self.ring.value}[Z^{self.deck.rank}]>"


def _betti_from_ranks(counts, ranks):
    """Betti numbers from cell counts and boundary ranks, where ranks[i] is
    the rank of the boundary leaving degree i + 1."""
    out = []
    for i, n in enumerate(counts):
        left = ranks[i - 1] if i >= 1 else 0
        right = ranks[i] if i < len(ranks) else 0
        out.append(n - left - right)
    return tuple(out)


# ---------------------------------------------------------------------------
# presentations and Fox derivatives


def _parse_word(word, generators):
    """Turn a relator into a freely reduced list of (generator index, +-1).

    Strings may be compact with case-swapped inverses ("xyXY") or token
    lists / '*'-or-space-separated with ^exponents ("x*y*x^-1*y^-1").
    """
    index = {g: i for i, g in enumerate(generators)}
    letters = []

    def push(name, exp):
        if name not in index:
            raise InputError(f"unknown generator {name!r} in relator")
        sign = 1 if exp > 0 else -1
        letters.extend([(index[name], sign)] * abs(exp))

    def push_token(token):
        if "^" in token:
            name, _, power = token.partition("^")
            try:
                exp = int(power)
            except ValueError as exc:
                raise InputError(f"bad exponent in token {token!r}") from exc
        else:
            name, exp = token, 1
        if exp == 0:
            return
        if name in index:
            push(name, exp)
        elif name.swapcase() in index and len(name) == 1:
            push(name.swapcase(), -exp)
        else:
            raise InputError(f"unknown generator {name!r} in relator")

    if isinstance(word, str):
        text = word.strip()
        if any(ch in text for ch in " *^"):
            for token in text.replace("*", " ").split():
                push_token(token)
        else:
            for ch in text:
                push_token(ch)
    elif isinstance(word, (list, tuple)):
        for item in word:
            if isinstance(item, str):
                push_token(item)
            elif (
                isinstance(item, (list, tuple))
                and len(item) == 2
                and isinstance(item[0], str)
            ):
                push(item[0], _integer(item[1], "relator exponent"))
            else:
                raise InputError(f"bad relator item {item!r}")
    else:
        raise InputError(f"bad relator {word!r}")

    reduced = []
    for letter in letters:
        if reduced and reduced[-1][0] == letter[0] and reduced[-1][1] == -letter[1]:
            reduced.pop()
        else:
            reduced.append(letter)
    return tuple(reduced)


@dataclass(frozen=True)
class GroupPresentation:
    """Finitely presented group with freely reduced relator words."""

    generators: tuple
    relators: tuple

    def __init__(self, generators, relators):
        generators = tuple(str(g) for g in generators)
        if len(set(generators)) != len(generators):
            raise InputError("generator names must be distinct")
        if not generators:
            raise InputError("need at least one generator")
        words = tuple(_parse_word(w, generators) for w in relators)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", words)


def fox_boundary(
    presentation: GroupPresentation,
    deck_map,
    ring: CoefficientRing = CoefficientRing.RAT,
) -> EquivariantComplex:
    """Presentation 2-complex with boundaries from Fox derivatives.

    `deck_map` is an integer matrix with one row per deck coordinate and one
    column per generator; it must kill every relator's abelianization
    (CoverMismatch otherwise). The derivative follows the product rule
    d(uv) = du + u*dv, specialized to the deck quotient by replacing each
    prefix with the monomial of its image.
    """
    gens = presentation.generators
    deck_rows = [list(map(int, row)) for row in deck_map]
    rank = len(deck_rows)
    for row in deck_rows:
        if len(row) != len(gens):
            raise InputError(
                f"deck map row of length {len(row)} for {len(gens)} generators"
            )
    images = [
        tuple(deck_rows[i][j] for i in range(rank)) for j in range(len(gens))
    ]

    for word in presentation.relators:
        total = [0] * rank
        for g, sign in word:
            for i in range(rank):
                total[i] += sign * images[g][i]
        if any(total):
            raise CoverMismatch(
                f"relator abelianizes to {tuple(total)}, not 0; "
                "no such free-abelian cover"
            )

    one = GroupRingElement.one(ring, rank)
    d1 = [[
        GroupRingElement.monomial(ring, rank, images[j]) - one
        for j in range(len(gens))
    ]]

    d2 = [
        [GroupRingElement.zero(ring, rank) for _ in presentation.relators]
        for _ in gens
    ]
    for k, word in enumerate(presentation.relators):
        prefix = [0] * rank
        for g, sign in word:
            if sign > 0:
                term = GroupRingElement.monomial(ring, rank, tuple(prefix))
                for i in range(rank):
                    prefix[i] += images[g][i]
            else:
                for i in range(rank):
                    prefix[i] -= images[g][i]
                term = -GroupRingElement.monomial(ring, rank, tuple(prefix))
            d2[g][k] = d2[g][k] + term

    cells = [
        ("v",),
        tuple(gens),
        tuple(f"r{k + 1}" for k in range(len(presentation.relators))),
    ]
    boundaries = [d1, d2]
    if not presentation.relators:
        cells = cells[:2]
        boundaries = [d1]
    return EquivariantComplex(ring, rank, cells, boundaries)


# ---------------------------------------------------------------------------
# ingest


def _integer(value, what) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _is_table(value) -> bool:
    return isinstance(value, list) and all(isinstance(row, list) for row in value)


def ingest(document) -> EquivariantComplex:
    """Build a complex from a parsed JSON document (either input mode)."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise InputError("complex document must be a JSON object")

    if "generators" in document:
        generators = document["generators"]
        relators = document.get("relators", [])
        if not isinstance(generators, list) or not isinstance(relators, list):
            raise InputError("generators and relators must be lists")
        pres = GroupPresentation(generators, relators)
        if "deck_map" not in document:
            raise InputError("presentation mode needs a deck_map")
        if not _is_table(document["deck_map"]):
            raise InputError("deck_map must be a list of integer rows")
        deck_map = [
            [_integer(v, "deck_map entry") for v in row]
            for row in document["deck_map"]
        ]
        ring = CoefficientRing.from_tag(document.get("coefficients", "Q"))
        return fox_boundary(pres, deck_map, ring)

    for field in ("coefficients", "rank", "cells", "boundaries"):
        if field not in document:
            raise InputError(f"complex document is missing {field!r}")
    ring = CoefficientRing.from_tag(document["coefficients"])
    rank = _integer(document["rank"], "rank")
    if rank < 0:
        raise InputError("rank must be nonnegative")
    cells = document["cells"]
    raw = document["boundaries"]
    if not _is_table(cells) or not isinstance(raw, list):
        raise InputError("cells must be a list of name lists, boundaries a list")
    if not all(_is_table(m) for m in raw):
        raise InputError("each boundary must be a list of rows")
    if not all(isinstance(e, str) for m in raw for row in m for e in row):
        raise InputError("boundary entries must be strings")
    boundaries = [
        [[GroupRingElement.from_string(e, ring, rank) for e in row] for row in m]
        for m in raw
    ]
    X = EquivariantComplex(ring, rank, cells, boundaries)
    if not any(X.cells):
        raise InputError("a complex document needs at least one cell")
    return X


def ingest_path(path) -> EquivariantComplex:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return ingest(data)


# ---------------------------------------------------------------------------
# ray invariance


def scale_check(X: EquivariantComplex, P: Polytope, r) -> bool:
    """Positive rescaling of the polytope leaves the materialized data alone.

    Scaling every vertex class by r > 0 keeps each kernel, hence the deck
    quotient, hence the specialized complex; this check materializes both
    sides and compares their canonical bytes.
    """
    r = parse_rational(r)
    if r <= 0:
        raise InputError("scale factor must be positive")
    if P.rank != X.deck.rank:
        raise InputError("polytope rank disagrees with the complex")
    scaled = P.scale(r)
    if kernel_lattice(P.vertices) != kernel_lattice(scaled.vertices):
        return False
    q_plain = quotient_map(P.vertices)
    q_scaled = quotient_map(scaled.vertices)
    left = X.specialize(q_plain).canonical_bytes()
    right = X.specialize(q_scaled).canonical_bytes()
    return left == right
