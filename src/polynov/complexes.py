"""Finite equivariant CW chain complexes over group rings.

A complex stores, per degree, the list of base cell names and the boundary
matrix whose entries live in the deck group ring (rows indexed by cells one
degree down, columns by cells of the degree). It is stored once, as sparse
columns with zeros never stored, and every layer reads those, the rank
engine and the truncated-series oracle included; the dense `boundaries`
view serves serialization only.
Square-zero is validated exactly on construction.

Two JSON input modes are understood by `ingest`: explicit matrices, and a
group presentation whose 2-complex (one vertex, one edge per generator, one
disc per relator) is built through Fox derivatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from operator import mul

from .errors import CoverMismatch, InputError, ValidationError
from .groupring import (
    MAX_DECIMAL_EXPONENT,
    CoefficientRing,
    GroupRingElement,
    kronecker_weights,
)
from .lattice import (
    DeckGroup,
    LatticeMap,
    Polytope,
    check_deck_rank,
    parse_rational,
    quotient_map,
)


class EquivariantComplex:
    """A finite free chain complex over R[Z^rank], validated square-zero.

    columns[k][j] is {row: element} for the nonzero entries of column j
    of the boundary from degree k + 1 to degree k, rows ascending.
    """

    __slots__ = ("ring", "deck", "cells", "columns")

    def __init__(self, ring, rank, cells, boundaries, validate=True):
        deck = DeckGroup(int(rank))
        boundaries = [[list(row) for row in matrix] for matrix in boundaries]

        def fill(band, i, row):
            for column, e in zip(band, row):
                if not isinstance(e, GroupRingElement):
                    raise InputError("boundary entries must be ring elements")
                if e.ring is not ring or e.rank != deck.rank:
                    raise InputError("boundary entry in the wrong ring")
                if e.terms:
                    column[i] = e

        cells, columns = _columns(cells, boundaries, fill)
        self.ring, self.deck, self.cells = ring, deck, cells
        self.columns = columns
        if validate:
            self.validate()

    @classmethod
    def from_columns(cls, ring, rank, cells, columns, validate=True):
        """Build from stored cells (name tuples) and columns; drops zeros."""
        X = cls._stored(ring, rank, cells, tuple(
            tuple({i: e for i, e in column.items() if e.terms} for column in band)
            for band in columns
        ))
        if validate:
            X.validate()
        return X

    @classmethod
    def _stored(cls, ring, rank, cells, columns):
        """The complex with exactly these cells and columns (tuples of
        tuples of {row: nonzero element} dicts), neither checked nor
        validated."""
        X = cls.__new__(cls)
        X.ring, X.deck, X.cells, X.columns = ring, DeckGroup(rank), cells, columns
        return X

    @property
    def boundaries(self):
        """Dense view, built on each call: boundaries[k][i][j] is entry (i, j)
        of the boundary from degree k + 1, and zeros share one element."""
        zero = GroupRingElement.zero(self.ring, self.deck.rank)
        dense = []
        for k, band in enumerate(self.columns):
            rows = [[zero] * len(band) for _ in self.cells[k]]
            for j, column in enumerate(band):
                for i, e in column.items():
                    rows[i][j] = e
            dense.append(tuple(map(tuple, rows)))
        return tuple(dense)

    # -- shape ----------------------------------------------------------

    def cell_counts(self):
        return tuple(len(names) for names in self.cells)

    # -- validation -------------------------------------------------------

    def validate(self):
        """Exact square-zero check; reports the first offending entry.

        Column j of the product d_k d_{k+1} is formed from the stored
        entries only: entry (l, j) of d_{k+1} meets every entry (i, l) of
        d_k. Each term product goes to one int key
        (`groupring.kronecker_weights`) whose digits are the row i and the
        exponent sum, so a product of monomials is one int addition and
        one dict holds the column. Exponents are taken relative to their
        least value in the band, and the radix of variable v is its span
        in d_k plus its span in d_{k+1} plus one: every sum of two
        exponents has digits of its own, so a sum is zero exactly when the
        sum on exponent tuples is, over Z, Q and Z/2. The least nonzero
        key of a column gives its first offending row; the first offending
        entry in row-major order is recomputed with group-ring arithmetic
        for the report.
        """
        mod2 = self.ring is CoefficientRing.MOD2
        exps = [
            {x for c in band for e in c.values() for x in e.terms}
            for band in self.columns
        ]
        for k, (lower, upper) in enumerate(zip(self.columns, self.columns[1:])):
            a_exps, b_exps = exps[k], exps[k + 1]
            if not a_exps or not b_exps:
                continue
            a_low = [min(p) for p in zip(*a_exps)]
            b_low = [min(p) for p in zip(*b_exps)]
            row_w, *weights = kronecker_weights(
                [len(self.cells[k])]
                + [
                    max(p) - la + max(q) - lb + 1
                    for p, q, la, lb in zip(zip(*a_exps), zip(*b_exps), a_low, b_low)
                ]
            )
            a_off = sum(map(mul, a_low, weights))
            b_off = sum(map(mul, b_low, weights))
            a_key = {x: sum(map(mul, x, weights)) - a_off for x in a_exps}
            b_key = {x: sum(map(mul, x, weights)) - b_off for x in b_exps}
            a_terms = [
                [
                    (i * row_w + a_key[x], c)
                    for i, e in column.items()
                    for x, c in e.terms.items()
                ]
                for column in lower
            ]
            bad = []
            for j, column in enumerate(upper):
                acc = {}  # (row, exponent sum) key -> coefficient
                get = acc.get
                for l, b in column.items():
                    a_column = a_terms[l]
                    for x, c2 in b.terms.items():
                        k2 = b_key[x]
                        for k1, c1 in a_column:
                            s = k1 + k2
                            acc[s] = get(s, 0) + c1 * c2
                nonzero = [s for s, c in acc.items() if (c % 2 if mod2 else c)]
                if nonzero:
                    bad.append((min(nonzero) // row_w, j))
            if bad:
                i, j = min(bad)
                entry = GroupRingElement.zero(self.ring, self.deck.rank)
                for l, b in upper[j].items():
                    if i in lower[l]:
                        entry = entry + lower[l][i] * b
                text = (
                    entry.to_string() if entry.printable() else
                    f"a polynomial with a coefficient of more than "
                    f"{MAX_DECIMAL_EXPONENT} digits"
                )
                raise ValidationError(
                    f"boundary square is nonzero from degree {k + 2}: "
                    f"entry ({i}, {j}) is {text}",
                    degree=k + 2,
                    row=i,
                    col=j,
                )
        return True

    # -- transport ----------------------------------------------------

    def specialize(self, lattice_map: LatticeMap) -> "EquivariantComplex":
        """Push all boundary entries forward along a deck-lattice quotient.

        The work is in bulk: the distinct exponents of the stored entries
        go through `lattice_map.images` together, and each distinct
        stored element (by identity: `ingest` shares one element between
        equal entry strings) is pushed once, by
        `GroupRingElement.pushed_terms`. On a quotient of rank 0 (ordinary
        homology) no exponent is mapped: an entry's image is the sum of
        its coefficients. The columns of the result are built in the same
        pass, without the entries whose image is zero. The quotient
        induces a ring map, and a ring map keeps d∘d = 0, so the image of
        this (validated) complex is not checked again.
        """
        if lattice_map.rank_in != self.deck.rank:
            raise InputError(
                f"map expects rank {lattice_map.rank_in}, complex has "
                f"deck rank {self.deck.rank}"
            )
        stored = {
            id(e): e for band in self.columns for c in band for e in c.values()
        }
        images = lattice_map.images(
            set().union(*(e.terms for e in stored.values()))
        )
        ring, rank = self.ring, lattice_map.rank_out
        push, element = GroupRingElement.pushed_terms, GroupRingElement.of_terms
        pushed = {}  # id(element) -> its image, None when that is zero
        for key, e in stored.items():
            terms = push(e, images)
            pushed[key] = element(ring, rank, terms) if terms else None
        columns = tuple(
            tuple(
                {i: p for i, e in c.items() if (p := pushed[id(e)]) is not None}
                for c in band
            )
            for band in self.columns
        )
        return EquivariantComplex._stored(ring, rank, self.cells, columns)

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
            and self.columns == other.columns
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


def _columns(cells, matrices, fill):
    """Cell names (string tuples) and the column store of `matrices`.

    Checks, in this order: distinct names per degree, the matrix count,
    then per matrix its row count and per row its length. `fill(band, i,
    row)` stores the entries of row i, of checked length, in the column
    dicts of band (one call per row, so no call per entry).
    """
    cells = tuple(tuple(str(n) for n in degree) for degree in cells)
    for degree, names in enumerate(cells):
        if len(set(names)) != len(names):
            raise InputError(f"duplicate cell names in degree {degree}")
    if len(matrices) != len(cells) - 1:
        raise InputError(
            f"{len(cells)} degrees need {len(cells) - 1} "
            f"boundary matrices, got {len(matrices)}"
        )
    columns = []
    for k, matrix in enumerate(matrices):
        if len(matrix) != len(cells[k]):
            raise InputError(
                f"boundary into degree {k}: {len(matrix)} rows for "
                f"{len(cells[k])} cells"
            )
        band = [{} for _ in cells[k + 1]]
        for i, row in enumerate(matrix):
            if len(row) != len(band):
                raise InputError(
                    f"boundary from degree {k + 1}: row of length "
                    f"{len(row)} for {len(band)} cells"
                )
            fill(band, i, row)
        columns.append(tuple(band))
    return cells, tuple(columns)


def _integer(value, what) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _is_table(value) -> bool:
    return isinstance(value, list) and all(isinstance(row, list) for row in value)


def parse_document(data, source=None):
    """The JSON object in a document's text or bytes. InputError, naming
    the source if given, for text that is not JSON, bytes that are not
    UTF-8, an integer literal of more than MAX_DECIMAL_EXPONENT digits and
    a value that is no object."""
    where = "" if source is None else f"{source} is "
    try:
        document = json.loads(data)
    except ValueError as exc:  # a plain ValueError: the long literal
        reason = exc if type(exc) is not ValueError else (
            f"an integer literal has more than {MAX_DECIMAL_EXPONENT} digits"
        )
        raise InputError(f"{where}not valid JSON: {reason}") from exc
    if not isinstance(document, dict):
        raise InputError("complex document must be a JSON object")
    return document


def ingest(document) -> EquivariantComplex:
    """Build a complex from a parsed JSON document (either input mode).

    Matrix mode works in proportion to the distinct entries: each distinct
    entry string is parsed once, in first-occurrence order, and equal
    strings share one (immutable) element; the columns are built straight
    from the rows, skipping "0". The parses share one memo, so each
    distinct term and factor of the document is parsed once; it is freed
    when ingest returns. Errors come in a fixed order: document
    structure, non-string entries, the first unparsable string in
    row-major order, cell names, matrix count, then row count and length.
    A deck rank (`rank`, or the row count of `deck_map`) above
    `lattice.MAX_DECK_RANK` is an InputError."""
    if isinstance(document, (str, bytes)):
        document = parse_document(document)
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
        check_deck_rank(len(document["deck_map"]))
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
    check_deck_rank(rank)
    cells = document["cells"]
    raw = document["boundaries"]
    if not _is_table(cells) or not isinstance(raw, list):
        raise InputError("cells must be a list of name lists, boundaries a list")
    if not all(_is_table(m) for m in raw):
        raise InputError("each boundary must be a list of rows")
    try:
        texts = dict.fromkeys(chain.from_iterable(row for m in raw for row in m))
    except TypeError:  # an unhashable entry
        texts = None
    if texts is None or not all(isinstance(e, str) for e in texts):
        raise InputError("boundary entries must be strings")
    texts.pop("0", None)
    parse = GroupRingElement.from_string
    memo = ({}, {})  # this document's parsed terms and factors
    elements = {text: parse(text, ring, rank, memo) for text in texts}

    def fill(band, i, row):
        for column, text in zip(band, row):
            if text != "0":
                column[i] = elements[text]

    cells, columns = _columns(cells, raw, fill)
    X = EquivariantComplex.from_columns(ring, rank, cells, columns)
    if not any(X.cells):
        raise InputError("a complex document needs at least one cell")
    return X


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
    q_plain = quotient_map(P.vertices)
    q_scaled = quotient_map(P.scale(r).vertices)
    if q_plain.kernel != q_scaled.kernel:
        return False
    left = X.specialize(q_plain).canonical_bytes()
    right = X.specialize(q_scaled).canonical_bytes()
    return left == right
