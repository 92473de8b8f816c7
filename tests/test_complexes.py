"""Complex construction, Fox boundaries, ingest, and ray invariance.

The derivative walker in fox_boundary is checked two ways: against frozen
matrices derived by hand for the standard torus and Klein bottle
presentations, and against an independent recursive implementation of the
product rule d(uv) = du + u*dv (divide and conquer on the word, a different
algorithm from the linear prefix walk in the library). The recursive oracle
itself is validated by the fundamental identity
sum_g (t^q(g) - 1) * d(w)/dg == t^q(ab w) - 1 on random open words.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from polynov.complexes import (
    EquivariantComplex,
    GroupPresentation,
    fox_boundary,
    ingest,
    scale_check,
)
from polynov.errors import CoverMismatch, InputError, ValidationError
from polynov.groupring import CoefficientRing, GroupRingElement, chain_ranks
from polynov.homology import ordinary_betti
from polynov.lattice import MAX_DECK_RANK, CohomologyClass, Polytope, quotient_map

Q = CoefficientRing.RAT


def elem(text, rank, ring=Q):
    return GroupRingElement.from_string(text, ring, rank)


def mono(exp, rank):
    return GroupRingElement.monomial(Q, rank, tuple(exp))


def strings(matrix):
    return [[e.to_string() for e in row] for row in matrix]


# -- independent Fox oracle --------------------------------------------------


def word_abelianization(word, images, rank):
    total = [0] * rank
    for g, sign in word:
        for i in range(rank):
            total[i] += sign * images[g][i]
    return tuple(total)


def fox_rec(word, g, images, rank):
    """Fox derivative by recursion on a word split at the midpoint."""
    if not word:
        return GroupRingElement.zero(Q, rank)
    if len(word) == 1:
        h, sign = word[0]
        if h != g:
            return GroupRingElement.zero(Q, rank)
        if sign > 0:
            return GroupRingElement.one(Q, rank)
        return -mono([-c for c in images[h]], rank)
    mid = len(word) // 2
    u, v = word[:mid], word[mid:]
    shift = mono(word_abelianization(u, images, rank), rank)
    return fox_rec(u, g, images, rank) + shift * fox_rec(v, g, images, rank)


def random_word(rng, ngens, length):
    return tuple(
        (rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length)
    )


def test_fox_oracle_fundamental_identity():
    # validates the oracle itself on open words, where the right side is
    # t^q(ab w) - 1 rather than zero
    rng = random.Random(7)
    rank, ngens = 2, 3
    for _ in range(60):
        images = [
            tuple(rng.randrange(-2, 3) for _ in range(rank))
            for _ in range(ngens)
        ]
        word = random_word(rng, ngens, rng.randrange(0, 9))
        lhs = GroupRingElement.zero(Q, rank)
        for g in range(ngens):
            edge = mono(images[g], rank) - GroupRingElement.one(Q, rank)
            lhs = lhs + edge * fox_rec(word, g, images, rank)
        rhs = mono(word_abelianization(word, images, rank), rank)
        rhs = rhs - GroupRingElement.one(Q, rank)
        assert lhs == rhs


def test_fox_boundary_matches_recursive_oracle():
    rng = random.Random(11)
    names = ["x", "y", "z"]
    for _ in range(40):
        rank = rng.choice((1, 2, 3))
        images = [
            tuple(rng.randrange(-2, 3) for _ in range(rank)) for _ in names
        ]
        # commutator words abelianize to zero for any deck map
        u = random_word(rng, len(names), rng.randrange(1, 5))
        v = random_word(rng, len(names), rng.randrange(1, 5))
        inv = lambda w: tuple((g, -s) for g, s in reversed(w))
        relator = [
            [names[g], s] for g, s in u + v + inv(u) + inv(v)
        ]
        pres = GroupPresentation(names, [relator])
        if not pres.relators[0]:
            continue  # everything cancelled
        deck = [[images[j][i] for j in range(len(names))] for i in range(rank)]
        X = fox_boundary(pres, deck)
        for g in range(len(names)):
            expected = fox_rec(pres.relators[0], g, images, rank)
            assert X.boundaries[1][g][0] == expected


# -- frozen presentations ----------------------------------------------------


def test_fox_torus_frozen():
    X = fox_boundary(GroupPresentation(["x", "y"], ["xyXY"]), [[1, 0], [0, 1]])
    assert X.cell_counts() == (1, 2, 1)
    assert X.deck.rank == 2
    assert strings(X.boundaries[0]) == [["t1 - 1", "t2 - 1"]]
    assert strings(X.boundaries[1]) == [["-t2 + 1"], ["t1 - 1"]]


def test_fox_klein_bottle_frozen():
    # x y x y^-1 with the orientation cover: q(x) = 0, q(y) = 1
    X = fox_boundary(GroupPresentation(["x", "y"], ["xyxY"]), [[0, 1]])
    assert X.deck.rank == 1
    assert strings(X.boundaries[0]) == [["0", "t - 1"]]
    assert strings(X.boundaries[1]) == [["t + 1"], ["0"]]


def test_fox_genus2_frozen():
    pres = GroupPresentation(["a", "b", "c", "d"], ["abABcdCD"])
    X = fox_boundary(pres, [[int(i == j) for j in range(4)] for i in range(4)])
    assert X.cell_counts() == (1, 4, 1)
    assert strings(X.boundaries[1]) == [
        ["-t2 + 1"],
        ["t1 - 1"],
        ["-t4 + 1"],
        ["t3 - 1"],
    ]


def test_fox_free_group_has_no_discs():
    X = fox_boundary(GroupPresentation(["x"], []), [[1]])
    assert X.cell_counts() == (1, 1)
    assert strings(X.boundaries[0]) == [["t - 1"]]


def test_cover_mismatch_rejected():
    with pytest.raises(CoverMismatch):
        fox_boundary(GroupPresentation(["x"], ["x"]), [[1]])
    with pytest.raises(CoverMismatch):
        fox_boundary(GroupPresentation(["x", "y"], ["xyX"]), [[0, 1]])


# -- word parsing ------------------------------------------------------------


def test_relator_input_forms_agree():
    forms = [
        "xyXY",
        "x y x^-1 y^-1",
        "x*y*x^-1*y^-1",
        ["x", "y", "x^-1", "y^-1"],
        [["x", 1], ["y", 1], ["x", -1], ["y", -1]],
    ]
    parsed = {GroupPresentation(["x", "y"], [w]).relators for w in forms}
    assert len(parsed) == 1
    assert parsed.pop() == (((0, 1), (1, 1), (0, -1), (1, -1)),)


def test_free_reduction():
    pres = GroupPresentation(["x", "y"], ["xX", ["x", "x^-1", "y"], "x y Y X y"])
    assert pres.relators == ((), ((1, 1),), ((1, 1),))


def test_exponent_tokens_expand():
    pres = GroupPresentation(["x"], ["x^3", "x^-2"])
    assert pres.relators == (((0, 1),) * 3, ((0, -1),) * 2)


def test_bad_words_rejected():
    with pytest.raises(InputError):
        GroupPresentation(["x"], ["w"])
    with pytest.raises(InputError):
        GroupPresentation(["x"], ["x^two"])
    with pytest.raises(InputError):
        GroupPresentation(["x", "x"], [])
    with pytest.raises(InputError):
        GroupPresentation([], [])


# -- construction and validation --------------------------------------------


def test_square_zero_violation_located():
    # torus matrices with one sign flipped in the disc boundary
    d1 = [[elem("t1 - 1", 2), elem("t2 - 1", 2)]]
    d2 = [[elem("t2 - 1", 2)], [elem("t1 - 1", 2)]]
    with pytest.raises(ValidationError) as info:
        EquivariantComplex(Q, 2, [["v"], ["e1", "e2"], ["f"]], [d1, d2])
    err = info.value
    assert (err.degree, err.row, err.col) == (2, 0, 0)
    assert err.location() == {"degree": 2, "row": 0, "col": 0}


def test_validate_skippable_then_explicit():
    d1 = [[elem("2", 1)]]
    d2 = [[elem("3", 1)]]
    X = EquivariantComplex(
        Q, 1, [["v"], ["e"], ["f"]], [d1, d2], validate=False
    )
    with pytest.raises(ValidationError):
        X.validate()


def test_non_integral_violation_over_q():
    # the square's entry is 1/2*t1: a true fraction next to integral
    # coefficients; message, degree, row and col as recorded before Q
    # coefficients were stored as ints where integral
    doc = {
        "coefficients": "Q",
        "rank": 2,
        "cells": [["v"], ["e1", "e2"], ["f1", "f2"]],
        "boundaries": [
            [["1/2", "t2 - 1"]],
            [["t2 - 1", "t1"], ["-1/2", "0"]],
        ],
    }
    with pytest.raises(ValidationError) as info:
        ingest(doc)
    err = info.value
    assert str(err) == (
        "boundary square is nonzero from degree 2: entry (0, 1) is 1/2*t1"
    )
    assert (err.degree, err.row, err.col) == (2, 0, 1)


# -- square-zero check against a dense reference -----------------------------


def dense_violation(X):
    """Reference for validate(): form every entry of every product
    d_k d_{k+1} as a full dot product and return (degree, row, col, message)
    of the first nonzero one in row-major order, or None. Zero summands are
    skipped, which changes no sum."""
    zero = GroupRingElement.zero(X.ring, X.deck.rank)
    for k in range(len(X.boundaries) - 1):
        A, B = X.boundaries[k], X.boundaries[k + 1]
        for i, row in enumerate(A):
            for j in range(len(X.cells[k + 2])):
                entry = zero
                for l, a in enumerate(row):
                    if not a.is_zero():
                        entry = entry + a * B[l][j]
                if not entry.is_zero():
                    message = (
                        f"boundary square is nonzero from degree {k + 2}: "
                        f"entry ({i}, {j}) is {entry.to_string()}"
                    )
                    return (k + 2, i, j, message)
    return None


def validate_outcome(X):
    try:
        X.validate()
    except ValidationError as err:
        return (err.degree, err.row, err.col, str(err))
    return None


def test_square_zero_first_violation_in_row_major_order():
    # d1 d2 = 0 holds; d2 d3 = d3 is nonzero at (0, 2), (1, 0) and (1, 2)
    d1 = [[elem("0", 1), elem("0", 1)]]
    d2 = [[elem("1", 1), elem("0", 1)], [elem("0", 1), elem("1", 1)]]
    d3 = [
        [elem("0", 1), elem("0", 1), elem("t", 1)],
        [elem("1", 1), elem("0", 1), elem("1 - t", 1)],
    ]
    X = EquivariantComplex(
        Q, 1, [["v"], ["e0", "e1"], ["f0", "f1"], ["g0", "g1", "g2"]],
        [d1, d2, d3], validate=False,
    )
    expected = (3, 0, 2, "boundary square is nonzero from degree 3: entry (0, 2) is t")
    assert dense_violation(X) == expected
    assert validate_outcome(X) == expected


def test_mod2_contributions_cancel():
    Z2 = CoefficientRing.MOD2
    # each product entry gets two equal contributions, which cancel mod 2
    d1 = [[elem("t", 1, Z2), elem("1", 1, Z2)]]
    d2 = [[elem("1", 1, Z2), elem("t + 1", 1, Z2)], [elem("t", 1, Z2), elem("t^2 + t", 1, Z2)]]
    X = EquivariantComplex(Z2, 1, [["v"], ["e0", "e1"], ["f0", "f1"]], [d1, d2])
    assert X.validate()
    assert dense_violation(X) is None
    # over Q the same entries do not cancel
    with pytest.raises(ValidationError):
        EquivariantComplex(
            Q, 1, [["v"], ["e0", "e1"], ["f0", "f1"]],
            [[[elem(str(e), 1) for e in row] for row in m] for m in (d1, d2)],
        )


def random_poly(rng, ring, rank, span=1):
    terms = {
        tuple(rng.randint(-span, span) for _ in range(rank)): rng.choice((1, -1, 2))
        for _ in range(rng.randint(1, 2))
    }
    return GroupRingElement(ring, rank, terms)


def random_square_zero(rng, ring, rank, span=1):
    """Koszul complex on three random elements (square-zero for any choice),
    then random elementary basis changes in the middle degrees: column b of
    d_k gains g * column a, and row a of d_{k+1} loses g * row b."""
    fs = [random_poly(rng, ring, rank, span) for _ in range(3)]
    subsets = [list(itertools.combinations(range(3), k)) for k in range(4)]
    zero = GroupRingElement.zero(ring, rank)
    mats = []
    for k in range(1, 4):
        rows = [[zero] * len(subsets[k]) for _ in subsets[k - 1]]
        for c, cell in enumerate(subsets[k]):
            for pos, i in enumerate(cell):
                face = cell[:pos] + cell[pos + 1:]
                r = subsets[k - 1].index(face)
                rows[r][c] = fs[i] if pos % 2 == 0 else -fs[i]
        mats.append(rows)
    for _ in range(6):
        k = rng.randint(1, 2)
        a, b = rng.sample(range(3), 2)
        g = random_poly(rng, ring, rank, span)
        for row in mats[k - 1]:
            row[b] = row[b] + g * row[a]
        mats[k][a] = [x - g * y for x, y in zip(mats[k][a], mats[k][b])]
    names = [[f"c{k}_{j}" for j in range(len(subsets[k]))] for k in range(4)]
    return names, mats


@pytest.mark.parametrize("ring", list(CoefficientRing))
def test_validate_matches_dense_reference_on_random_complexes(ring):
    rng = random.Random(2024)
    violations = 0
    for _ in range(15):
        rank = rng.randint(0, 2)
        names, mats = random_square_zero(rng, ring, rank)
        assert EquivariantComplex(ring, rank, names, mats).validate()
        k = rng.randrange(3)
        i = rng.randrange(len(mats[k]))
        j = rng.randrange(len(mats[k][i]))
        bump = GroupRingElement.monomial(
            ring, rank, tuple(rng.randint(-1, 1) for _ in range(rank))
        )
        mats[k][i][j] = mats[k][i][j] + bump
        X = EquivariantComplex(ring, rank, names, mats, validate=False)
        expected = dense_violation(X)
        assert validate_outcome(X) == expected
        violations += expected is not None
    assert violations >= 10


@pytest.mark.parametrize("ring", list(CoefficientRing))
def test_validate_matches_dense_reference_at_deck_ranks_3_and_4(ring):
    # exponents from -3 to 3, and a bump of two monomials at opposite corners
    # of the exponent box, so that the packed sums reach both ends of every
    # digit of the radix box
    rng = random.Random(2025)
    violations = 0
    for _ in range(12):
        rank = rng.randint(3, 4)
        names, mats = random_square_zero(rng, ring, rank, span=3)
        assert EquivariantComplex(ring, rank, names, mats).validate()
        k = rng.randrange(3)
        i = rng.randrange(len(mats[k]))
        j = rng.randrange(len(mats[k][i]))
        corner = tuple(rng.choice((-3, 3)) for _ in range(rank))
        opposite = tuple(-e for e in corner)
        bump = GroupRingElement(ring, rank, {corner: 1, opposite: rng.choice((1, -1))})
        mats[k][i][j] = mats[k][i][j] + bump
        X = EquivariantComplex(ring, rank, names, mats, validate=False)
        expected = dense_violation(X)
        assert validate_outcome(X) == expected
        violations += expected is not None
    assert violations >= 8


@pytest.mark.parametrize("ring", [Q, CoefficientRing.MOD2])
def test_violation_at_opposite_corners_of_the_box(ring):
    # d1 d2 = t1 - t2^3: spans (1, 3) give radices (2, 4), where t1 and t2^3
    # are the digits (1, 0) and (0, 3); one radix less would pack both to 3
    # and let them cancel (over Z/2 as well, where the sum is t1 + t2^3)
    X = EquivariantComplex(
        ring, 2, [["v"], ["e"], ["f"]],
        [[[elem("1", 2, ring)]], [[elem("t1 - t2^3", 2, ring)]]], validate=False,
    )
    text = "t1 - t2^3" if ring is Q else "t1 + t2^3"
    expected = (2, 0, 0, f"boundary square is nonzero from degree 2: entry (0, 0) is {text}")
    assert dense_violation(X) == expected
    assert validate_outcome(X) == expected


def cubical_torus(n, m, ring):
    """The n-torus cut into m^n cubes over ring[Z^n]: the tensor product of
    n circles, each cut into m edges, where edge j of circle p runs from
    vertex j to vertex j + 1 and the last edge ends at t_p * v0. Cells of
    degree k number binomial(n, k) * m^n; ordinary Betti numbers are
    binomial(n, k)."""
    circle = [(0, j) for j in range(m)] + [(1, j) for j in range(m)]
    cells = [[] for _ in range(n + 1)]
    for cell in itertools.product(circle, repeat=n):
        cells[sum(d for d, _ in cell)].append(cell)
    index = [{cell: r for r, cell in enumerate(degree)} for degree in cells]
    zero = GroupRingElement.zero(ring, n)
    boundaries = []
    for k in range(1, n + 1):
        rows = [[zero] * len(cells[k]) for _ in cells[k - 1]]
        for c, cell in enumerate(cells[k]):
            sign = 1
            for p, (d, j) in enumerate(cell):
                if d == 0:
                    continue
                wrap = [0] * n
                wrap[p] = int(j == m - 1)
                for vertex, exp, coeff in ((j, (0,) * n, -sign), ((j + 1) % m, wrap, sign)):
                    r = index[k - 1][cell[:p] + ((0, vertex),) + cell[p + 1:]]
                    rows[r][c] = rows[r][c] + GroupRingElement.monomial(ring, n, exp, coeff)
                sign = -sign
        boundaries.append(rows)
    names = [["x".join(f"{'ve'[d]}{j}" for d, j in cell) for cell in degree] for degree in cells]
    return names, boundaries


def test_cubical_t3_4_validates_and_locates_a_flipped_sign():
    trivial = quotient_map([CohomologyClass((0, 0, 0))])
    for ring in (Q, CoefficientRing.MOD2):
        names, mats = cubical_torus(3, 4, ring)
        X = EquivariantComplex(ring, 3, names, mats)
        assert X.cell_counts() == (64, 192, 192, 64)
        assert X.validate()
        # constant boundaries: sparse Bareiss on ints over Q, bitmasks over
        # Z/2; the ordinary ranks are (63, 126, 63) by construction
        assert chain_ranks(X.specialize(trivial)) == [
            (63, True, "constant"), (126, True, "constant"), (63, True, "constant"),
        ]
        report = ordinary_betti(X)
        assert report.betti == (1, 3, 3, 1)
        assert report.checks["rank_exact"] is True
    names, mats = cubical_torus(3, 4, Q)
    rng = random.Random(5)
    for k in (0, 1, 2):
        flipped = [[list(row) for row in m] for m in mats]
        nonzero = [
            (i, j) for i, row in enumerate(flipped[k]) for j, e in enumerate(row)
            if not e.is_zero()
        ]
        i, j = rng.choice(nonzero)
        flipped[k][i][j] = -flipped[k][i][j]
        X = EquivariantComplex(Q, 3, names, flipped, validate=False)
        expected = dense_violation(X)
        assert expected is not None
        assert validate_outcome(X) == expected


def test_shape_errors():
    with pytest.raises(InputError):
        EquivariantComplex(Q, 1, [["v"], ["e"]], [])
    with pytest.raises(InputError):
        EquivariantComplex(Q, 1, [["v", "v"]], [])
    with pytest.raises(InputError):
        EquivariantComplex(Q, 1, [["v"], ["e"]], [[[elem("0", 1), elem("0", 1)]]])
    with pytest.raises(InputError):
        EquivariantComplex(Q, 1, [["v"], ["e"]], [[[elem("0", 2)]]])
    # the empty complex is fine internally (reductions can produce it)
    # but a document with no cells at all is rejected
    assert EquivariantComplex(Q, 1, [[]], []).cell_counts() == (0,)
    with pytest.raises(InputError):
        ingest({"coefficients": "Q", "rank": 1, "cells": [[]], "boundaries": []})


def test_empty_middle_degree_allowed():
    X = EquivariantComplex(Q, 1, [["v"], [], ["f"]], [[[]], []])
    assert X.cell_counts() == (1, 0, 1)
    assert X.validate()


# -- ingest ------------------------------------------------------------------


def torus_doc():
    return {
        "coefficients": "Q",
        "rank": 2,
        "cells": [["v"], ["e1", "e2"], ["f"]],
        "boundaries": [
            [["t1 - 1", "t2 - 1"]],
            [["1 - t2"], ["t1 - 1"]],
        ],
    }


def test_ingest_explicit_roundtrip():
    X = ingest(torus_doc())
    assert X.cell_counts() == (1, 2, 1)
    again = ingest(json.dumps(X.to_json()))
    assert again == X
    assert again.canonical_bytes() == X.canonical_bytes()


def test_ingest_presentation_mode():
    doc = {
        "generators": ["x", "y"],
        "relators": ["xyXY"],
        "deck_map": [[1, 0], [0, 1]],
    }
    X = ingest(doc)
    assert X == fox_boundary(GroupPresentation(["x", "y"], ["xyXY"]), [[1, 0], [0, 1]])


def test_ingest_mod2():
    doc = {
        "coefficients": "Z2",
        "rank": 1,
        "cells": [["v", "w"], ["e"]],
        "boundaries": [[["t + 1"], ["0"]]],
    }
    X = ingest(doc)
    assert X.ring is CoefficientRing.MOD2


def test_ingest_rejects_bad_documents():
    with pytest.raises(InputError):
        ingest("not json {")
    with pytest.raises(InputError):
        ingest([1, 2, 3])
    doc = torus_doc()
    del doc["rank"]
    with pytest.raises(InputError):
        ingest(doc)
    doc = torus_doc()
    doc["coefficients"] = "GF(7)"
    with pytest.raises(InputError):
        ingest(doc)
    doc = {"generators": ["x"], "relators": []}
    with pytest.raises(InputError):
        ingest(doc)


@pytest.mark.parametrize("text", [str, str.encode])
def test_ingest_integer_literal_of_more_than_4300_digits(text):
    # json.loads raises a plain ValueError for the literal; the InputError
    # does not echo it
    literal = "1" * 5000
    document = text(
        '{"coefficients": "Q", "rank": ' + literal + ', "cells": [["v"]], "boundaries": []}'
    )
    with pytest.raises(InputError) as info:
        ingest(document)
    assert str(info.value) == "not valid JSON: an integer literal has more than 4300 digits"
    assert literal not in str(info.value)


def test_ingest_square_zero_failure_is_validation_error():
    doc = torus_doc()
    doc["boundaries"][1] = [["t2 - 1"], ["t1 - 1"]]
    with pytest.raises(ValidationError):
        ingest(doc)


def test_ingest_rejects_ranks_above_the_limit():
    assert MAX_DECK_RANK >= 5  # every bundled and benchmark rank
    doc = {"coefficients": "Q", "rank": MAX_DECK_RANK, "cells": [["v"]], "boundaries": []}
    assert ingest(doc).deck.rank == MAX_DECK_RANK
    for rank in (MAX_DECK_RANK + 1, 10000):
        with pytest.raises(InputError, match="above the limit"):
            ingest({**doc, "rank": rank})
    rows = [[0] for _ in range(MAX_DECK_RANK + 1)]
    with pytest.raises(InputError, match="above the limit"):
        ingest({"generators": ["x"], "relators": [], "deck_map": rows})
    assert ingest({"generators": ["x"], "deck_map": rows[1:]}).deck.rank == MAX_DECK_RANK


# -- the sparse store --------------------------------------------------------


def assert_sparse_store(X):
    """Stored entries are nonzero, rows ascend in every column, and the
    dense view rebuilds the same complex."""
    assert EquivariantComplex(X.ring, X.deck.rank, X.cells, X.boundaries) == X
    for k, band in enumerate(X.columns):
        assert len(band) == len(X.cells[k + 1])
        for column in band:
            assert all(not e.is_zero() for e in column.values())
            assert list(column) == sorted(column)
            assert all(0 <= i < len(X.cells[k]) for i in column)


def test_ingest_stores_only_the_nonzero_entries(monkeypatch):
    names, mats = cubical_torus(2, 6, Q)
    document = EquivariantComplex(Q, 2, names, mats).to_json()
    entries = [e for m in document["boundaries"] for row in m for e in row]
    nonzero = [e for e in entries if e != "0"]
    assert (len(entries), len(nonzero)) == (5184, 288)
    parsed, memos = [], []
    parse = GroupRingElement.from_string

    def spy(text, ring, rank, memo=None):
        parsed.append(text)
        memos.append(memo)
        return parse(text, ring, rank, memo)

    monkeypatch.setattr(GroupRingElement, "from_string", spy)
    X = ingest(document)
    # one parse per distinct string, in first-occurrence order; none for "0"
    assert parsed == list(dict.fromkeys(nonzero))
    # every parse of one document shares one memo, and the next gets its own
    assert memos[0] is not None and all(m is memos[0] for m in memos)
    stored = [e for band in X.columns for column in band for e in column.values()]
    assert len(stored) == 288
    # equal strings share one element
    assert len({id(e) for e in stored}) == len(parsed)
    assert X.to_json() == document
    assert_sparse_store(X)
    ingest(document)
    assert memos[-1] is not memos[0]


@pytest.mark.parametrize(
    "changes, message",
    [
        # a non-string entry beats a shape error
        ({"boundaries": [[["t1 - 1", 7]]]}, "boundary entries must be strings"),
        ({"boundaries": [[["t1 - 1", ["t2"]]], [["1 - t2"]]]},
         "boundary entries must be strings"),
        # of two bad strings, the first in row-major order is reported,
        # wherever its repeats or the other string's repeats fall
        ({"boundaries": [[["t1 - 1", "t9"]], [["t1 +"], ["t9"]]]},
         "variable t9 out of range for rank 2"),
        ({"boundaries": [[["t1 +", "t9"]], [["t9"], ["t1 +"]]]},
         "dangling sign in 't1 +'"),
        # a parse error beats duplicate cell names and a wrong matrix count
        ({"cells": [["v"], ["e", "e"]], "boundaries": [[["1/0", "t2 - 1"]], []]},
         "bad factor '1/0' in '1/0'"),
        # then names, matrix count, row count and row length, in that order
        ({"cells": [["v"], ["e", "e"]], "boundaries": [[["t1 - 1"]], []]},
         "duplicate cell names in degree 1"),
        ({"cells": [["v"], ["e1", "e2"]], "boundaries": [[["t1 - 1"], []], []]},
         "2 degrees need 1 boundary matrices, got 2"),
        ({"boundaries": [[["t1 - 1", "t2 - 1"], ["0"]], [["1 - t2"]]]},
         "boundary into degree 0: 2 rows for 1 cells"),
        ({"boundaries": [[["t1 - 1"]], [["1 - t2"]]]},
         "boundary from degree 1: row of length 1 for 2 cells"),
    ],
)
def test_ingest_error_precedence(changes, message):
    with pytest.raises(InputError) as info:
        ingest({**torus_doc(), **changes})
    assert str(info.value) == message


def one_row_doc(entries, ring="Q", rank=2):
    """A one-boundary document whose only row holds ``entries``."""
    return {
        "coefficients": ring,
        "rank": rank,
        "cells": [["v"], [f"e{j}" for j in range(len(entries))]],
        "boundaries": [[list(entries)]],
    }


def test_a_bad_term_in_two_entries_is_named_by_the_first():
    # the document's parse memo keeps only terms that parse, so the error
    # names the first entry in row-major order that holds the bad term
    for first, second in (("t2 + t1*x", "1 + t1*x"), ("1 + t1*x", "t2 + t1*x")):
        document = {
            **torus_doc(),
            "boundaries": [[[first, "t2 - 1"]], [[second], ["t1 - 1"]]],
        }
        with pytest.raises(InputError) as info:
            ingest(document)
        assert str(info.value) == f"bad factor 'x' in {first!r}"


def test_the_parse_memo_does_not_outlive_its_document():
    assert ingest(one_row_doc(["t3 - 1"], rank=3)).deck.rank == 3
    with pytest.raises(InputError, match="variable t3 out of range for rank 2"):
        ingest(one_row_doc(["t3 - 1"], rank=2))
    assert ingest(one_row_doc(["1/2*t1"])).columns[0][0][0].terms == {
        (1, 0): Fraction(1, 2)
    }
    with pytest.raises(InputError, match="1/2 is not an integer coefficient"):
        ingest(one_row_doc(["1/2*t1"], ring="Z"))


def test_like_terms_from_the_memo_still_meet_the_coefficient_bound():
    # "+1e4300*t1" is parsed in the first entry; in the second its two
    # repeats come from the memo and sum to more than 10^4300
    big = "1e4300"
    first, second = f"1 + {big}*t1", f"-1 + {big}*t1 + {big}*t1"
    for ring in ("Q", "Z"):
        assert ingest(one_row_doc([first], ring)).columns[0][0][0].terms == {
            (0, 0): 1, (1, 0): 10**4300
        }
        with pytest.raises(InputError) as info:
            ingest(one_row_doc([first, second], ring))
        assert str(info.value) == f"a coefficient of {second!r} is above 10^4300"


def test_a_term_that_is_zero_mod_2_is_dropped_at_every_repeat():
    entries = ["2*t1 + t2", "t2 + 2*t1 + 1", "2*t1 + 2*t1 + t1", "2*t1", "t2 + 2*t1"]
    X = ingest(one_row_doc(entries, ring="Z2"))
    assert X.to_json()["boundaries"] == [[["t2", "t2 + 1", "t1", "0", "t2"]]]
    assert [{i: e.terms for i, e in column.items()} for column in X.columns[0]] == [
        {0: {(0, 1): 1}},
        {0: {(0, 1): 1, (0, 0): 1}},
        {0: {(1, 0): 1}},
        {},
        {0: {(0, 1): 1}},
    ]


def test_every_layer_keeps_the_sparse_store():
    from polynov import corpus
    from polynov.morse import morse_reduce
    from polynov.twist import tensor_base_change, twisted_complex

    complexes = [corpus.load(name) for name in corpus.names()]
    complexes += [
        fox_boundary(GroupPresentation(["a", "b"], ["abAB", "aabb"]), [[1, -1]]),
        ingest(torus_doc()),
    ]
    for n, m, ring in ((2, 3, Q), (2, 4, CoefficientRing.MOD2), (3, 2, Q)):
        complexes.append(EquivariantComplex(ring, n, *cubical_torus(n, m, ring)))
    checked = 0
    for X in complexes:
        assert_sparse_store(X)
        for seed in range(4):
            assert_sparse_store(morse_reduce(X, seed=seed)[0])
        rank = X.deck.rank
        if rank == 0:
            continue
        a = CohomologyClass(tuple(range(1, rank + 1)))
        assert_sparse_store(X.specialize(quotient_map([a])))
        P = Polytope([a, CohomologyClass((1,) + (0,) * (rank - 1))])
        for route in (twisted_complex, tensor_base_change):
            assert_sparse_store(route(X, P).base)
        checked += 1
    assert checked >= 8


# The dense view serves serialization and the truncated-series oracle, the
# independent cross-check whose row-major pivot order fixes its orders;
# every other layer, the rank engine included, reads the stored columns.
DENSE_CONSUMERS = {
    ("complexes", "to_json"),
    ("homology", "truncated_homology_oracle"),
}


def test_only_the_dense_consumers_read_the_dense_view():
    import ast
    from pathlib import Path

    import polynov

    readers = set()

    class Finder(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if node.attr == "boundaries":
                readers.add((self.module, self.scope[0] if self.scope else None))
            self.generic_visit(node)

    sources = sorted(Path(polynov.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        Finder(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert ("complexes", "to_json") in readers  # the scan sees the view
    assert readers - DENSE_CONSUMERS == set()


def test_betti_numbers_and_self_tests_never_build_the_dense_view(monkeypatch):
    from polynov import corpus
    from polynov.homology import main_theorem_check, novikov_betti, polytope_betti
    from polynov.twist import twisted_complex

    complexes = [corpus.load(name) for name in corpus.names()]
    complexes.append(EquivariantComplex(Q, 3, *cubical_torus(3, 2, Q)))

    def refuse(self):
        raise AssertionError("the dense boundary view was built")

    monkeypatch.setattr(EquivariantComplex, "boundaries", property(refuse))
    checked = 0
    for X in complexes:
        assert ordinary_betti(X).checks["rank_exact"] is True
        rank = X.deck.rank
        if rank == 0:
            continue
        a = CohomologyClass(tuple(range(1, rank + 1)))
        novikov_betti(X, a)
        P = Polytope([a, CohomologyClass((1,) + (0,) * (rank - 1))])
        polytope_betti(X, P)
        weights = ["1"] + ["0"] * (len(P.vertices) - 1)
        assert main_theorem_check(X, P, weights, weights)["ok"]
        base = twisted_complex(X, P).base
        relifted = conjugated(base, random.Random(rank))
        assert relifted.validate()
        assert chain_ranks(relifted) == chain_ranks(base)
        checked += 1
    assert checked >= 5


# -- specialization and ray invariance ---------------------------------------


def test_specialize_along_equal_maps_gives_equal_complexes():
    # two pushforwards along one quotient are built apart and compare equal
    X = ingest(torus_doc())
    diagonal = X.specialize(quotient_map([CohomologyClass((1, 1))]))
    first = X.specialize(quotient_map([CohomologyClass((1, 0))]))
    assert first != diagonal
    again = X.specialize(quotient_map([CohomologyClass((2, 2))]))
    assert again is not diagonal and again == diagonal


def conjugated(X, rng):
    """X with the lift of every cell re-picked: boundary k conjugated by
    random diagonal units +-t^e, entry (i, j) becoming
    u_(k,i)^-1 * d_ij * u_(k+1,j). Not validated; it must square to zero
    and have the ranks of X."""
    ring, rank = X.ring, X.deck.rank

    def unit():
        exp = tuple(rng.randrange(-2, 3) for _ in range(rank))
        u = GroupRingElement.monomial(ring, rank, exp)
        return -u if ring is not CoefficientRing.MOD2 and rng.random() < 0.5 else u

    units = [[unit() for _ in names] for names in X.cells]
    columns = [
        [
            {i: units[k][i].monomial_inverse() * e * units[k + 1][j]
             for i, e in column.items()}
            for j, column in enumerate(band)
        ]
        for k, band in enumerate(X.columns)
    ]
    return EquivariantComplex.from_columns(ring, rank, X.cells, columns, validate=False)


def pushed_reference(e, q):
    """The image of e, monomial by monomial through LatticeMap.apply and
    GroupRingElement addition."""
    out = GroupRingElement.zero(e.ring, q.rank_out)
    for exp, c in e.terms.items():
        out = out + GroupRingElement.monomial(e.ring, q.rank_out, q.apply(exp), c)
    return out


def random_pushable(rng, ring, rank, q):
    """A complex (not validated) over Z^rank with entries from a shared
    pool: random Laurent polynomials, true fractions over Q, and
    differences t^x - t^(x + v) with v in the kernel of q, whose image is
    zero."""

    def coefficient():
        if ring is CoefficientRing.MOD2:
            return 1
        if ring is Q and rng.random() < 0.5:
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(2, 6))
        return rng.choice((-3, -1, 1, 2))

    def exponent():
        return tuple(rng.randint(-3, 3) for _ in range(rank))

    pool = []
    for _ in range(8):
        terms = {exponent(): coefficient() for _ in range(rng.randint(1, 5))}
        pool.append(GroupRingElement(ring, rank, terms))
    for v in q.kernel[:2]:
        x, c = exponent(), coefficient()
        pool.append(GroupRingElement(
            ring, rank, {x: c, tuple(a + b for a, b in zip(x, v)): -c}
        ))
    cells = [tuple(f"c{k}_{j}" for j in range(rng.randint(1, 4))) for k in range(3)]
    columns = [
        [
            {i: rng.choice(pool) for i in range(len(cells[k])) if rng.random() < 0.6}
            for _ in cells[k + 1]
        ]
        for k in range(2)
    ]
    return EquivariantComplex.from_columns(ring, rank, cells, columns, validate=False)


@pytest.mark.parametrize("ring", list(CoefficientRing))
def test_bulk_specialize_matches_the_entry_by_entry_push(ring):
    # quotients of rank 0 to 3 from Z^3 and Z^4; shared elements, negative
    # exponents and images that cancel
    rng = random.Random({Q: 11, CoefficientRing.INT: 13, CoefficientRing.MOD2: 17}[ring])
    seen, dropped = set(), 0
    for trial in range(40):
        rank = 3 + trial % 2
        k = trial % 4
        classes = [
            CohomologyClass(tuple(rng.randint(-3, 3) for _ in range(rank)))
            for _ in range(k)
        ] or [CohomologyClass((0,) * rank)]
        q = quotient_map(classes)
        seen.add(q.rank_out)
        X = random_pushable(rng, ring, rank, q)
        Y = X.specialize(q)
        assert Y.deck.rank == q.rank_out and Y.cells == X.cells and Y.ring is ring
        expected = tuple(
            tuple(
                {i: p for i, e in column.items() if (p := pushed_reference(e, q)).terms}
                for column in band
            )
            for band in X.columns
        )
        assert Y.columns == expected
        dropped += sum(
            len(a) - len(b)
            for x, y in zip(X.columns, Y.columns) for a, b in zip(x, y)
        )
        for band, reference in zip(Y.columns, X.columns):
            for column, original in zip(band, reference):
                for i, e in original.items():
                    image = pushed_reference(e, q)
                    assert column.get(i, GroupRingElement.zero(ring, q.rank_out)) == image
                for e in column.values():
                    assert e.terms and e.rank == q.rank_out and e.ring is ring
        # equal elements push to equal images, one object per distinct element
        images = {id(e): Y.columns[k][j][i]
                  for k, band in enumerate(X.columns)
                  for j, column in enumerate(band)
                  for i, e in column.items() if i in Y.columns[k][j]}
        for k, band in enumerate(X.columns):
            for j, column in enumerate(band):
                for i, e in column.items():
                    if i in Y.columns[k][j]:
                        assert Y.columns[k][j][i] is images[id(e)]
    assert seen == {0, 1, 2, 3} and dropped


def test_specialize_torus_to_diagonal():
    X = ingest(torus_doc())
    q = quotient_map([CohomologyClass((1, 1))])
    Y = X.specialize(q)
    assert Y.deck.rank == 1
    e1, e2 = Y.boundaries[0][0]
    assert e1 == e2 and not e1.is_zero()
    # augmentation (all t -> 1) of a specialized edge boundary stays zero
    aug = sum(c for _, c in e1.sorted_terms())
    assert aug == 0
    assert Y.validate()


def test_scale_check_torus():
    X = ingest(torus_doc())
    P = Polytope([(1, 0), (0, 1)])
    for r in ("1/2", 3, "7/5"):
        assert scale_check(X, P, r)


def test_scale_check_bad_factor():
    X = ingest(torus_doc())
    P = Polytope([(1, 0), (0, 1)])
    with pytest.raises(InputError):
        scale_check(X, P, 0)
    with pytest.raises(InputError):
        scale_check(X, P, "-2")
    with pytest.raises(InputError):
        scale_check(X, Polytope([(1,)]), 2)
