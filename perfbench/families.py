"""Chain complexes whose Betti numbers are known by construction.

Built with the standard library and polynov's public constructors only.

* ``koszul(n)``: the Koszul complex of T^n. Cells are subsets of {1..n};
  the boundary drops one index i with incidence +-(t_i - 1).
* ``cubical(n, m)``: the cubical torus T^{n,m}, the tensor product of n
  circles each cut into m edges, with Koszul signs.
* ``hidden(base, ...)``: a base complex plus elementary summands
  R --u--> R, conjugated by random elementary basis changes whose
  off-diagonal entry is a +-monomial (unimodular over the group ring).

Over the fraction field of the deck quotient of a class or polytope, both
bases have Betti numbers binom(n, k) when every coordinate vanishes and 0
otherwise. A summand with u a +-monomial is acyclic; with u = t_i - 1 it
adds 1 in degrees k and k+1 exactly when coordinate i vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from polynov import CoefficientRing, EquivariantComplex, GroupRingElement

RINGS = {"Q": CoefficientRing.RAT, "Z2": CoefficientRing.MOD2}


@dataclass(frozen=True)
class Summand:
    """R --u--> R from degree ``degree + 1`` to ``degree``.

    ``coordinate`` is None when u is a +-monomial, else i for u = t_{i+1} - 1.
    """

    degree: int
    coordinate: int | None


@dataclass
class Instance:
    """A generated complex together with what its homology must be."""

    rank: int
    complex: EquivariantComplex
    summands: tuple = ()

    def betti(self, vanishing) -> tuple:
        """Betti numbers over a class or polytope vanishing exactly on the
        coordinates in ``vanishing`` (0-based)."""
        n = self.rank
        dim = len(self.complex.cells)
        out = [0] * dim
        if len(vanishing) == n:
            for k in range(min(dim, n + 1)):
                out[k] = comb(n, k)
        for s in self.summands:
            if s.coordinate is not None and s.coordinate in vanishing:
                out[s.degree] += 1
                out[s.degree + 1] += 1
        return tuple(out)


def _zero_matrix(ring, rank, rows, cols):
    zero = GroupRingElement.zero(ring, rank)
    return [[zero] * cols for _ in range(rows)]


def _t(ring, rank, i, power=1):
    exp = [0] * rank
    exp[i] = power
    return GroupRingElement.monomial(ring, rank, tuple(exp))


def koszul(n: int, coefficients: str = "Q") -> Instance:
    ring = RINGS[coefficients]
    one = GroupRingElement.one(ring, n)
    cells = [list(combinations(range(n), k)) for k in range(n + 1)]
    index = [{c: j for j, c in enumerate(deg)} for deg in cells]
    boundaries = []
    for k in range(1, n + 1):
        d = _zero_matrix(ring, n, len(cells[k - 1]), len(cells[k]))
        for j, subset in enumerate(cells[k]):
            for pos, i in enumerate(subset):
                face = subset[:pos] + subset[pos + 1:]
                e = _t(ring, n, i) - one
                d[index[k - 1][face]][j] = e if pos % 2 == 0 else -e
        boundaries.append(d)
    names = [["e" + "".join(str(i + 1) for i in c) for c in deg] for deg in cells]
    X = EquivariantComplex(ring, n, names, boundaries, validate=False)
    return Instance(n, X)


def cubical(n: int, m: int, coefficients: str = "Q") -> Instance:
    ring = RINGS[coefficients]
    one = GroupRingElement.one(ring, n)
    # a cell is a tuple of (is_edge, position) per circle factor
    factor = [(0, p) for p in range(m)] + [(1, p) for p in range(m)]
    cells = [[] for _ in range(n + 1)]
    for cell in product(factor, repeat=n):
        cells[sum(e for e, _ in cell)].append(cell)
    index = [{c: j for j, c in enumerate(deg)} for deg in cells]
    boundaries = []
    for k in range(1, n + 1):
        d = _zero_matrix(ring, n, len(cells[k - 1]), len(cells[k]))
        for j, cell in enumerate(cells[k]):
            edges_before = 0
            for i, (is_edge, p) in enumerate(cell):
                if not is_edge:
                    continue
                sign = -one if edges_before % 2 else one
                edges_before += 1
                head = (0, (p + 1) % m)
                head_coeff = _t(ring, n, i) if p == m - 1 else one
                for vertex, coeff in ((head, head_coeff), ((0, p), -one)):
                    face = cell[:i] + (vertex,) + cell[i + 1:]
                    r = index[k - 1][face]
                    d[r][j] = d[r][j] + sign * coeff
        boundaries.append(d)
    names = [
        [".".join(("e" if e else "v") + str(p) for e, p in c) for c in deg]
        for deg in cells
    ]
    X = EquivariantComplex(ring, n, names, boundaries, validate=False)
    return Instance(n, X)


def relabel(instance: Instance, rng) -> Instance:
    """The same complex in another basis: each cell's lift is moved by a
    random +-monomial u, so entry (i, j) of a boundary becomes
    u_i^-1 * d_ij * u_j. Homology is unchanged.

    Cells keep their order: shuffling them changes the pivot order of the
    fraction-free rank, which moved the cost of one job by up to 8x between
    seeds."""
    X = instance.complex
    ring, n = X.ring, X.deck.rank
    units = [[_random_unit(ring, n, rng) for _ in names] for names in X.cells]
    inverses = [[u.monomial_inverse() for u in row] for row in units]
    boundaries = [
        [
            [inverses[k][i] * e * units[k + 1][j] for j, e in enumerate(row)]
            for i, row in enumerate(m)
        ]
        for k, m in enumerate(X.boundaries)
    ]
    Y = EquivariantComplex(ring, n, X.cells, boundaries, validate=False)
    return Instance(instance.rank, Y, instance.summands)


def _random_unit(ring, rank, rng):
    exp = tuple(rng.choice((-1, 0, 0, 1)) for _ in range(rank))
    u = GroupRingElement.monomial(ring, rank, exp)
    return -u if rng.random() < 0.5 else u


def hidden(base: Instance, summands, terms: int, rng) -> Instance:
    """``base`` plus ``summands`` (a list of Summand), conjugated by random
    elementary basis changes drawn from ``rng`` until the boundary entries
    hold ``terms`` monomials in all (a budget, so that the cost of a draw
    depends little on the seed)."""
    X = base.complex
    ring, n = X.ring, X.deck.rank
    one = GroupRingElement.one(ring, n)
    cells = [list(names) for names in X.cells]
    mats = [[list(row) for row in m] for m in X.boundaries]
    for s_index, s in enumerate(summands):
        k = s.degree
        u = _random_unit(ring, n, rng) if s.coordinate is None else (
            _t(ring, n, s.coordinate) - one
        )
        zero = GroupRingElement.zero(ring, n)
        # new cell b in degree k (a row of mats[k], a column of mats[k-1])
        # and a in degree k + 1 (a column of mats[k], a row of mats[k+1])
        cells[k].append(f"s{s_index}b")
        cells[k + 1].append(f"s{s_index}a")
        if k >= 1:
            for row in mats[k - 1]:
                row.append(zero)
        mats[k].append([zero] * (len(cells[k + 1]) - 1))
        for row in mats[k]:
            row.append(zero)
        mats[k][-1][-1] = u
        if k + 1 < len(mats):
            mats[k + 1].append([zero] * len(cells[k + 2]))
    dim = len(cells) - 1
    total = sum(len(e.terms) for m in mats for row in m for e in row)
    for _ in range(50 * terms):
        if total >= terms:
            break
        k = rng.randrange(dim + 1)
        if len(cells[k]) < 2:
            continue
        i, j = rng.sample(range(len(cells[k])), 2)
        c = _random_unit(ring, n, rng)
        # P = I + c*E_ij on degree k: d_k <- d_k P and d_{k+1} <- P^-1 d_{k+1}
        if k >= 1:
            for row in mats[k - 1]:
                if not row[i].is_zero():
                    total -= len(row[j].terms)
                    row[j] = row[j] + c * row[i]
                    total += len(row[j].terms)
        if k < dim:
            src, dst = mats[k][j], mats[k][i]
            for col, e in enumerate(src):
                if not e.is_zero():
                    total -= len(dst[col].terms)
                    dst[col] = dst[col] - c * e
                    total += len(dst[col].terms)
    Y = EquivariantComplex(ring, n, cells, mats, validate=False)
    return Instance(n, Y, tuple(summands))
