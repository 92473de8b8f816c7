"""Generated complexes whose homology is known by construction, run through
the library and checked against the answer each generator states.

The generators are those of the benchmark (perfbench/families.py), loaded
by path. Each instance is ranked as generated, and must come back proved
exact. A Morse reduction is not validated when it is built, since an
acyclic matching keeps d∘d = 0; here each reduction of a seeded instance
is validated, checked as a store, and ranked against `Instance.betti`.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from polynov.homology import novikov_betti, ordinary_betti
from polynov.lattice import CohomologyClass
from polynov.morse import morse_reduce
from test_complexes import assert_sparse_store


def _load_families():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


families = _load_families()


def _hidden_koszul(n, ring, rng):
    """Koszul T^n plus a +-monomial summand and a t_i - 1 summand per
    degree below the top, in a random basis of about 40 n terms."""
    summands = []
    for degree in range(n):
        summands.append(families.Summand(degree, None))
        summands.append(families.Summand(degree, rng.randrange(n)))
    return families.hidden(families.koszul(n, ring), summands, 40 * n, rng)


SHAPES = [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3,), (4,)]


@pytest.mark.parametrize("ring", ["Q", "Z2"])
@pytest.mark.parametrize("shape", SHAPES, ids=[
    f"cubical-{s[0]},{s[1]}" if len(s) == 2 else f"hidden-koszul-{s[0]}" for s in SHAPES
])
def test_morse_reductions_keep_the_known_homology(shape, ring):
    # relabelled cubical T^n,m for (n, m), hidden Koszul T^n for (n,)
    rng = random.Random(f"{shape}:{ring}")
    if len(shape) == 2:
        instance = families.relabel(families.cubical(*shape, ring), rng)
    else:
        instance = _hidden_koszul(*shape, ring, rng)
    n = instance.rank
    ordinary = instance.betti(set(range(n)))
    novikov = instance.betti(set())
    a = CohomologyClass(tuple(range(1, n + 1)))
    for report, betti in ((ordinary_betti(instance.complex), ordinary),
                          (novikov_betti(instance.complex, a), novikov)):
        assert report.betti == betti
        assert report.checks["rank_exact"] is True
    for seed in range(4):
        R, matching = morse_reduce(instance.complex, seed=seed)
        assert matching.pairs
        if len(shape) == 2:
            # on these tori the sweep and the greedy search leave the
            # minimum, binom(n, k) cells in degree k
            assert R.cell_counts() == ordinary
        assert R.validate()
        assert_sparse_store(R)
        assert ordinary_betti(R).betti == ordinary
        assert novikov_betti(R, a).betti == novikov
