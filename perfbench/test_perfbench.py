"""The benchmark's own checks: each generated family's smallest instance
against an independent sympy rank, and BENCHMARK.json against the code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import random
import signal
import sys
from math import prod

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from families import Summand, cubical, hidden, koszul, relabel  # noqa: E402


def sympy_betti(instance, vertices=(), field=None):
    """Betti numbers over the fraction field of the quotient ring of a
    polytope, computed by substituting t_i -> prod_j s_j^(v_j[i]); the
    image of that substitution has finite index in the quotient lattice, so
    the ranks agree. No vertices is the zero class (t_i -> 1)."""
    X = instance.complex
    syms = sympy.symbols(f"s0:{len(vertices)}") if vertices else ()
    images = [
        prod(s ** v[i] for s, v in zip(syms, vertices)) for i in range(X.deck.rank)
    ]
    if field is None:
        field = sympy.QQ.frac_field(*syms) if syms else sympy.QQ

    def convert(e):
        return sum(
            c * prod(images[i] ** k for i, k in enumerate(exp))
            for exp, c in e.terms.items()
        )

    ranks = []
    for m in X.boundaries:
        M = sympy.Matrix(len(m), len(m[0]), lambda i, j: convert(m[i][j]))
        ranks.append(DomainMatrix.from_Matrix(M).convert_to(field).rank())
    counts = X.cell_counts()
    return tuple(
        counts[k] - (ranks[k - 1] if k else 0) - (ranks[k] if k < len(ranks) else 0)
        for k in range(len(counts))
    )


def vanishing(vertices, n):
    return {i for i in range(n) if all(v[i] == 0 for v in vertices)}


@pytest.mark.parametrize("vertices", [(), ((1, -1, 0),), ((0, 1, 1), (0, 1, -1))])
def test_koszul_t3(vertices):
    inst = koszul(3)
    inst.complex.validate()
    expected = inst.betti(vanishing(vertices, 3) if vertices else {0, 1, 2})
    assert sympy_betti(inst, vertices) == expected


@pytest.mark.parametrize("vertices", [(), ((0, 1),), ((1, 0), (1, 1))])
def test_cubical_t22(vertices):
    inst = cubical(2, 2)
    inst.complex.validate()
    expected = inst.betti(vanishing(vertices, 2) if vertices else {0, 1})
    assert expected == ((1, 2, 1) if not vertices else (0, 0, 0))
    assert sympy_betti(inst, vertices) == expected


def test_zero_class_over_z2():
    for inst in (koszul(3, "Z2"), cubical(2, 2, "Z2")):
        inst.complex.validate()
        n = inst.rank
        assert sympy_betti(inst, field=sympy.GF(2)) == inst.betti(set(range(n)))


@pytest.mark.parametrize(
    "vertices", [(), ((0, 1, 1), (0, 1, -1)), ((1, 1, 0), (1, -1, 1))]
)
def test_hidden_koszul_t3(vertices):
    summands = [Summand(0, None), Summand(1, 0), Summand(1, 2), Summand(2, 1)]
    inst = hidden(koszul(3), summands, 60, random.Random(1))
    inst.complex.validate()
    assert sum(len(e.terms) for m in inst.complex.boundaries for r in m for e in r) >= 60
    expected = inst.betti(vanishing(vertices, 3) if vertices else {0, 1, 2})
    assert sympy_betti(inst, vertices) == expected


def test_relabel_keeps_homology():
    inst = relabel(cubical(2, 2), random.Random(3))
    inst.complex.validate()
    assert sympy_betti(inst) == (1, 2, 1)
    assert sympy_betti(inst, ((1, 2),)) == (0, 0, 0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert f"deadline {workloads.WORKLOADS[w['name']].deadline:g} s/job" in w["why"]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.metric_specs()
    )
    names = [m["name"] for m in bench["end_to_end"]]
    assert names == ["jobs_per_s", "job_s_p50", "job_s_p90", "setup_s", "peak_rss_mb"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_answers_and_exactness_flags():
    payload = {"subcommand": "main-check", "ok": True, "betti": [0, 1],
               "reports": {"a": {"checks": {"rank_exact": False}}}}
    assert run.answer(("main-check",), payload) == (True, (0, 1))
    assert run.inexact(payload)
    assert not run.inexact({"report": {"checks": {"rank_exact": True}}})


def test_job_outcomes():
    class Stub:
        @staticmethod
        def main(argv):
            if argv[0] == "spin":
                while True:
                    pass
            print(json.dumps({"cells": [1, 2]}))
            return 0

    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        spin = run.run_job(Stub, workloads.Job("spin", ("spin",), None), 0.05)
        right = run.run_job(Stub, workloads.Job("v", ("validate",), (1, 2)), 1.0)
        wrong = run.run_job(Stub, workloads.Job("v", ("validate",), (1, 3)), 1.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert spin.status == "deadline" and spin.seconds >= 0.05
    assert (right.status, wrong.status) == ("ok", "wrong")


def test_reference_speed_scaling():
    reference = run.PROBE_REFERENCE_S
    assert run.at_reference_speed(1.0, reference, reference) == pytest.approx(1.0)
    # a machine twice as slow doubles both the probes and the job
    assert run.at_reference_speed(2.0, 2 * reference, 2 * reference) == pytest.approx(1.0)
    assert run.at_reference_speed(1.5, reference, 2 * reference) == pytest.approx(1.0)
    scaled, wall, value = run.timed_at_reference_speed(lambda: 7)
    assert value == 7 and wall >= 0 and scaled >= 0
    assert run.probe() > 0
