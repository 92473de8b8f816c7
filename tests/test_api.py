"""Names that must not disappear: every export of the package, every
function the benchmark's per-layer tracer (`perfbench/tracing.py`) wraps
by name, and the dense view its counters read. Deleting a traced name
fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import polynov
from polynov import corpus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_export_resolves():
    missing = [name for name in polynov.__all__ if not hasattr(polynov, name)]
    assert missing == []


def test_every_traced_name_exists():
    # resolved as the tracer resolves it: through the defining module's
    # and class's own __dict__, so an inherited or re-exported name does
    # not count
    tracing = load_tracing()
    missing = []
    for _, module, path in tracing.WRAPPED:
        owner = importlib.import_module(f"polynov.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = owner.__dict__.get(part)
        if owner is None or attr not in owner.__dict__:
            missing.append(f"polynov.{module}.{path}")
    assert missing == []
    # its counters also read each complex's entries through the dense view
    assert len(list(tracing._entries(corpus.load("torus")))) == 4
