"""End-to-end checks of the command line front end.

Most cases drive cli.main() in-process; a few spawn a real interpreter to
pin down process-level behavior (exit codes, stderr, byte determinism).
"""

import json
import subprocess
import sys

import pytest

from polynov.cli import main


def call(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(args):
    return subprocess.run(
        [sys.executable, "-m", "polynov.cli", *args],
        capture_output=True,
        timeout=120,
    )


CORRUPTED = {
    "coefficients": "Q",
    "rank": 2,
    "cells": [["v"], ["ex", "ey"], ["f"]],
    "boundaries": [
        [["t1 - 1", "t2 - 1"]],
        [["1 - t2"], ["t1 + 1"]],
    ],
}


TORUS = {**CORRUPTED, "boundaries": [[["t1 - 1", "t2 - 1"]], [["1 - t2"], ["t1 - 1"]]]}
TORUS_PRESENTATION = {
    "generators": ["a", "b"], "relators": ["abAB"], "deck_map": [[1, 0], [0, 1]],
}


def subdivided_circle(n):
    """The circle cut into n edges over Q[Z]; the last edge ends at t * v0."""
    matrix = [["0"] * n for _ in range(n)]
    for j in range(n):
        matrix[j][j] = "-1"
        matrix[(j + 1) % n][j] = "1" if j + 1 < n else "t"
    return {
        "coefficients": "Q", "rank": 1,
        "cells": [[f"v{i}" for i in range(n)], [f"e{i}" for i in range(n)]],
        "boundaries": [matrix],
    }


def test_validate_bundled_ok(capsys):
    code, out, _ = call(capsys, ["validate", "torus"])
    assert code == 0
    assert "boundary square is zero" in out


def test_validate_corrupted_boundary(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(CORRUPTED))
    code, _, err = call(capsys, ["validate", str(path)])
    assert code == 1
    info = json.loads(err)["error"]
    assert info["type"] == "ValidationError"
    assert info["location"] == {"degree": 2, "row": 0, "col": 0}


@pytest.mark.parametrize(
    "document",
    [
        {**TORUS, "boundaries": [[["t1 - 1", 1]], TORUS["boundaries"][1]]},
        {**TORUS, "boundaries": [[["t1 - 1", None]], TORUS["boundaries"][1]]},
        {**TORUS, "rank": "x"},
        {**TORUS, "rank": 1.5},
        {**TORUS_PRESENTATION, "deck_map": [["x", 0]]},
        {**TORUS_PRESENTATION, "deck_map": [1]},
        {**TORUS_PRESENTATION, "deck_map": [[1.5, 0], [0, 1]]},
        {**TORUS_PRESENTATION, "relators": [[["a", "x"]]]},
    ],
)
def test_malformed_document_is_input_error(capsys, tmp_path, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, _, err = call(capsys, ["validate", str(path)])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "InputError"


def test_missing_input(capsys):
    code, _, err = call(capsys, ["betti", "no_such_thing"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "InputError"


def test_class_rank_mismatch(capsys):
    code, _, err = call(capsys, ["novikov", "torus", "--class", "1,2,3"])
    assert code == 2
    assert "rank" in json.loads(err)["error"]["message"]


def test_coefficient_tag_mismatch(capsys):
    code, _, err = call(capsys, ["betti", "torus", "--coefficients", "Z2"])
    assert code == 2
    assert "coefficients" in json.loads(err)["error"]["message"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["type"] == "InputError"


def test_novikov_circle_class_one(capsys):
    code, out, _ = call(
        capsys, ["novikov", "circle", "--class", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["betti"] == [0, 0]
    assert payload["agree"] is True
    assert payload["oracle"]["method"] == "truncated-oracle"


def test_novikov_zero_class_skips_oracle(capsys):
    code, out, _ = call(
        capsys, ["novikov", "torus", "--class", "0,0", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["betti"] == [1, 2, 1]
    assert payload["oracle"] is None


def test_polytope_restriction(capsys):
    code, out, _ = call(
        capsys,
        [
            "polytope",
            "torus",
            "--vertices",
            "1,0;0,1",
            "--restrict",
            "0",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["betti"] == [0, 0, 0]
    assert payload["report"]["ring"]["finiteness"] == [0]


def test_morse_preserves_report(capsys):
    code, out, _ = call(
        capsys, ["morse", "circle_subdivided", "--seed", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["preserved"] is True
    assert payload["cells_after"] == [1, 1]
    assert len(payload["matching"]) == 1


def test_constant_ranks_above_64_cells_are_exact(capsys, tmp_path):
    path = tmp_path / "circle70.json"
    path.write_text(json.dumps(subdivided_circle(70)))
    code, out, _ = call(capsys, ["betti", str(path), "--format", "json"])
    assert code == 0
    report = json.loads(out)["report"]
    assert report["betti"] == [1, 1]
    assert report["method"] == "fraction-field exact"
    assert report["checks"]["rank_exact"] is True
    code, out, _ = call(capsys, ["morse", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["preserved"] is True


def test_main_check_passes(capsys):
    code, out, _ = call(
        capsys,
        [
            "main-check",
            "torus",
            "--vertices",
            "1,0;0,1;1,1",
            "--a",
            "1/2,1/4,1/4",
            "--b",
            "0,1/3,2/3",
            "--restrict",
            "0,1",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(payload["checks"].values())


def test_approx_worked_examples(capsys):
    code, out, _ = call(
        capsys, ["approx", "--class", "1,1", "--eps", "1/10", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [["101/100", "1"], ["1", "101/100"]]

    code, out, _ = call(
        capsys, ["approx", "--class", "1,0", "--eps", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [["11/10", "0"]]

    code, out, _ = call(
        capsys, ["approx", "--class", "0,0", "--eps", "1/10", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["members"] == []


def test_json_output_is_byte_stable():
    args = [
        "main-check",
        "genus2",
        "--vertices",
        "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1",
        "--a",
        "1/4,1/4,1/4,1/4",
        "--b",
        "1/2,1/2,0,0",
        "--restrict",
        "0,2",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    first = run_process(args)
    second = run_process(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_demo_passes_everything():
    proc = run_process(["demo"])
    assert proc.returncode == 0, proc.stdout.decode()
    lines = proc.stdout.decode().strip().splitlines()
    assert lines[-1].startswith("12/12")
    assert sum(1 for line in lines if line.startswith("PASS")) == 12
    assert not any(line.startswith("FAIL") for line in lines)
