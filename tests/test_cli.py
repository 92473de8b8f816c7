"""End-to-end checks of the command line front end.

Most cases drive cli.main() in-process; a few spawn a real interpreter to
pin down process-level behavior (exit codes, stderr, byte determinism).
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from polynov import cli, homology, lattice
from polynov.cli import main
from polynov.complexes import EquivariantComplex, ingest
from polynov.groupring import CoefficientRing, GroupRingElement, matrix_rank_fraction_field
from polynov.lattice import (
    MAX_ORACLE_ORDER,
    MAX_RELATOR_LETTERS,
    LatticeMap,
    quotient_map,
    zero_class,
)
from test_complexes import cubical_torus


GOLDEN = Path(__file__).parent / "golden"


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


def subdivided_circle(n, ring="Q"):
    """The circle cut into n edges over ring[Z]; the last edge ends at t * v0."""
    matrix = [["0"] * n for _ in range(n)]
    for j in range(n):
        matrix[j][j] = "-1"
        matrix[(j + 1) % n][j] = "1" if j + 1 < n else "t"
    return {
        "coefficients": ring, "rank": 1,
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


@pytest.mark.parametrize(
    "args",
    [
        ["approx", "--class", ",".join(["1"] * 800), "--eps", "1/10"],
        ["novikov", "torus", "--class", ",".join(["1"] * 65)],
        ["polytope", "torus", "--vertices", "1,0;" + ",".join(["1"] * 65)],
        ["betti", "{doc}"],
    ],
)
def test_deck_ranks_above_the_limit_are_input_errors(capsys, tmp_path, args):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"coefficients": "Q", "rank": 10000, "cells": [["v"]], "boundaries": []}
    ))
    args = [str(path) if a == "{doc}" else a for a in args]
    code, out, err = call(capsys, [*args, "--format", "json"])
    assert (code, out) == (2, "")
    info = json.loads(err)["error"]
    assert info["type"] == "InputError"
    assert "above the limit 64" in info["message"]


def test_oracle_orders_above_the_limit_are_input_errors(capsys):
    # well above every order the corpus, the acceptance suite and the
    # benchmark use, which start at 16 and double at most 8 times
    assert MAX_ORACLE_ORDER >= 8 * 16 * 2**8
    for order in (MAX_ORACLE_ORDER + 1, 10**9):
        args = ["novikov", "torus", "--class", "1,0", "--order", str(order)]
        code, out, err = call(capsys, [*args, "--format", "json"])
        assert (code, out) == (2, "")
        info = json.loads(err)["error"]
        assert info == {
            "type": "InputError",
            "message": f"truncation order {order} is above the limit {MAX_ORACLE_ORDER}",
        }


KOSZUL3 = str(GOLDEN / "koszul3-Q.json")


NINES = 10**4300 - 1  # the largest denominator a flag rational may have


@pytest.mark.parametrize(
    "complex_, klass, order, denominator",
    [(KOSZUL3, "1/7,1/11,1/13", 4, 7 * 11 * 13),
     (KOSZUL3, "1/7,1/11,1/13", 66, 7 * 11 * 13),
     (KOSZUL3, "1/101,1/103,1/107", 16, 101 * 103 * 107),
     (KOSZUL3, "1/1009,1/1013,1/1019", 16, 1009 * 1013 * 1019),
     # a cutoff of 4302 digits, which str() cannot print
     ("torus", f"1/{NINES},1", 16, NINES),
     # the first window is under the limit and the doubled one is not
     ("torus", "1/1000,1", 32, 1000),
     ("torus", "1/1000,1", 64, 1000)],
    ids=["7-11-13", "7-11-13-order-66", "101-103-107", "1009-1013-1019", "nines",
         "1000-order-32", "1000-order-64"],
)
def test_oracle_window_cutoff_limit(capsys, monkeypatch, complex_, klass, order, denominator):
    # the induced period is 1/D, so the window of order N holds N * D
    # heights; above the limit the oracle ran for minutes or ran out of
    # memory, and it now stops before it runs such an order, the first or
    # a doubled one. Order 66 is below the order limit, but its window is
    # not. The first elimination runs at the doubled window, so no
    # elimination runs before either window is checked.
    eliminations = []
    series_rank = homology._series_rank

    def counting(*args):
        eliminations.append(args)
        return series_rank(*args)

    monkeypatch.setattr(homology, "_series_rank", counting)
    args = ["novikov", complex_, "--class", klass, "--order", str(order)]
    code, out, err = call(capsys, [*args, "--format", "json"])
    if 2 * order * denominator <= MAX_ORACLE_ORDER:
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] and payload["oracle"]["checks"]["orders"] == [order, 2 * order]
        assert eliminations
        return
    stopped = order if order * denominator > MAX_ORACLE_ORDER else 2 * order
    assert eliminations == []
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "InputError",
        "message": f"the oracle window at order {stopped} reaches heights above "
                   f"the limit {MAX_ORACLE_ORDER}",
    }


BIG = 10**2200
RANK3_BIG_DENOMINATORS = f"1/{BIG + 1},1/{BIG + 3},1/{BIG + 7}"


@pytest.mark.parametrize(
    "args, message",
    [
        (["novikov", "torus", "--class=1e4300,1"], "a rational of more than 4300 digits"),
        (["polytope", KOSZUL3, "--vertices=1e4300,1,1"], "a rational of more than 4300 digits"),
        (["approx", "--class=1,1", "--eps=1e-5000"], "bad rational string '1e-5000'"),
        (["novikov", "torus", "--class=1e10000000,1"], "bad rational string '1e10000000'"),
        (["approx", "--class=1,1", "--eps=1e-100000000"], "bad rational string '1e-100000000'"),
        # each period prints, but the ray normalization has three times the digits
        (["novikov", KOSZUL3, "--class", RANK3_BIG_DENOMINATORS],
         "a rational of more than 4300 digits"),
    ],
    ids=["class", "vertices", "eps", "class-exponent", "eps-exponent", "ray"],
)
def test_rationals_of_more_than_4300_digits_are_input_errors(capsys, args, message):
    # "bad rational string" means the text was refused by its decimal
    # exponent, before 10^exponent was built: that took seconds to minutes
    code, out, err = call(capsys, [*args, "--format", "json"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "InputError", "message": message}


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


def test_commands_in_one_process_print_what_they_print_alone(capsys):
    # the parser is built once per process and reused, usage errors included
    valid = ["novikov", "circle", "--class", "1", "--format", "json"]
    usage = ["novikov", "circle", "--format", "json"]
    alone = {tuple(args): run_process(args) for args in (valid, usage)}
    for args in (valid, usage, valid):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        expected = alone[tuple(args)]
        assert code == expected.returncode == (2 if args is usage else 0)
        if args is usage:
            assert json.loads(captured.err)["error"]["type"] == "InputError"
        assert captured.out.encode() == expected.stdout
        assert captured.err.encode() == expected.stderr


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
    for ring in ("Q", "Z2"):
        document = subdivided_circle(70, ring)
        X = ingest(document).specialize(quotient_map([zero_class(1)]))
        assert matrix_rank_fraction_field(X.boundaries[0]) == (69, True, "constant")
        path = tmp_path / f"circle70-{ring}.json"
        path.write_text(json.dumps(document))
        code, out, _ = call(capsys, ["betti", str(path), "--format", "json"])
        assert code == 0
        report = json.loads(out)["report"]
        assert report["betti"] == [1, 1]
        assert report["method"] == "fraction-field exact"
        assert report["checks"]["rank_exact"] is True
        code, out, _ = call(capsys, ["morse", str(path), "--format", "json"])
        assert code == 0
        assert json.loads(out)["preserved"] is True


def test_each_complex_is_validated_once(capsys, monkeypatch, tmp_path):
    # only ingest validates: the images under the quotient map, by either
    # twist route, are not checked again, because a ring map keeps d∘d = 0,
    # and neither is a Morse reduction, because an acyclic matching does
    calls = []
    original = EquivariantComplex.validate

    def counting(self):
        calls.append(self.cell_counts())
        return original(self)

    monkeypatch.setattr(EquivariantComplex, "validate", counting)
    path = tmp_path / "circle5-Z2.json"
    path.write_text(json.dumps(subdivided_circle(5, "Z2")))
    for args, expected in (
        (["betti", "torus"], 1),
        (["betti", str(path)], 1),
        (["morse", str(path), "--seed", "2"], 1),  # 5 cells -> 1 per degree
        (["novikov", str(GOLDEN / "koszul3-Z.json"), "--class=1,2,3"], 1),
        (["main-check", "torus", "--vertices", "1,0;0,1",
          "--a", "1/2,1/2", "--b", "1/3,2/3"], 1),
        # both sides of the comparison square reduce 4 Morse pairs
        (["main-check", str(path), "--vertices", "1", "--a", "1", "--b", "1"], 1),
    ):
        calls.clear()
        code, _, _ = call(capsys, [*args, "--format", "json"])
        assert code == 0
        assert len(calls) == expected


def test_novikov_normalizes_its_class_once(capsys, monkeypatch):
    # the report and the oracle's report both print the class's ray
    normalized = []
    original = lattice._primitive_form

    def counting(periods):
        normalized.append(periods)
        return original(periods)

    monkeypatch.setattr(lattice, "_primitive_form", counting)
    # the oracle reads the form the class keeps; a homology import of its
    # own would be counted here
    monkeypatch.setattr(homology, "_primitive_form", counting, raising=False)
    code, out, _ = call(capsys, ["novikov", "torus", "--class", "2/3,4/3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ring"]["class"] == payload["oracle"]["ring"]["class"] == ["1", "2"]
    assert len(normalized) == 1


def test_one_pushed_complex_per_novikov_job(capsys, monkeypatch):
    # only the Novikov rank pushes to the quotient (the truncated oracle
    # reads heights off the unpushed complex), so no element is pushed
    # twice in a job
    pushes = []  # the elements themselves, so no id is reused
    original = GroupRingElement.pushed_terms

    def counting(self, images):
        pushes.append(self)
        return original(self, images)

    monkeypatch.setattr(GroupRingElement, "pushed_terms", counting)
    for args in (
        ["novikov", "torus", "--class", "1,2"],
        ["novikov", str(GOLDEN / "koszul3-Z.json"), "--class=1,2,3"],
        ["novikov", str(GOLDEN / "koszul3-Z2.json"), "--class=-1,-1,-1"],
    ):
        pushes.clear()
        code, out, _ = call(capsys, [*args, "--format", "json"])
        assert code == 0
        assert json.loads(out)["oracle"] is not None
        assert pushes
        assert len({id(e) for e in pushes}) == len(pushes)


@pytest.mark.parametrize("args", [
    ["novikov", "torus", "--class=1,2"],
    ["novikov", str(GOLDEN / "koszul3-Z2.json"), "--class=-1,-1,-1"],
])
def test_oracle_sees_a_broken_quotient_path(capsys, monkeypatch, args):
    # sending every exponent to 0 is still a ring map, so d∘d = 0 holds and
    # the Novikov rank turns into the ordinary one; the oracle does not
    # push, so it disagrees
    def zero_images(self, exponents):
        return {x: (0,) * self.rank_out for x in exponents}

    monkeypatch.setattr(LatticeMap, "images", zero_images)
    code, out, _ = call(capsys, [*args, "--format", "json"])
    payload = json.loads(out)
    assert (code, payload["agree"]) == (1, False)
    assert payload["report"]["betti"] != payload["oracle"]["betti"]


def test_equal_entry_strings_share_one_element_safely(capsys, monkeypatch, tmp_path):
    # ingest hands one element to every equal entry string; no command may
    # change a stored element
    names, mats = cubical_torus(2, 3, CoefficientRing.RAT)
    document = EquivariantComplex(CoefficientRing.RAT, 2, names, mats).to_json()
    X = ingest(document)
    stored = [e for band in X.columns for column in band for e in column.values()]
    assert len({id(e) for e in stored}) < len(stored)
    path = tmp_path / "cubical.json"
    path.write_text(json.dumps(document))
    monkeypatch.setattr(cli, "ingest", lambda doc: X)
    for args in (
        ["betti"],
        ["novikov", "--class", "1,2"],
        ["polytope", "--vertices", "1,0;0,1", "--restrict", "0"],
        ["main-check", "--vertices", "1,0;0,1;1,1",
         "--a", "1/2,1/4,1/4", "--b", "0,1/3,2/3", "--seed", "3"],
        ["morse", "--seed", "1"],
    ):
        code, _, err = call(capsys, [args[0], str(path), *args[1:], "--format", "json"])
        assert (code, err) == (0, "")
    for k, matrix in enumerate(document["boundaries"]):
        for i, row in enumerate(matrix):
            for j, text in enumerate(row):
                fresh = GroupRingElement.from_string(text, X.ring, 2)
                assert X.columns[k][j].get(i, fresh) == fresh
                assert (i in X.columns[k][j]) == (text != "0")
    assert X.to_json() == document


def test_huge_decimal_exponent_is_an_input_error(capsys, tmp_path):
    # Fraction would expand 1e10000000 into 10**10000000, which takes seconds
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {**TORUS, "boundaries": [[["t1^2*1e10000000", "t2 - 1"]], TORUS["boundaries"][1]]}
    ))
    start = time.perf_counter()
    code, out, err = call(capsys, ["validate", str(path), "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "InputError",
        "message": "bad factor '1e10000000' in 't1^2*1e10000000'",
    }


@pytest.mark.parametrize("relator", [
    "a^1000000000*b*a^-1000000000*b^-1",
    [["a", 10**9], ["b", 1], ["a", -(10**9)], ["b", -1]],
])
def test_relators_above_the_letter_limit_are_input_errors(capsys, tmp_path, relator):
    # counted before any is expanded: a^1000000000 would be a list of
    # about 8 GB
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**TORUS_PRESENTATION, "relators": [relator]}))
    start = time.perf_counter()
    code, out, err = call(capsys, ["validate", str(path), "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    info = json.loads(err)["error"]
    assert info["type"] == "InputError"
    assert f"above the limit {MAX_RELATOR_LETTERS}" in info["message"]


@pytest.mark.parametrize("command", ["validate", "betti"])
def test_integer_literal_of_more_than_4300_digits_is_an_input_error(capsys, tmp_path, command):
    # json.loads raises a plain ValueError for it, not a JSONDecodeError;
    # json.dumps cannot write the document, so it is written as text
    path = tmp_path / "long.json"
    path.write_text(
        '{"coefficients": "Q", "rank": ' + "1" * 5000 + ', "cells": [["v"]], "boundaries": []}'
    )
    code, out, err = call(capsys, [command, str(path), "--format", "json"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "InputError",
        "message": f"{path} is not valid JSON: an integer literal has more than 4300 digits",
    }


def test_document_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    # json.loads raises UnicodeDecodeError, not a JSONDecodeError
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"coefficients": "\x80"}')
    code, out, err = call(capsys, ["validate", str(path), "--format", "json"])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "InputError"
    assert error["message"].startswith(f"{path} is not valid JSON: ")


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("text", [
    DEEP,
    '{"coefficients": "Q", "rank": 1, "cells": [["v"]], "boundaries": ' + DEEP + "}",
], ids=["top-level", "in-boundaries"])
def test_deeply_nested_document_is_an_input_error(capsys, tmp_path, text):
    # json.loads raises RecursionError, not a ValueError
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = call(capsys, ["validate", str(path), "--format", "json"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "InputError",
        "message": f"{path} is nested too deeply for the JSON parser",
    }


LINE = {"coefficients": "Q", "rank": 1, "cells": [["v"], ["e"], ["f"]]}


@pytest.mark.parametrize(
    "entry", ["1e4300*1e4300*t + 1", "*".join(["9" * 3000] * 2 + ["t"])],
    ids=["decimal-exponents", "long-integers"],
)
def test_coefficient_above_10_to_the_4300_is_an_input_error(capsys, tmp_path, entry):
    # a product of in-range factors with more digits than str() prints
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**LINE, "boundaries": [[["t - 1"]], [[entry]]]}))
    code, out, err = call(capsys, ["validate", str(path), "--format", "json"])
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "InputError"
    assert error["message"] == f"a coefficient of {entry!r} is above 10^4300"


@pytest.mark.parametrize("entry", ["t^" + "9" * 5000, "t" + "1" * 5000])
def test_long_power_or_index_is_an_input_error(capsys, tmp_path, entry):
    # more digits than int() reads, in a variable factor
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**LINE, "boundaries": [[["t - 1"]], [[entry]]]}))
    code, out, err = call(capsys, ["validate", str(path), "--format", "json"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "InputError", "message": f"bad factor {entry!r} in {entry!r}",
    }


@pytest.mark.parametrize("entry", ["1e4300*1/3*t", "1/7*1e4300*t"])
def test_unprintable_fraction_over_z_is_an_input_error(capsys, tmp_path, entry):
    # a fraction with 10^4300 in it parses, but is no integer, and its 4301
    # digits are more than str() prints in the message
    path = tmp_path / "fraction.json"
    document = {**LINE, "coefficients": "Z", "boundaries": [[["t - 1"]], [[entry]]]}
    path.write_text(json.dumps(document))
    code, out, err = call(capsys, ["validate", str(path), "--format", "json"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "InputError",
        "message": "a fraction of more than 4300 digits is not an integer coefficient",
    }


def test_unprintable_square_entry_is_a_located_validation_error(capsys, tmp_path):
    # each factor has 4001 digits and parses; their product, the d∘d
    # entry, has 8001 and cannot be printed in the message
    path = tmp_path / "square.json"
    path.write_text(json.dumps({**LINE, "boundaries": [[["1e4000*t"]], [["1e4000"]]]}))
    code, out, err = call(capsys, ["validate", str(path), "--format", "json"])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "ValidationError",
        "message": "boundary square is nonzero from degree 2: entry (0, 0) is "
        "a polynomial with a coefficient of more than 4300 digits",
        "location": {"degree": 2, "row": 0, "col": 0},
    }


@pytest.mark.parametrize(
    "name, args, route",
    [
        ("betti-constant-Q", ["betti", "constant-Q.json"], "constant"),
        ("betti-constant-Z", ["betti", "constant-Z.json"], "constant"),
        *(
            (f"polytope-summand-{ring}",
             ["polytope", f"summand-{ring}.json", "--vertices=1,0"],
             "fraction-free")
            for ring in ("Q", "Z", "Z2")
        ),
        ("novikov-koszul3-Z", ["novikov", "koszul3-Z.json", "--class=1,2,3"],
         "modular"),
        # the oracle's orders and boundary ranks, at a negative class over
        # Z/2 and at a class with a zero period over Q
        ("novikov-koszul3-Z2",
         ["novikov", "koszul3-Z2.json", "--class=-1,-1,-1"], "modular"),
        ("novikov-koszul3-Q",
         ["novikov", "koszul3-Q.json", "--class=1,-1,0"], "modular"),
    ],
)
def test_json_report_matches_golden_bytes(capsys, monkeypatch, name, args, route):
    # tests/golden pins the stdout bytes of one command per rank route; the
    # spy checks that the command still takes the route it stands for
    routes = []
    original = homology.chain_ranks

    def spy(boundaries, **kwargs):
        results = original(boundaries, **kwargs)
        routes.extend(r.method for r in results)
        return results

    monkeypatch.setattr(homology, "chain_ranks", spy)
    monkeypatch.chdir(GOLDEN)
    code, out, err = call(capsys, [*args, "--format", "json"])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert route in routes


@pytest.mark.parametrize(
    "name, args, expected",
    [
        ("novikov-hidden-Q-orders-1-8",
         ["novikov", "hidden-Q.json", "--class=1/2,1/3,1/5", "--order", "1"], 0),
        ("novikov-hidden-Z2-orders-2-16",
         ["novikov", "hidden-Z2.json", "--class=1,1,1", "--order", "2"], 0),
        # too short a window for this class: orders 6 and 12 settle on Betti
        # (1, 2, 1, 0) against the exact (0, 0, 0, 0), so exit 1
        ("novikov-hidden-Q-disagree",
         ["novikov", "hidden-Q.json", "--class=1,2,3", "--order", "3"], 1),
    ],
)
def test_oracle_runs_of_more_than_two_orders_match_golden_bytes(
    capsys, monkeypatch, name, args, expected
):
    # the benchmark's oracles stop at their second order; these run three
    # or four, over Q and Z/2, at a rational class among them
    monkeypatch.chdir(GOLDEN)
    code, out, err = call(capsys, [*args, "--format", "json"])
    assert (code, err) == (expected, "")
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert len(json.loads(out)["oracle"]["checks"]["orders"]) > 2


@pytest.mark.parametrize("ring", ["Q", "Z", "Z2"])
def test_hidden_summand_document_matches_golden_bytes(capsys, monkeypatch, ring):
    # hidden-<ring>.json is Koszul T^3 plus three summands (a +-monomial,
    # t1 - 1 and t3 - 1), conjugated by random +-monomial basis changes
    # (perfbench/families.py `hidden`), so its entries hold up to 172 terms
    # that repeat across entries; the Z document is the Q one retagged.
    # Betti (0, 1, 1, 0) over a polytope vanishing on t1, by construction.
    document = json.loads((GOLDEN / f"hidden-{ring}.json").read_text())
    assert ingest(document).to_json() == document
    monkeypatch.chdir(GOLDEN)
    for sub, extra in [("validate", []), ("polytope", ["--vertices=0,1,0;0,1,1"])]:
        code, out, err = call(
            capsys, [sub, f"hidden-{ring}.json", *extra, "--format", "json"]
        )
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / f"{sub}-hidden-{ring}.stdout").read_bytes()


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


# -- the JSON report writer ------------------------------------------------

ODD_TEXT = (
    "plain", "", 'quo"te', "back\\slash", "tab\there", "new\nline",
    "\x00\x01\x1f\x7f", "café", "中文", "\U0001f600",
    "\ud800 lone", "mixed \"\\é\b\f\r",
)
ODD_INTS = (0, 1, -1, 7, -42, 2**63, 2**64, 2**64 + 1, -(2**64) - 1, 10**40, -(3**90))


def random_report(rng, depth):
    """A random nest of dicts, lists, tuples, str, int, bool and None."""
    kind = rng.randrange(9 if depth else 5)
    if kind == 0:
        return rng.choice(ODD_TEXT) + "".join(
            chr(rng.choice((rng.randrange(32), rng.randrange(32, 127),
                            rng.randrange(128, 0x3000))))
            for _ in range(rng.randrange(4))
        )
    if kind == 1:
        return rng.choice(ODD_INTS + (rng.randint(-(2**80), 2**80),))
    if kind == 2:
        return rng.choice((True, False))
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(({}, [], ()))
    if kind in (5, 6):
        return {
            rng.choice(ODD_TEXT) + str(rng.randrange(50)):
            random_report(rng, depth - 1)
            for _ in range(rng.randrange(5))
        }
    items = [random_report(rng, depth - 1) for _ in range(rng.randrange(5))]
    return items if kind == 7 else tuple(items)


def test_json_report_writer_matches_json_dumps():
    rng = random.Random(2029)
    for _ in range(600):
        value = random_report(rng, rng.randrange(5))
        assert cli._json_report(value) == json.dumps(value, indent=2, sort_keys=True)
    for value in ODD_TEXT + ODD_INTS + (True, False, None, {}, [], (), [[]], {"": {}}):
        assert cli._json_report(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 2), [1, 2.0], {"a": {"b": Fraction(3)}}, {1: "int key"},
])
def test_json_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_report(value)


# -- argv dispatch -----------------------------------------------------------


def top_level_parse(capsys, argv):
    """(exit code, stdout, stderr) of the top-level parser alone on argv:
    it hands what follows a subcommand's name to that subcommand's parser,
    so `main`, which calls that parser itself, must print the same."""
    parser, _ = cli._build_parser()
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv, code, out_start, message", [
    ([], 2, "", "the following arguments are required: subcommand"),
    (["-h"], 0, "usage: polynov [-h]", None),
    (["novikov", "-h"], 0, "usage: polynov novikov [-h]", None),
    (["nonsense", "torus"], 2, "", "invalid choice: 'nonsense'"),
    (["novikov", "torus"], 2, "", "the following arguments are required: --class"),
    (["novikov", "torus", "--class", "1,0", "--bogus"], 2, "",
     "unrecognized arguments: --bogus"),
    (["betti", "torus", "--format", "yaml"], 2, "", "invalid choice: 'yaml'"),
])
def test_argv_dispatch_prints_what_the_top_level_parser_prints(
    capsys, argv, code, out_start, message
):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    got = (info.value.code, captured.out, captured.err)
    assert got == top_level_parse(capsys, list(argv))
    assert got[0] == code
    assert captured.out.startswith(out_start)
    if message is None:
        assert captured.err == ""
    else:
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "InputError" and message in error["message"]
