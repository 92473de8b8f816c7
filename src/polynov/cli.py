"""Command line front end.

Each subcommand ingests a complex (a JSON file path or the name of a
bundled example), runs one computation, and prints a report. For a fixed
configuration and seed the JSON output is byte-identical across runs.
Exit codes: 0 success, 1 validation failure, 2 input error; errors are
reported as one JSON object on stderr.

The fixed cost of a command is kept small. The argv is parsed once: when
its first word names a subcommand, that subcommand's parser reads the
rest, as the top-level parser would hand it over, and every other argv
goes to the top-level parser. The `--format json` report is written by
`_json_report`, whose bytes are those of
`json.dumps(payload, indent=2, sort_keys=True)` without the generator
encoder that any indent selects in the standard library.
"""

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from . import acceptance, corpus
from .complexes import ingest, parse_document
from .errors import PolynovError, InputError, ValidationError
from .homology import (
    main_theorem_check,
    novikov_betti,
    ordinary_betti,
    polytope_betti,
    rational_approximation,
    truncated_homology_oracle,
)
from .lattice import CohomologyClass, Polytope, check_deck_rank, parse_rational
from .morse import morse_reduce


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_class(text: str, rank=None) -> CohomologyClass:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError("empty class; expected comma-separated rationals")
    check_deck_rank(len(parts))
    periods = tuple(parse_rational(p) for p in parts)
    if rank is not None and len(periods) != rank:
        raise InputError(f"class of rank {len(periods)} against deck rank {rank}")
    return CohomologyClass(periods)


def _parse_vertices(text: str, rank=None) -> Polytope:
    groups = [g.strip() for g in text.split(";") if g.strip()]
    if not groups:
        raise InputError("empty vertex list; expected 'p,q;r,s' style rationals")
    return Polytope([_parse_class(g, rank).periods for g in groups])


def _parse_restriction(text: str):
    if not text:
        return None
    try:
        return tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise InputError(f"restriction must list vertex indices: {exc}") from exc


def _parse_weights(text: str) -> list:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise InputError("empty weight list")
    return [parse_rational(p) for p in parts]


def _load_document(source: str) -> dict:
    if os.path.exists(source):
        try:
            with open(source, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {source}: {exc}") from exc
        return parse_document(data, source)
    if source in corpus.names():
        return corpus.document(source)
    raise InputError(
        f"no such file or bundled example: {source!r} "
        f"(bundled: {', '.join(corpus.names())})"
    )


def _load_complex(args):
    document = _load_document(args.input)
    if args.coefficients:
        stated = document.get("coefficients")
        if stated is not None and stated != args.coefficients:
            raise InputError(
                f"document uses coefficients {stated!r}, flag says {args.coefficients!r}"
            )
        document = {**document, "coefficients": args.coefficients}
    return ingest(document)


# ---------------------------------------------------------------------------
# subcommands, each returning (exit code, json payload)


def _cmd_validate(args):
    X = _load_complex(args)  # ingest validates; complexes are immutable
    return 0, {
        "subcommand": "validate",
        "input": args.input,
        "cells": list(X.cell_counts()),
        "ok": True,
    }


def _cmd_betti(args):
    X = _load_complex(args)
    report = ordinary_betti(X)
    return 0, {
        "subcommand": "betti",
        "input": args.input,
        "report": report.to_json(),
    }


def _cmd_novikov(args):
    X = _load_complex(args)
    a = _parse_class(args.klass, X.deck.rank)
    report = novikov_betti(X, a)
    payload = {
        "subcommand": "novikov",
        "input": args.input,
        "class": a.to_json(),
        "report": report.to_json(),
        "oracle": None,
        "agree": None,
    }
    if not a.is_zero():
        oracle = truncated_homology_oracle(X, a, order=args.order)
        payload["oracle"] = oracle.to_json()
        payload["agree"] = oracle.betti == report.betti
        if not payload["agree"]:
            return 1, payload
    return 0, payload


def _cmd_polytope(args):
    X = _load_complex(args)
    P = _parse_vertices(args.vertices, X.deck.rank)
    B = _parse_restriction(args.restrict)
    report = polytope_betti(X, P, B, seed=args.seed)
    return 0, {
        "subcommand": "polytope",
        "input": args.input,
        "vertices": P.to_json(),
        "restrict": list(B) if B is not None else None,
        "report": report.to_json(),
    }


def _cmd_main_check(args):
    X = _load_complex(args)
    P = _parse_vertices(args.vertices, X.deck.rank)
    B = _parse_restriction(args.restrict)
    out = main_theorem_check(
        X,
        P,
        _parse_weights(args.weights_a),
        _parse_weights(args.weights_b),
        B=B,
        seed=args.seed,
    )
    payload = {"subcommand": "main-check", "input": args.input, **out}
    return (0 if out["ok"] else 1), payload


def _cmd_morse(args):
    X = _load_complex(args)
    reduced, matching = morse_reduce(X, seed=args.seed)
    before = ordinary_betti(X)
    after = ordinary_betti(reduced)
    preserved = before.canonical() == after.canonical()
    payload = {
        "subcommand": "morse",
        "input": args.input,
        "seed": args.seed,
        "matching": [list(p) for p in matching.pairs],
        "cells_before": list(X.cell_counts()),
        "cells_after": list(reduced.cell_counts()),
        "report": after.to_json(),
        "preserved": preserved,
    }
    return (0 if preserved else 1), payload


def _cmd_approx(args):
    u = _parse_class(args.klass)
    family = rational_approximation(u, parse_rational(args.eps))
    payload = {"subcommand": "approx", **family.to_json()}
    return (0 if family.ok else 1), payload


def _cmd_demo(args):
    rows = []
    ok = True
    for criterion, passed, detail in acceptance.run_all():
        ok = ok and passed
        rows.append(
            {
                "id": criterion.ident,
                "title": criterion.title,
                "ok": passed,
                "detail": detail,
            }
        )
    payload = {"subcommand": "demo", "ok": ok, "criteria": rows}
    return (0 if ok else 1), payload


_COMMANDS = {
    "validate": _cmd_validate,
    "betti": _cmd_betti,
    "novikov": _cmd_novikov,
    "polytope": _cmd_polytope,
    "main-check": _cmd_main_check,
    "morse": _cmd_morse,
    "approx": _cmd_approx,
    "demo": _cmd_demo,
}


# ---------------------------------------------------------------------------
# text rendering


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True)


def _report_lines(report: dict, indent: str = "") -> list:
    return [
        f"{indent}betti {report['betti']}",
        f"{indent}chi {report['chi']}",
        f"{indent}method {report['method']}",
        f"{indent}ring {_compact(report['ring'])}",
        f"{indent}checks {_compact(report['checks'])}",
    ]


def _render_text(payload: dict) -> str:
    sub = payload["subcommand"]
    lines = []
    if sub == "validate":
        lines.append(
            f"ok: boundary square is zero (cells {tuple(payload['cells'])})"
        )
    elif sub in ("betti", "polytope"):
        if sub == "polytope":
            lines.append(f"vertices {_compact(payload['vertices'])}")
            if payload["restrict"] is not None:
                lines.append(f"restrict {payload['restrict']}")
        lines += _report_lines(payload["report"])
    elif sub == "novikov":
        lines.append(f"class {payload['class']}")
        lines += _report_lines(payload["report"])
        if payload["oracle"] is None:
            lines.append("oracle skipped for the zero class")
        else:
            orders = payload["oracle"]["checks"]["orders"]
            agree = "agree" if payload["agree"] else "DISAGREE"
            lines.append(f"oracle orders {orders}: {agree}")
    elif sub == "main-check":
        lines.append("ok" if payload["ok"] else "FAILED")
        for name in sorted(payload["checks"]):
            mark = "ok" if payload["checks"][name] else "FAIL"
            lines.append(f"  [{mark}] {name}")
        lines.append(f"betti {payload['betti']} chi {payload['chi']}")
        lines.append(f"classes a={payload['classes']['a']} b={payload['classes']['b']}")
    elif sub == "morse":
        lines.append(
            f"matched {len(payload['matching'])} pairs (seed {payload['seed']})"
        )
        lines.append(
            f"cells {tuple(payload['cells_before'])} -> {tuple(payload['cells_after'])}"
        )
        lines += _report_lines(payload["report"])
        lines.append(
            "ordinary report preserved" if payload["preserved"] else "REPORT CHANGED"
        )
    elif sub == "approx":
        lines.append(
            f"target {payload['target']} eps {payload['epsilon']} delta {payload['delta']}"
        )
        lines.append(f"members {_compact(payload['members'])}")
        lines.append(f"flags {_compact(payload['flags'])}")
        lines.append("ok" if payload["ok"] else "FAILED")
    elif sub == "demo":
        for row in payload["criteria"]:
            mark = "PASS" if row["ok"] else "FAIL"
            lines.append(f"{mark}  {row['id']:<24} {row['detail']}")
        n = len(payload["criteria"])
        good = sum(1 for r in payload["criteria"] if r["ok"])
        lines.append(f"{good}/{n} acceptance criteria passed")
    else:
        lines.append(_compact(payload))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON report


def _json_report(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for the
    types a report holds: str, int, bool, None, dicts with str keys, lists
    and tuples; TypeError for anything else. Any indent sends json.dumps
    to its pure-Python generator encoder; this appends to one list."""
    out = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline, out):
    """Append the text of value to out; newline is "\n" plus the indent of
    the line value starts on."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            out.append(separator)
            out.append(_encode_str(key))  # TypeError for a key that is not a str
            out.append(": ")
            _write_json(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as JSON on stderr, exit 2."""

    def error(self, message):
        sys.stderr.write(
            json.dumps(
                {"error": {"type": "InputError", "message": message}},
                sort_keys=True,
            )
            + "\n"
        )
        raise SystemExit(2)


@functools.cache
def _build_parser():
    """(the top-level parser, {subcommand name: its subparser}), built on
    first use and kept: argparse keeps no state between parse_args calls,
    and building them costs milliseconds."""
    parser = _Parser(
        prog="polynov",
        description=(
            "Exact Novikov homology of finite equivariant complexes over "
            "polytope Novikov rings."
        ),
        epilog=(
            "INPUT may be a JSON file or a bundled example name "
            f"({', '.join(corpus.names())}). Rationals are written p/q."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is byte-stable per config and seed)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subparsers = {}

    def add(name, help_text):
        subparsers[name] = sub.add_parser(name, help=help_text, parents=[common])
        return subparsers[name]

    def with_input(p):
        p.add_argument("input", help="complex JSON file or bundled example name")
        p.add_argument(
            "--coefficients",
            default="",
            help="expected coefficient tag (Z, Q, Z2); checked against the document",
        )
        return p

    with_input(add("validate", "check the boundary square is zero"))
    with_input(add("betti", "ordinary Betti numbers (zero class)"))

    p = with_input(add("novikov", "Betti numbers over one class"))
    p.add_argument("--class", dest="klass", required=True,
                   help="comma-separated rational periods, e.g. 1,0 or 2/3,1")
    p.add_argument("--order", type=int, default=16,
                   help="starting truncation order for the oracle cross-check")

    p = with_input(add("polytope", "Betti numbers over a polytope ring"))
    p.add_argument("--vertices", required=True,
                   help="semicolon-separated vertices, e.g. '1,0;0,1'")
    p.add_argument("--restrict", default="",
                   help="comma-separated vertex indices carrying finiteness")
    p.add_argument("--seed", type=int, default=0)

    p = with_input(add("main-check", "two-route comparison square"))
    p.add_argument("--vertices", required=True)
    p.add_argument("--a", dest="weights_a", required=True,
                   help="convex weights for the first class, e.g. 1/2,1/2")
    p.add_argument("--b", dest="weights_b", required=True,
                   help="convex weights for the second class")
    p.add_argument("--restrict", default="")
    p.add_argument("--seed", type=int, default=0)

    p = with_input(add("morse", "reduce along an acyclic matching"))
    p.add_argument("--seed", type=int, default=0)

    p = add("approx", "approximation family for a class")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--eps", required=True, help="rational tolerance, e.g. 1/10")

    add("demo", "run every acceptance criterion")
    return parser, subparsers


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parser()
    if argv and argv[0] in subparsers:
        name = argv[0]
        args = subparsers[name].parse_args(argv[1:])
    else:
        args = parser.parse_args(argv)
        name = args.subcommand
    try:
        code, payload = _COMMANDS[name](args)
    except PolynovError as exc:
        info = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ValidationError):
            info["location"] = exc.location()
        sys.stderr.write(json.dumps({"error": info}, sort_keys=True) + "\n")
        return 1 if isinstance(exc, ValidationError) else 2
    if args.format == "json":
        sys.stdout.write(_json_report(payload) + "\n")
    else:
        sys.stdout.write(_render_text(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
