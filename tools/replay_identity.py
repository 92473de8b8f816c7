"""Replay the benchmark's jobs and a fixed list of error commands through two
source trees and compare what each command prints.

    python3 tools/replay_identity.py A B --seeds 3 7

A and B are source checkouts (each holds src/polynov). For every seed and
every workload in perfbench/workloads.py, one round of jobs and its warm-up
job are built once, into a temporary directory, with the perfbench of this
checkout and the polynov of A; every job runs with --format json. Then
`demo` and `approx` (in both formats), the error commands below, oracle
runs over rational classes, Z input, three or four orders and the window
limit (some on this checkout's tests/golden documents), and a text-format
run of every other subcommand run too. Each tree
replays the whole list in one fresh interpreter, one in-process
`polynov.cli.main` call after another as the benchmark makes them, so state
kept between calls shows up as a difference. The two interpreters run with
different hash seeds (PYTHONHASHSEED 1 and 2), so output that follows the
iteration order of a set or dict of strings shows up too; with A == B the
script is a determinism check. The script compares stdout,
stderr and exit code of each command, prints the command count and the
first differences, and exits 1 if any command differs. It reads perfbench/
but writes nothing there and no bytecode into either tree.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
GOLDEN = os.path.join(ROOT, "tests", "golden")

TORUS = {
    "coefficients": "Q",
    "rank": 2,
    "cells": [["v"], ["e1", "e2"], ["f"]],
    "boundaries": [[["t1 - 1", "t2 - 1"]], [["1 - t2"], ["t1 - 1"]]],
}


def _torus(first, second):
    """The torus document with the disc's two entries replaced."""
    return {**TORUS, "boundaries": [TORUS["boundaries"][0], [[first], [second]]]}


def _row(*entries, ring="Q", rank=2):
    return {
        "coefficients": ring,
        "rank": rank,
        "cells": [["v"], [f"e{j}" for j in range(len(entries))]],
        "boundaries": [[list(entries)]],
    }


# name -> document, or the text of one; each is run under validate and betti
ERROR_DOCUMENTS = {
    "corrupted": _torus("1 - t2", "t1 + 1"),
    "non-string": {**TORUS, "boundaries": [[["t1 - 1", 1]], TORUS["boundaries"][1]]},
    "unhashable": {**TORUS, "boundaries": [[["t1 - 1", ["t2"]]], TORUS["boundaries"][1]]},
    "rank-text": {**TORUS, "rank": "x"},
    "rank-10000": {"coefficients": "Q", "rank": 10000, "cells": [["v"]], "boundaries": []},
    "no-cells": {"coefficients": "Q", "rank": 1, "cells": [], "boundaries": []},
    "missing-field": {"coefficients": "Q", "rank": 1, "cells": [["v"]]},
    "duplicate-names": {**TORUS, "cells": [["v"], ["e", "e"], ["f"]]},
    "matrix-count": {**TORUS, "boundaries": TORUS["boundaries"][:1]},
    "row-length": {**TORUS, "boundaries": [[["t1 - 1"]], TORUS["boundaries"][1]]},
    "bad-factor": _torus("1 - t2*x", "t1 - 1"),
    "dangling-sign": _torus("1 - t2 +", "t1 - 1"),
    "empty-factor": _torus("1 - t2**2", "t1 - 1"),
    "out-of-range": _torus("1 - t3", "t1 - 1"),
    "bare-variable": _torus("1 - t", "t1 - 1"),
    "huge-decimal-exponent": _torus("t1^2*1e10000000", "t1 - 1"),
    "above-10-to-the-4300": _torus("1e4300*1e4300*t1 + 1", "t1 - 1"),
    "like-terms-above-the-bound": _row("1 + 1e4300*t1", "-1 + 1e4300*t1 + 1e4300*t1"),
    "fraction-over-z": _row("1/2*t1", "t2", ring="Z"),
    "even-denominator-mod-2": _row("1/2*t1", "t2", ring="Z2"),
    "repeated-bad-term": _torus("t2 + t1*x", "1 + t1*x"),
    "rank-3-t3": _row("t3 - 1", "t3^2 - t3", rank=3),
    "rank-2-t3": _row("t3 - 1", "t3^2 - t3", rank=2),
    "zero-mod-2": _row("2*t1 + t2", "t2 + 2*t1", "2*t1", ring="Z2"),
    "empty-object": {},
    # json.dump cannot write an int that str() cannot print
    "integer-literal-of-5000-digits":
        '{"coefficients": "Q", "rank": ' + "1" * 5000 + ', "cells": [["v"]], "boundaries": []}',
}

SHOWN = 5  # differences printed in full

# argv lists; "{name}" stands for the path of ERROR_DOCUMENTS[name], and
# "{golden/name}" for that of tests/golden/name
OTHER_COMMANDS = [
    ["betti", "no_such_thing", "--format", "json"],
    ["novikov", "torus", "--class", "1,2,3", "--format", "json"],
    ["betti", "torus", "--coefficients", "Z2", "--format", "json"],
    ["novikov", "torus", "--class", "1,0", "--order", "1000000000", "--format", "json"],
    ["nonsense", "--format", "json"],
    ["novikov", "circle", "--format", "json"],
    ["validate", "{not-json}", "--format", "json"],
    ["demo", "--format", "json"],
    ["demo"],
    # oracle windows: the doubled window of the first is above the limit
    ["novikov", "torus", "--class=1/1000,1", "--order", "64", "--format", "json"],
    ["novikov", "torus", "--class=1/1000,1", "--order", "32", "--format", "json"],
    ["novikov", "{golden/koszul3-Q.json}", "--class=1/7,1/11,1/13", "--order", "65",
     "--format", "json"],
    # oracle runs of three and four orders
    ["novikov", "{golden/hidden-Q.json}", "--class=1/2,1/3,1/5", "--order", "1",
     "--format", "json"],
    ["novikov", "{golden/hidden-Z2.json}", "--class=1,1,1", "--order", "2", "--format", "json"],
    ["novikov", "{golden/hidden-Q.json}", "--class=1,2,3", "--order", "3", "--format", "json"],
    ["novikov", "genus2", "--class=1,2,0,-1", "--format", "json"],
    ["novikov", "torus", "--class=2/3,-3/2", "--order", "5", "--format", "json"],
    ["novikov", "{golden/koszul3-Z.json}", "--class=1/7,1/11,1/13", "--order", "4",
     "--format", "json"],
    # approx in both formats, and the text format of every other subcommand
    ["approx", "--class=1/2,0,3", "--eps", "1/10", "--format", "json"],
    ["approx", "--class=1/2,0,3", "--eps", "1/10"],
    ["validate", "genus2"],
    ["betti", "genus2"],
    ["novikov", "genus2", "--class=0,0,0,0"],
    ["novikov", "genus2", "--class=1,2,0,-1"],
    ["polytope", "genus2", "--vertices", "1,0,0,0;0,1,0,0", "--restrict", "0"],
    ["main-check", "genus2", "--vertices", "1,0,0,0;0,1,0,0", "--a", "1,0",
     "--b", "1/2,1/2"],
    ["morse", "genus2"],
]


def build_commands(workdir, seeds):
    """(commands, job count): every job of one round of each workload at
    each seed, warm-ups included, then the other commands; the documents
    are written under workdir."""
    sys.path.insert(0, PERFBENCH)
    from workloads import WORKLOADS

    commands = []
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            where = os.path.join(workdir, f"{name}-{seed}")
            os.makedirs(where)
            warmup, jobs = workload.build(seed, where)
            commands += [list(job.argv) for job in (warmup, *jobs)]
    jobs = len(commands)
    paths = {"not-json": os.path.join(workdir, "not-json.json")}
    with open(paths["not-json"], "w") as fh:
        fh.write("{ not json")
    for name, document in ERROR_DOCUMENTS.items():
        paths[name] = os.path.join(workdir, f"error-{name}.json")
        with open(paths[name], "w") as fh:
            if isinstance(document, str):
                fh.write(document)
            else:
                json.dump(document, fh)
        for sub in ("validate", "betti"):
            commands.append([sub, paths[name], "--format", "json"])
    paths.update((f"golden/{name}", os.path.join(GOLDEN, name)) for name in os.listdir(GOLDEN))
    for argv in OTHER_COMMANDS:
        commands.append([paths[a[1:-1]] if a.startswith("{") else a for a in argv])
    return commands, jobs


def replay(commands):
    """(exit code, stdout, stderr) of each command, in one process, and
    the file polynov was imported from."""
    from polynov import cli

    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an outcome to compare
                code = f"raised {type(exc).__name__}: {exc}"
        results.append((code, out.getvalue(), err.getvalue()))
    return results, cli.__file__


def _child(tree, mode, payload, cwd, hash_seed=None):
    """Run this script in mode `mode` with tree/src first on the path, and
    under PYTHONHASHSEED=hash_seed when one is given."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    done = subprocess.run(
        [sys.executable, "-B", os.path.abspath(__file__), mode],
        input=json.dumps(payload), capture_output=True, text=True, env=env, cwd=cwd,
    )
    if done.returncode != 0:
        sys.exit(f"replay_identity: {mode} under {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _show(argv, side_a, side_b):
    lines = [f"  differs: {' '.join(argv)}"]
    for what, a, b in zip(("exit code", "stdout", "stderr"), side_a, side_b):
        if a != b:
            diff = difflib.unified_diff(
                str(a).splitlines(), str(b).splitlines(), "A", "B", lineterm="", n=1
            )
            lines += [f"    {what}:"] + [f"      {line}" for line in list(diff)[:20]]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="first source tree")
    parser.add_argument("b", help="second source tree")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    trees = [os.path.abspath(t) for t in (args.a, args.b)]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "polynov", "__init__.py")):
            sys.exit(f"replay_identity: no polynov sources under {tree}")

    with tempfile.TemporaryDirectory(prefix="replay-identity-") as workdir:
        request = {"workdir": workdir, "seeds": args.seeds}
        commands, jobs = _child(trees[0], "--build", request, workdir)
        outcomes = []
        for hash_seed, tree in enumerate(trees, 1):
            results, where = _child(tree, "--replay", commands, workdir, hash_seed)
            if not os.path.abspath(where).startswith(os.path.join(tree, "src") + os.sep):
                sys.exit(f"replay_identity: replayed polynov from {where}, not {tree}")
            outcomes.append([tuple(r) for r in results])

    differing = [i for i, (x, y) in enumerate(zip(*outcomes)) if x != y]
    print(f"{len(commands)} commands: {jobs} benchmark jobs at seeds "
          f"{', '.join(map(str, args.seeds))} and {len(commands) - jobs} others; "
          f"{sum('json' in c for c in commands)} with --format json")
    for i in differing[:SHOWN]:
        print(_show(commands[i], outcomes[0][i], outcomes[1][i]))
    if differing:
        print(f"{len(differing)} of {len(commands)} commands differ")
        return 1
    print("stdout, stderr and exit codes are identical")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--build"]:
        request = json.load(sys.stdin)
        json.dump(build_commands(request["workdir"], request["seeds"]), sys.stdout)
    elif sys.argv[1:] == ["--replay"]:
        json.dump(replay(json.load(sys.stdin)), sys.stdout)
    else:
        sys.exit(main())
