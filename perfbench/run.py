"""polynov benchmark: closed-loop CLI job streams with known answers.

    python3 perfbench/run.py --workload novikov-koszul --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; polynov is imported from ./src.
One client in one process calls ``polynov.cli.main(argv)`` with
``--format json``, and starts each job only after the previous one has
returned. Every answer is checked against the construction (see
workloads.py). Jobs run in whole rounds of a fixed mix until the run has
lasted about ``--seconds`` and holds at least 100 completed jobs.

Timings are reported at a reference machine speed: a fixed piece of
pure-Python work (``probe``) is timed between every two jobs, and each job's
wall time is scaled by ``PROBE_REFERENCE_S`` over the mean of the probes
taken just before and just after it. On a shared host the speed of a core
swings by up to 2x over tens of seconds; the scaling cancels that, while
anything that changes polynov's own cost still shows. The wall-clock
figures are printed beside the scaled ones.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs two rounds
untraced and then the same jobs traced, prints the per-layer metrics
(tracing.py) and writes the spans to .perfbench/spans-<workload>-<seed>.jsonl.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
MIN_COMPLETED = 100  # so that at least ten completed jobs lie beyond p90
# no job starts after this many seconds of a timed loop, so that set-up, the
# loop and one last job at its deadline end well within three minutes
MAX_LOOP_SECONDS = 120
# the traced run covers a fixed number of rounds, so that its per-layer
# totals compare across commits whatever their speed
TRACE_ROUNDS = 2
# the probe's wall time at the reference speed; a probe that takes this long
# leaves the timings as measured
PROBE_REFERENCE_S = 0.004


class _Deadline(BaseException):
    """Raised by SIGALRM inside a job that ran past its deadline."""


def _alarm(signum, frame):
    raise _Deadline


def probe():
    """Time a fixed piece of interpreter-bound work like polynov's own:
    products of dict-keyed polynomials with Fraction and int coefficients.
    It runs no polynov code, so a change to polynov does not move it."""
    start = time.perf_counter()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
    b = {(i, j): i - j + 1 for i in range(4) for j in range(4)}
    for _ in range(3):
        c = {}
        for (e1, f1), x in a.items():
            for (e2, f2), y in b.items():
                key = (e1 + e2, f1 + f2)
                c[key] = c.get(key, 0) + x * y
    return time.perf_counter() - start


def at_reference_speed(seconds, before, after):
    """``seconds`` of wall time, scaled to the reference speed by the probes
    taken just before and just after it."""
    return seconds * PROBE_REFERENCE_S / ((before + after) / 2)


def timed_at_reference_speed(step):
    """Run ``step()`` between two probes; returns (seconds at the reference
    speed, wall seconds, what ``step`` returned)."""
    before = probe()
    start = time.perf_counter()
    value = step()
    wall = time.perf_counter() - start
    return at_reference_speed(wall, before, probe()), wall, value


def fresh_import():
    """Start a new interpreter that imports polynov's CLI and exits: the
    start of a workload process up to its first use of polynov."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import polynov.cli"
    subprocess.run([sys.executable, "-c", code], check=True)


def _load_polynov():
    if not os.path.isfile(os.path.join(SRC, "polynov", "__init__.py")):
        sys.exit(f"perfbench: no polynov sources under {SRC}")
    sys.path.insert(0, SRC)
    import polynov.cli

    if not os.path.abspath(polynov.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported polynov from {polynov.cli.__file__}, not {SRC}")
    return polynov.cli


# ---------------------------------------------------------------------------
# one job


def answer(argv, payload):
    """The part of a report that the construction pins down."""
    sub = argv[0]
    if sub == "validate":
        return tuple(payload["cells"])
    if sub == "main-check":
        return payload["ok"], tuple(payload["betti"])
    return tuple(payload["report"]["betti"])


def inexact(payload) -> bool:
    """True when any report in the payload says ``rank_exact: false``."""
    if isinstance(payload, dict):
        if payload.get("rank_exact") is False:
            return True
        return any(inexact(v) for v in payload.values())
    if isinstance(payload, list):
        return any(inexact(v) for v in payload)
    return False


def _error_type(stderr):
    try:
        return json.loads(stderr)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return None


class Result(NamedTuple):
    label: str
    seconds: float  # wall time
    status: str  # ok | wrong | deadline | exit-<code>[:<error>] | raised:<type>
    inexact: bool
    ref_seconds: float = 0.0  # wall time at the reference speed


def run_job(cli, job, deadline):
    """One closed-loop call; the deadline is enforced with SIGALRM."""
    out, err = io.StringIO(), io.StringIO()
    code, status = None, None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Deadline:
        status = "deadline"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback out of the library fails the job
        status = f"raised:{type(exc).__name__}"
    seconds = time.perf_counter() - start
    if status is not None:
        return Result(job.label, seconds, status, False)
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    if code != 0 or payload is None:
        error = _error_type(err.getvalue())
        status = f"exit-{code}" + (f":{error}" if error else "")
        return Result(job.label, seconds, status, False)
    right = answer(job.argv, payload) == job.expect
    return Result(job.label, seconds, "ok" if right else "wrong", inexact(payload))


# ---------------------------------------------------------------------------
# loops


def round_order(jobs, seed, index):
    order = list(jobs)
    random.Random(f"{seed}:{index}").shuffle(order)
    return order


def run_rounds(cli, jobs, deadline, seconds, seed):
    """Replay the round, reshuffled, until about ``seconds`` have passed and
    MIN_COMPLETED jobs completed, with a probe between every two jobs.
    Returns (results, wall seconds).

    A job cut at its deadline keeps its wall time as its reference time:
    the deadline is a wall-clock limit, whatever the speed of the machine."""
    results = []
    start = time.perf_counter()
    rounds = 0
    before = probe()
    while True:
        for job in round_order(jobs, seed, rounds):
            if time.perf_counter() - start >= MAX_LOOP_SECONDS:
                return results, time.perf_counter() - start
            result = run_job(cli, job, deadline)
            after = probe()
            ref = result.seconds
            if result.status != "deadline":
                ref = at_reference_speed(result.seconds, before, after)
            results.append(result._replace(ref_seconds=ref))
            before = after
        rounds += 1
        elapsed = time.perf_counter() - start
        completed = sum(r.status == "ok" for r in results)
        if elapsed + elapsed / rounds / 2 >= seconds and completed >= MIN_COMPLETED:
            return results, elapsed


def replay(cli, sequence, deadline, tracer=None):
    results = []
    start = time.perf_counter()
    for index, job in enumerate(sequence):
        if tracer is not None:
            tracer.job = index
        results.append(run_job(cli, job, deadline))
    return results, time.perf_counter() - start


# ---------------------------------------------------------------------------
# reports


def machine_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()}, "
            f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}")


def print_breakdown(results):
    by_label = {}
    for r in results:
        row = by_label.setdefault(r.label, {})
        row[r.status] = row.get(r.status, 0) + 1
    for label in sorted(by_label):
        cells = " ".join(f"{k}={v}" for k, v in sorted(by_label[label].items()))
        print(f"    {label:<36} {cells}")


def print_result(correct, attempted, failed, metrics):
    """The machine-read last line; ``metrics`` maps name -> (value, unit)."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def p90_of(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def report_end_to_end(results, wall, setup, warm_ok):
    """``setup`` is (set-up seconds at the reference speed, wall seconds)."""
    done = [r.ref_seconds for r in results if r.status == "ok"]
    if not done:
        sys.exit("perfbench: no job completed")
    done_wall = [r.seconds for r in results if r.status == "ok"]
    attempted = len(results)
    failed = attempted - len(done)
    wrong = sum(r.status == "wrong" for r in results)
    p90 = p90_of(done)
    beyond = sum(t > p90 for t in done)
    jobs_s = sum(r.ref_seconds for r in results)
    metrics = {
        "jobs_per_s": (len(done) / jobs_s, "1/s"),
        "job_s_p50": (statistics.median(done), "s"),
        "job_s_p90": (p90, "s"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall_clock = {
        "jobs_per_s": len(done) / wall,
        "job_s_p50": statistics.median(done_wall),
        "job_s_p90": p90_of(done_wall),
        "setup_s": setup[1],
    }
    print(f"  jobs: {attempted} attempted, {len(done)} completed, {failed} failed "
          f"({wrong} wrong) in {wall:.2f} s wall, {jobs_s:.2f} s of jobs at the "
          f"reference speed; percentiles over {len(done)} completed jobs, "
          f"{beyond} beyond p90")
    if beyond < 10:
        print("  WARNING: fewer than ten completed jobs beyond p90")
    print(f"  {'':<13} {'reference':>10}  {'wall clock':>10}")
    for name, (value, unit) in metrics.items():
        raw = f"{wall_clock[name]:10.6g}" if name in wall_clock else f"{'':10}"
        print(f"  {name:<13} {value:10.6g}  {raw} {unit}")
    inexact_jobs = sum(r.inexact for r in results if r.status == "ok")
    print(f"  {'fail_frac':<13} {failed / attempted:.6g}")
    print(f"  {'wrong_frac':<13} {wrong / attempted:.6g}")
    print(f"  {'inexact_frac':<13} {inexact_jobs / len(done):.6g}")
    print_breakdown(results)
    print_result(wrong == 0 and warm_ok, attempted, failed, metrics)


def traced_run(cli, workload, jobs, args, warm_ok):
    from tracing import Tracer, metric_specs

    sequence = [
        job
        for index in range(TRACE_ROUNDS)
        for job in round_order(jobs, args.seed, index)
    ]
    untraced, untraced_wall = replay(cli, sequence, workload.deadline)
    tracer = Tracer()
    with tracer:
        traced, traced_wall = replay(cli, sequence, workload.deadline, tracer)
    tracer.write(os.path.join(WORKDIR, f"spans-{workload.name}-{args.seed}.jsonl"))

    values = tracer.layer_metrics()
    values["trace.jobs"] = len(sequence)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    failed = sum(r.status != "ok" for r in traced)
    wrong = sum(r.status == "wrong" for r in untraced + traced)
    print(f"  traced {len(traced)} jobs ({failed} failed; {wrong} wrong in both "
          f"passes) in {traced_wall:.2f} s; untraced {untraced_wall:.2f} s")
    print_breakdown(traced)
    specs = metric_specs()
    leaders = sorted(
        ((values[n], n) for n, _, _ in specs if n.endswith(".self_s")), reverse=True
    )[:5]
    print("  largest self times: " + ", ".join(f"{n} {v:.3f} s" for v, n in leaders))
    for name, unit, _ in specs:
        print(f"  {name:<44} {values[name]:.6g} {unit}")
    print_result(wrong == 0 and warm_ok, len(traced), failed,
                 {n: (values[n], u) for n, u, _ in specs})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _load_polynov()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)

    workdir = os.path.join(WORKDIR, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # set-up: import polynov in a fresh interpreter, then write the
        # documents and run one untimed warm-up job; each step is repeated and
        # timed between probes, so that set-up time is a sum of medians at the
        # reference speed, not of single noisy samples
        imports = [timed_at_reference_speed(fresh_import) for _ in range(SETUP_REPEATS)]

        def build_and_warm_up():
            warmup, jobs = workload.build(args.seed, workdir)
            return jobs, run_job(cli, warmup, workload.deadline).status == "ok"

        setups = [timed_at_reference_speed(build_and_warm_up)
                  for _ in range(SETUP_REPEATS)]
        jobs = setups[-1][2][0]
        warm_ok = all(ok for _, _, (_, ok) in setups)
        setup = tuple(
            statistics.median(t[i] for t in imports) + statistics.median(t[i] for t in setups)
            for i in (0, 1)
        )

        print(f"perfbench {workload.name}: seed {args.seed}, seconds {args.seconds:g}, "
              f"trace {args.trace}, deadline {workload.deadline:g} s/job, "
              f"{len(jobs)} jobs per round")
        print(f"  machine: {machine_facts()}")
        print("  set-up at the reference speed (wall clock): fresh import "
              + ", ".join(f"{r:.3f} ({w:.3f})" for r, w, _ in imports)
              + " s; documents and warm-up "
              + ", ".join(f"{r:.3f} ({w:.3f})" for r, w, _ in setups) + " s")
        if args.trace:
            traced_run(cli, workload, jobs, args, warm_ok)
            return 0
        results, wall = run_rounds(cli, jobs, workload.deadline, args.seconds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_end_to_end(results, wall, setup, warm_ok)
    return 0


if __name__ == "__main__":
    sys.exit(main())
