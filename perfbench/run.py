#!/usr/bin/env python3
"""Benchmark of the knotcert command line on seeded, generated corpora.

    python3 perfbench/run.py --workload corpus-report --seed 1 --seconds 20 --trace 0

Run it from the root of a knotcert checkout.  It needs only the standard
library and the package sources under src/; it writes only under
.perfbench_work/ and the __pycache__ directories Python makes.

Workloads (see workloads.py for the inputs):

* corpus-report: one ``knotcert report --out --plot`` over ~200 rows of
  genus <= 3 with small entries, a few of them rows ``validate`` rejects.
  The batch user: parsing, validation, emission and the error-row path all
  run per entry, while inertia at n <= 6 takes most of the time.
* genus-ladder: one ``knotcert certify`` per knot, over T(2,2k+1) for rising
  k and twisted block sums of rising genus with large entries.  The user
  with one big knot: plateau inertia takes most of the time.
* roots-hires: one ``knotcert roots --refine-bits 320`` per knot, over
  T(2,2k+1) and block sums with repeated factors.  Sturm/Yun isolation does
  the work; signature_profile never runs, so an inertia change should not
  move this workload.

A round runs every invocation of the workload once, one child process at a
time.  With ``--trace 0`` rounds repeat until ``--seconds`` have passed and
the end-to-end metrics are printed:

* setup_s: median over fresh interpreters of ``import knotcert`` plus
  ``parse_corpus`` of the workload's inputs, with no certification;
  one sample before each round and three before the first;
* wall_s: wall time of a round, as the sum over its invocations of the
  median over rounds of that invocation's wall time;
* entries_per_s: corpus entries per round divided by wall_s;
* entry_p50_s: median over invocations of wall time per entry it holds
  (for single-knot invocations, the time of one knot), with the sample count;
* peak_rss_mib: largest peak RSS of any child process.

The times (and entries_per_s) are scaled to a nominal machine speed: a fixed
pure-Python loop is timed next to every child process, and each time is
multiplied by REF_NOMINAL_S over the run's median loop time.  A shared host
drifts in speed by tens of percent over minutes, and the loop drifts with
it, so the scaled figures compare across runs; the raw ones are printed too.

failed_frac (entries whose output or exit code is wrong, over entries
attempted) is printed too; the result line carries it as ``failed`` and
``attempted``.

With ``--trace 1`` one untraced round runs in child processes, then rounds
run in-process through ``knotcert.cli.main`` (the code path of
``python -m knotcert``), alternately untraced and traced, until ``--seconds``
have passed (at least one untraced and two traced).  Traced rounds record
spans around the public functions of each layer (tracing.py) and give the
per-layer metrics; their artifacts must be byte-identical to the untraced
ones, their counts must repeat exactly, and their span structure is
asserted per workload.  trace.overhead_s is the median traced round minus
the median untraced in-process round; it reads below zero when tracing costs
less than the machine's round-to-round noise.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import tracing
import workloads

WORK = Path(".perfbench_work")
SRC = Path("src")
SETUP_REPS = 3
INVOCATION_TIMEOUT_S = 60.0
SETUP_CODE = (
    "import sys, knotcert\n"
    "from knotcert.corpus import parse_corpus\n"
    "for path in sys.argv[1:]:\n"
    "    parse_corpus(path)\n"
)

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# A shared host's CPU speed drifts by tens of percent over minutes, and a
# pure-Python loop slows down with it.  End-to-end timings are scaled by
# REF_NOMINAL_S over the run's median time of that loop, so they read as if
# the loop took REF_NOMINAL_S, its typical median in this benchmark on the
# 2-core Xeon host the baseline comes from.
REF_LOOP = 300_000
REF_NOMINAL_S = 0.032


@dataclass
class Outcome:
    """What one command-line invocation did."""

    wall: float
    code: int | None  # None when it timed out
    stdout: str
    artifacts: dict[str, bytes]

    @property
    def bytes_out(self) -> int:
        return len(self.stdout.encode("utf-8")) + sum(len(b) for b in self.artifacts.values())


def cli_args(inv: workloads.Invocation, path: Path, out: Path) -> list[str]:
    if inv.command == "report":
        return ["report", "--input", str(path), "--out", str(out / "report.json"), "--plot", str(out / "plots")]
    if inv.command == "roots":
        return ["roots", "--input", str(path), "--refine-bits", str(inv.refine_bits)]
    return ["certify", "--input", str(path)]


def write_inputs(invocations) -> list[Path]:
    paths = []
    for i, inv in enumerate(invocations):
        path = WORK / "inputs" / f"{i:03d}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": k.name, "seifert": k.seifert} for k in inv.knots]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def _fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(SRC.resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _expire(signum, frame):
    raise TimeoutError


def _wait(proc: subprocess.Popen) -> int | None:
    """Exit code of ``proc``, or None after killing it at the timeout.

    ``Popen.wait(timeout=...)`` polls with sleeps of up to 50 ms, which would
    round every wall time up to that grain; a blocking wait cut short by an
    alarm signal returns as soon as the child ends.
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
    try:
        return proc.wait()
    except TimeoutError:
        proc.kill()
        proc.wait()
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_child(argv: list[str], out: Path, env) -> Outcome:
    _fresh_dir(out)
    stdout_path = out.with_suffix(".stdout")
    with open(stdout_path, "wb") as so:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "knotcert", *argv], stdout=so, stderr=subprocess.DEVNULL, env=env
        )
        code = _wait(proc)
        wall = time.perf_counter() - start
    return Outcome(wall, code, stdout_path.read_text(encoding="utf-8"), _artifacts(out))


def run_inprocess(cli, argv: list[str], out: Path) -> Outcome:
    _fresh_dir(out)
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    return Outcome(wall, code, buf.getvalue(), _artifacts(out))


def reference_s() -> float:
    """Wall time of the fixed loop that gauges the machine's current speed."""
    start = time.perf_counter()
    sum(i * i % 7 for i in range(REF_LOOP))
    return time.perf_counter() - start


def measure_setup(paths: list[Path], env) -> float:
    """Wall time of one fresh interpreter importing knotcert and parsing the inputs."""
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, paths)]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True)
    return time.perf_counter() - start


class Ledger:
    """Entries attempted and failed, checked against the generators and round 0."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.reference: list[Outcome] | None = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, outcomes: list[Outcome]) -> None:
        if self.reference is None:
            self.reference = outcomes
        for inv, o, ref in zip(self.invocations, outcomes, self.reference):
            n = len(inv.knots)
            if o.code != check.expected_exit_code(inv):
                failures = [f"exit code {o.code}, expected {check.expected_exit_code(inv)}"]
            elif (o.stdout, o.artifacts) != (ref.stdout, ref.artifacts):
                failures = ["output differs from the first untraced round"]
            else:
                failures = check.CHECKS[inv.command](inv, o.stdout, o.artifacts)
            self.attempted += n
            self.failed += min(len(failures), n)
            self.messages.extend(f"{label}: {m}" for m in failures)


def run_round(invocations, paths, label: str, runner) -> list[Outcome]:
    out_root = WORK / "out" / label
    return [
        runner(cli_args(inv, path, out_root / f"{i:03d}"), out_root / f"{i:03d}", i)
        for i, (inv, path) in enumerate(zip(invocations, paths))
    ]


def end_to_end(invocations, rounds: list[list[Outcome]], setup: list[float], scale: float):
    """End-to-end metrics with times multiplied by ``scale``, the raw ones, and the sample count."""
    entries = sum(len(inv.knots) for inv in invocations)
    # a median per invocation, so a slow spell must cover most rounds of an
    # invocation to move the result
    wall = sum(statistics.median(r[i].wall for r in rounds) for i in range(len(invocations)))
    per_entry = [o.wall / len(inv.knots) for r in rounds for inv, o in zip(invocations, r)]
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "entries_per_s": entries / wall,
        "entry_p50_s": statistics.median(per_entry),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    scaled = dict(raw)
    for name in ("setup_s", "wall_s", "entry_p50_s"):
        scaled[name] = raw[name] * scale
    scaled["entries_per_s"] = raw["entries_per_s"] / scale
    return scaled, raw, len(per_entry)


def structure_errors(workload: str, counts: dict, valid_entries: int) -> list[str]:
    calls = counts["calls"]
    errors = []
    if workload == "roots-hires":
        for name in ("inertia.signature_profile", tracing.CERTIFY):
            if calls.get(name, 0):
                errors.append(f"{calls[name]} {name} spans, expected 0")
    elif calls.get(tracing.CERTIFY, 0) != valid_entries:
        errors.append(f"{calls.get(tracing.CERTIFY, 0)} certify spans for {valid_entries} valid entries")
    return errors


def traced_rounds(workload, invocations, paths, ledger: Ledger, seconds: float):
    """Alternate untraced and traced in-process rounds; per-layer metrics and errors."""
    sys.path.insert(0, str(SRC.resolve()))
    cli = importlib.import_module("knotcert.cli")
    valid = sum(k.expected is not None for inv in invocations for k in inv.knots)
    plain_walls, traced_walls, per_round, errors = [], [], [], []
    first_counts = tracer = None
    start = time.perf_counter()
    while len(traced_walls) < 2 or time.perf_counter() - start < seconds:
        # the second traced round, needed to compare counts, goes alone when
        # time is up
        if not plain_walls or time.perf_counter() - start < seconds:
            plain = run_round(invocations, paths, "inprocess", lambda a, o, i: run_inprocess(cli, a, o))
            ledger.record("in-process", plain)
            plain_walls.append(sum(o.wall for o in plain))

        tracer = tracing.Tracer()

        def traced_run(argv, out, i):
            tracer.reset(i)
            return run_inprocess(cli, argv, out)

        with tracer.installed():
            outs = run_round(invocations, paths, "traced", traced_run)
        ledger.record("traced", outs)
        wall = sum(o.wall for o in outs)
        traced_walls.append(wall)
        per_round.append(tracing.layer_metrics(tracer, valid, wall, sum(o.bytes_out for o in outs)))
        counts = tracer.counts()
        if first_counts is None:
            first_counts = counts
            errors.extend(structure_errors(workload, counts, valid))
        elif counts != first_counts:
            errors.append(f"traced round {len(traced_walls)} counts differ from the first")
    (WORK / "trace_spans.json").write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")

    # counts are ints and repeat exactly; timings and ratios take the median
    metrics = {
        name: value if isinstance(value, int) else statistics.median(r[name] for r in per_round)
        for name, value in per_round[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return metrics, len(traced_walls), errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "knotcert" / "__init__.py").is_file():
        print("error: run from the root of a knotcert checkout (no src/knotcert)", file=sys.stderr)
        return 2

    _fresh_dir(WORK)
    invocations = workloads.build(args.workload, args.seed)
    paths = write_inputs(invocations)
    env = child_env()
    ledger = Ledger(invocations)

    speed: list[float] = []  # reference loop times, one next to every timed child

    def setup_sample() -> float:
        speed.append(reference_s())
        return measure_setup(paths, env)

    def child(argv, out, i) -> Outcome:
        speed.append(reference_s())
        return run_child(argv, out, env)

    measure_setup(paths, env)  # fills the bytecode cache, which users pay for once
    setup = [setup_sample() for _ in range(SETUP_REPS)]
    rounds = []
    start = time.perf_counter()
    while not rounds or (not args.trace and time.perf_counter() - start < args.seconds):
        # set-up samples spread over the run, so a slow spell of the machine
        # weighs on them no more than on the rounds
        setup.append(setup_sample())
        outs = run_round(invocations, paths, "child", child)
        ledger.record("child", outs)
        rounds.append(outs)
    scale = REF_NOMINAL_S / statistics.median(speed)
    e2e, raw, samples = end_to_end(invocations, rounds, setup, scale)

    layers, traced, errors = {}, 0, []
    if args.trace:
        layers, traced, errors = traced_rounds(args.workload, invocations, paths, ledger, args.seconds)

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    entries = sum(len(inv.knots) for inv in invocations)
    print(
        f"workload {args.workload}  seed {args.seed}  entries/round {entries}  "
        f"child rounds {len(rounds)}  traced rounds {traced}  "
        f"python {platform.python_version()}  nproc {os.cpu_count()}"
    )
    print(f"reference loop median {statistics.median(speed):.6f} s over {len(speed)} samples; "
          f"times scaled by {scale:.4f}")
    for name, value in e2e.items():
        note = f"  (raw {raw[name]:.6f})" if value != raw[name] else ""
        if name == "entry_p50_s":
            note += f"  (n = {samples} invocations)"
        print(f"{name:<46} {value:>14.6f} {units[name]}{note}")
    print(f"{'failed_frac':<46} {ledger.failed / ledger.attempted:>14.6f} fraction  "
          f"({ledger.failed} of {ledger.attempted} entries)")
    for name, value in layers.items():
        print(f"{name:<46} {value:>14.6f} {units[name]}")
    for message in (ledger.messages + errors)[:20]:
        print(f"FAIL {message}")

    chosen = layers if args.trace else e2e
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(chosen) != sorted(declared):
        raise RuntimeError(f"metrics {sorted(chosen)} differ from BENCHMARK.json {sorted(declared)}")
    result = {
        "correct": ledger.failed == 0 and not errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
