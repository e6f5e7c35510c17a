"""nckey benchmark: one workload per invocation, one process, one thread.

    python3 benchmarks/run.py --workload paper-m2 --seed 1 --seconds 45 --trace 0

The run imports nckey from ``src/`` of the checkout it sits in and runs a
fixed number of rounds of the workload's operations in a closed loop, one
operation at a time: ``--seconds`` divided by the workload's typical round
length, and at least two, so that the number of samples does not depend on
the machine's load.  Before every round it sets up afresh (import plus
warm-up) several times, and ``setup_s`` is the median of all those set-ups.
Every operation's output is checked outside the timed region.  With
``--trace 1`` half of the rounds run traced, on the same inputs as the
untraced ones, and the run reports per-layer figures instead of end-to-end
ones; spans are written to ``.bench_out/``.

Standard output: one ``run_record`` JSON line (versions, thread caps, seed,
output digest, failures), then the result JSON line
``{"correct", "attempted", "failed", "metrics"}``.  An operation fails when
nckey raises, reports a failure itself, or produces output that fails a
check; ``correct`` turns false only when nckey reported an output as good
and the check found it wrong, or when tracing changed an output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
THREAD_CAP = str(min(2, NPROC))
for _var in THREAD_VARS:
    os.environ[_var] = THREAD_CAP
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402  (after the thread caps)

from benchmarks import tracer as tracing  # noqa: E402
from benchmarks.checks import Verdict  # noqa: E402
from benchmarks.workloads import SLOT_RATIO, WORKLOADS  # noqa: E402

SETUP_REPEATS = 8  # set-ups before each round

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {group: {m["name"]: m["unit"] for m in SPEC[group]} for group in ("end_to_end", "per_layer")}


class Modules:
    """The nckey modules of one import, looked up at call time so that the
    tracer's wrappers are seen."""

    def __init__(self):
        for name in tracing.LAYERS:
            setattr(self, name, importlib.import_module(f"nckey.{name}"))


def fresh_import() -> Modules:
    for name in [n for n in sys.modules if n == "nckey" or n.startswith("nckey.")]:
        del sys.modules[name]
    mods = Modules()
    origin = Path(mods.cli.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"nckey imported from {origin}, not from this checkout")
    return mods


def run_round(ops, mods, rnd=0, tracer=None):
    """Run the operations in order; returns (round seconds, per-op records,
    round state).  Each record is [op, seconds, output, error]; the state
    carries the modules for checks that re-run nckey."""
    state: dict = {"mods": mods}
    records = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = rnd * 1000 + i
        t0 = time.perf_counter()
        try:
            out, err = op.call(mods, state), None
        except (Exception, SystemExit) as exc:  # an operation boundary: count it and go on
            out, err = None, exc
        records.append([op, time.perf_counter() - t0, out, err])
    return time.perf_counter() - start, records, state


def check_round(records, state):
    """Checks every record outside the timed region; returns verdicts and the
    sha256 over the round's outputs."""
    digest = hashlib.sha256()
    verdicts = []
    for op, _, out, err in records:
        if err is not None:
            detail = "".join(traceback.format_exception_only(type(err), err)).strip()
            v, blob = Verdict(program_ok=False, problems=[f"raised {detail}"]), type(err).__name__.encode()
        else:
            v, blob = op.check(out, state)
        digest.update(op.label.encode() + b"\0" + hashlib.sha256(blob).digest())
        verdicts.append(v)
    return verdicts, digest.hexdigest()


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Phase:
    """Tallies of one measured phase.  Rounds are checked as they are added,
    so that their outputs are dropped and memory does not grow with the
    number of rounds.  Traced rounds are added after the tracer is removed,
    so that the checks leave no spans."""

    def __init__(self):
        self.walls: list[float] = []
        self.lo: list[float] = []  # seconds per session, "lo" slot count
        self.hi: list[float] = []
        self.cli: list[float] = []  # CLI seconds per round
        self.session_s = 0.0
        self.attempted = self.failed = self.silent = self.degenerate = 0
        self.verified_blocks = 0
        self.problems: list[str] = []
        self.digest = None  # sha256 over round 0's outputs

    def add_round(self, rnd: int, wall: float, records, state) -> None:
        verdicts, digest = check_round(records, state)
        if rnd == 0:
            self.digest = digest
        self.walls.append(wall)
        self.cli.append(sum(seconds for op, seconds, _, _ in records if op.kind == "cli"))
        for (op, seconds, _, _), v in zip(records, verdicts):
            if op.tag == "lo":
                self.lo.append(seconds / op.per)
            elif op.tag == "hi":
                self.hi.append(seconds / op.per)
            if op.kind == "session":
                self.session_s += seconds
            self.attempted += 1
            self.failed += v.failed
            self.silent += v.silent
            self.degenerate += v.degenerate
            self.verified_blocks += v.verified_blocks
            self.problems += [f"round {rnd} {op.label}: {p}" for p in v.problems[:3]]


def set_up(warmup_ops, seed: int, times: list[float]) -> Modules:
    """Import nckey afresh and run the warm-up operations; appends the time."""
    gc.collect()  # the module graph of the previous import goes first
    t0 = time.perf_counter()
    mods = fresh_import()
    _, records, _ = run_round(warmup_ops(ROOT, seed), mods)
    times.append(time.perf_counter() - t0)
    for op, _, _, err in records:
        if err is not None:
            raise RuntimeError(f"warm-up {op.label} failed") from err
    return mods


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    rounds = max(2, int(args.seconds // workload.round_s))
    n_traced = rounds // 2 if args.trace else 0

    # Every round starts from a fresh import plus warm-up, done SETUP_REPEATS
    # times, so that the median set-up spans the whole run rather than one
    # moment of the machine's load.
    setup_times: list[float] = []

    def set_up_round() -> Modules:
        for _ in range(SETUP_REPEATS):
            mods = set_up(workload.warmup_ops, args.seed, setup_times)
        return mods

    untraced = Phase()
    for rnd in range(rounds - n_traced):
        mods = set_up_round()
        untraced.add_round(rnd, *run_round(workload.round_ops(ROOT, args.seed, rnd), mods, rnd))
    phases = [untraced]
    spans_path = None
    if args.trace:
        tracer = tracing.Tracer()
        traced = Phase()
        for rnd in range(n_traced):
            mods = set_up_round()
            with tracer:
                timed = run_round(workload.round_ops(ROOT, args.seed, rnd), mods, rnd, tracer)
            traced.add_round(rnd, *timed)
        phases.append(traced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    silent = sum(p.silent for p in phases)
    degenerate = sum(p.degenerate for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    if args.trace and traced.digest != untraced.digest:
        silent += 1
        problems.append("traced round 0 output differs from the untraced one")

    if args.trace:
        group = "per_layer"
        metrics = tracing.layer_metrics(tracer.spans, n_traced)
        # A traced round is slower than an untraced one by less than the
        # round-to-round noise of a shared machine, so the overhead is the
        # calibrated cost of the wrappers that ran plus the output
        # verification the tracer does.
        metrics["trace.overhead_s"] = (
            len(tracer.spans) / n_traced * tracing.wrapper_cost() + metrics["trace.verify_s"]
        )
        metrics["session.key_blocks_per_s"] = (
            untraced.verified_blocks / untraced.session_s if untraced.session_s else 0.0
        )
        metrics["ops.attempted"] = attempted
        metrics["ops.failed"] = failed
        metrics["ops.degenerate"] = degenerate
    else:
        group = "end_to_end"
        metrics = {
            "setup_s": median(setup_times),
            "wall_s": median(untraced.walls),
            "session_s": median(untraced.hi),
            "slot_exponent": math.log(median(untraced.hi) / median(untraced.lo)) / math.log(SLOT_RATIO),
            "cli_s": median(untraced.cli),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(metrics) != set(METRICS[group]):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {group}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "setup_s": setup_times,
        "rounds": [len(p.walls) for p in phases],
        "round_walls_s": [p.walls for p in phases],
        "trace_wall_diff_s": median(traced.walls) - median(untraced.walls) if args.trace else None,
        "samples": {"lo": len(untraced.lo), "hi": len(untraced.hi)},
        "output_sha256": untraced.digest,
        "degenerate": degenerate,
        "problems": problems[:20],
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    print(json.dumps({"run_record": record}, sort_keys=True))
    result = {
        "correct": silent == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": METRICS[group][name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
