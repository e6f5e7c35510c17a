"""The four benchmark workloads, as lists of operations per round.

An operation is one closed-loop request to nckey: ``call`` is the timed part
and returns the raw output; ``check`` runs afterwards, outside the timed
region, and returns a ``Verdict`` plus the bytes that go into the output
digest.  Inputs depend only on the workload seed and the round index.

Why these workloads:

- ``paper-m2``: the paper's two-terminal shape at q=101, audited sessions at
  N = 2, 4 and 8 slots.  Field elimination dominates, and the N=2 to N=8 cost
  ratio shows how session cost grows with the slot count.  Each round also
  runs ``nckey simulate`` and the golden ``bounds`` sweep at this shape and
  the small ``nckey oracle`` sweep, so that ``cli_s`` exists here and every
  layer, the CMI oracle included, is exercised.
- ``paper-m2-bigq``: the same shape at q = 2**31 - 1, which takes the int64
  large-q paths (chunked products); a kernel that is fast only for small q
  must leave it unchanged.
- ``lattice-m3``: three asymmetric terminals with small matrices, where the
  127-selection feasibility sums and the exact Fraction simplex dominate.
- ``cli-small``: the README-size CLI runs, thousands of tiny eliminations, so
  per-call overhead dominates.

BENCHMARK.json lists only the two paper workloads.  A paper run needs two
rounds of about 19 s, and the gating runs of all listed workloads share a
fixed time budget that leaves no room for two more; the interpreter-bound
``lattice-m3`` and ``cli-small`` also spread more between runs on a shared
2-vCPU machine.  They stay runnable by name for manual comparison but do
not gate changes.

Each workload tags one pair of operation kinds ``lo`` and ``hi`` whose slot
counts differ by a factor of 4; ``slot_exponent`` is log(t_hi/t_lo)/log 4.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from benchmarks import checks

BIG_Q = 2**31 - 1
SLOT_RATIO = 4
GOLDEN = {
    15: "tests/data/bounds_na60_nb15_ne_sweep.csv",
    45: "tests/data/bounds_na60_nb45_ne_sweep.csv",
}


@dataclass(frozen=True)
class Shape:
    q: int
    ell: int
    na: int
    n: tuple[int, ...]
    ne: int

    def params(self, mods):
        return mods.channel.ChannelParams(
            mods.fieldmath.FieldCtx(self.q), self.ell, self.na, self.n, self.ne
        )

    def flags(self) -> list[str]:
        return ["--q", str(self.q), "--ell", str(self.ell), "--na", str(self.na),
                "--n", *map(str, self.n), "--ne", str(self.ne)]


@dataclass(frozen=True)
class Op:
    label: str
    kind: str  # "plan", "session" or "cli"
    call: Callable  # (mods, state) -> output
    check: Callable  # (output, state) -> (Verdict, digest bytes)
    tag: str | None = None  # "lo" / "hi": the slot-scaling pair
    per: int = 1  # sessions the operation runs (time per session = time / per)


WARMUP = 2**32 - 1  # round index of the warm-up operations


def _seed(seed: int, rnd: int, idx: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed % 2**64, rnd, idx])


def plan_op(shape: Shape) -> Op:
    def call(mods, state):
        alloc, value = mods.agreement.solve_allocation_lp_planned(
            mods.agreement.plan_dimensions(shape.params(mods))
        )
        state["alloc"] = alloc
        return alloc, value

    def check(out, state):
        alloc, value = out
        v = checks.Verdict()
        ref = checks.lp_reference(shape.na, list(shape.n), shape.ne)
        if abs(float(value) - ref) > 1e-9 * max(1.0, ref):
            v.problems.append(f"planned LP value {value} != reference {ref}")
        if alloc.min_terminal_total() != value:
            v.problems.append("allocation does not attain the LP value")
        return v, json.dumps([[m, str(s)] for m, s in alloc.items()] + [str(value)]).encode()

    return Op(f"plan-m{len(shape.n)}", "plan", call, check)


def session_op(shape: Shape, n_slots: int, ss: np.random.SeedSequence, tag=None) -> Op:
    def call(mods, state):
        return mods.agreement.run_session(
            shape.params(mods), n_slots, state["alloc"], np.random.default_rng(ss)
        )

    def check(result, state):
        shares = dict(state["alloc"].items())
        v = checks.check_session(result, shares, len(shape.n), n_slots)
        doc = result.to_json_dict()
        doc["terminal_subset_keys"] = [
            [mask, r, k.tolist()] for (mask, r), k in sorted(result.keys.terminal_subset_keys.items())
        ]
        return v, json.dumps(doc, sort_keys=True).encode()

    return Op(f"session-N{n_slots}", "session", call, check, tag)


def cli_op(label: str, argv: list[str], verify: Callable, tag=None, per: int = 1) -> Op:
    """``verify(text, state)`` returns the Verdict on the CLI's output."""

    def call(mods, state):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mods.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"nckey {argv[0]} exited with {rc}")
        return buf.getvalue()

    def check(text, state):
        return verify(text, state), text.encode()

    return Op(label, "cli", call, check, tag, per)


def golden_sweep_op(root: Path, nb: int, q: int = 101) -> Op:
    argv = ["bounds", "--q", str(q), "--ell", "70", "--na", "60", "--n", str(nb), str(nb),
            "--sweep", "ne:0:60", "--seed", "0"]
    golden = (root / GOLDEN[nb]).read_bytes() if q == 101 else None
    return cli_op(f"bounds-nb{nb}", argv, lambda t, _: checks.check_bounds(t, golden, 122))


def simulate_op(shape: Shape, slots: int, trials: int, seed: int, tag=None) -> Op:
    argv = ["simulate", *shape.flags(), "--slots", str(slots), "--trials", str(trials),
            "--seed", str(seed)]

    def verify(text, state):
        v, degenerate = checks.check_simulate(text, trials)
        if degenerate:
            # The artifact does not say why a session was degenerate: re-run
            # those sessions on the CLI's seed streams and confirm each one.
            mods = state["mods"]
            params = shape.params(mods)
            alloc, _ = mods.agreement.solve_allocation_lp_planned(mods.agreement.plan_dimensions(params))
            streams = np.random.default_rng(seed).spawn(trials)
            for i in degenerate:
                result = mods.agreement.run_session(params, slots, alloc, streams[i])
                problems = (
                    checks.degenerate_problems(result) if result.audit.degenerate
                    else ["re-run is not degenerate"]
                )
                v.problems += [f"session {i}: {p}" for p in problems]
            if v.problems:
                v.program_ok, v.degenerate = False, False
        return v

    return cli_op(f"simulate-s{slots}", argv, verify, tag, trials)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

PAPER = dict(ell=70, na=60, n=(45, 45), ne=15)
LATTICE = Shape(101, 16, 12, (6, 8, 9), 3)
README = Shape(101, 10, 6, (4, 4), 2)
LATTICE_BOUNDS = ["bounds", "--q", "101", "--ell", "70", "--na", "60", "--n", "15", "20", "25",
                  "--sweep", "ne:0:10"]
ORACLE = ["oracle", "--ell", "3", "--na", "2", "--n", "1", "--ne", "1", "--sweep", "q:2:5"]
ORACLE_ROWS = 3 * 3  # primes 2, 3, 5 times input dims 0..2


def oracle_op() -> Op:
    return cli_op("oracle", ORACLE, lambda t, _: checks.check_oracle(t, ORACLE_ROWS))


def _int_seed(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def paper_round(q: int):
    shape = Shape(q, **PAPER)

    def ops(root: Path, seed: int, rnd: int) -> list[Op]:
        # Three N=2 sessions around the others, so that the N=2 and N=8
        # timings see the same machine state; the CLI runs are spread out
        # for the same reason.
        return [
            plan_op(shape),
            session_op(shape, 2, _seed(seed, rnd, 1), "lo"),
            simulate_op(shape, 2, 2, _int_seed(_seed(seed, rnd, 2))),
            session_op(shape, 4, _seed(seed, rnd, 3)),
            session_op(shape, 2, _seed(seed, rnd, 4), "lo"),
            session_op(shape, 8, _seed(seed, rnd, 5), "hi"),
            session_op(shape, 2, _seed(seed, rnd, 6), "lo"),
            simulate_op(shape, 2, 2, _int_seed(_seed(seed, rnd, 7))),
            golden_sweep_op(root, 45, q),
            oracle_op(),
        ]

    def warmup(root: Path, seed: int) -> list[Op]:
        return [
            plan_op(shape),
            session_op(shape, 1, _seed(seed, WARMUP, 0)),
            cli_op("bounds-point", ["bounds", *shape.flags()], lambda t, _: checks.check_bounds(t)),
        ]

    return ops, warmup


def lattice_ops(root: Path, seed: int, rnd: int) -> list[Op]:
    ops = [plan_op(LATTICE)]
    for i in range(6):  # interleaved, as in cli_small_ops
        ops.append(session_op(LATTICE, 4, _seed(seed, rnd, 2 * i + 1), "hi"))
        ops.append(session_op(LATTICE, 1, _seed(seed, rnd, 2 * i + 2), "lo"))
    ops.append(cli_op("bounds-m3", LATTICE_BOUNDS, lambda t, _: checks.check_bounds(t, None, 22)))
    return ops


def lattice_warmup(root: Path, seed: int) -> list[Op]:
    # A zero allocation exercises the whole session path without the m=3 LP,
    # which is timed in the rounds.
    def zero_plan(mods, state):
        state["alloc"] = mods.agreement.SubsetAllocation(len(LATTICE.n), {})

    noop = Op("zero-alloc", "plan", zero_plan, lambda out, state: (checks.Verdict(), b""))
    return [
        noop,
        session_op(LATTICE, 1, _seed(seed, WARMUP, 0)),
        cli_op("bounds-point", ["bounds", "--q", "101", "--ell", "70", "--na", "60", "--n", "15"],
               lambda t, _: checks.check_bounds(t)),
    ]


def cli_small_ops(root: Path, seed: int, rnd: int) -> list[Op]:
    ops = []
    for i in range(3):  # interleaved, so both slot counts see the same machine state
        ops.append(simulate_op(README, 4, 100, _int_seed(_seed(seed, rnd, 2 * i)), "hi"))
        ops.append(simulate_op(README, 1, 100, _int_seed(_seed(seed, rnd, 2 * i + 1)), "lo"))
    ops += [oracle_op(), golden_sweep_op(root, 15), golden_sweep_op(root, 45)]
    return ops


def cli_small_warmup(root: Path, seed: int) -> list[Op]:
    return [
        simulate_op(README, 1, 2, _int_seed(_seed(seed, WARMUP, 0))),
        cli_op("oracle-point", ["oracle", "--q", "2", "--ell", "2", "--na", "1", "--n", "1"],
               lambda t, _: checks.check_oracle(t, 2)),
        cli_op("bounds-point", ["bounds", *README.flags()], lambda t, _: checks.check_bounds(t)),
    ]


@dataclass(frozen=True)
class Workload:
    round_ops: Callable  # (root, seed, round index) -> list[Op]
    warmup_ops: Callable  # (root, seed) -> list[Op]
    round_s: float  # typical round length; --seconds / round_s fixes the round count


WORKLOADS: dict[str, Workload] = {
    "paper-m2": Workload(*paper_round(101), 20.0),
    "paper-m2-bigq": Workload(*paper_round(BIG_Q), 20.0),
    "lattice-m3": Workload(lattice_ops, lattice_warmup, 10.0),
    "cli-small": Workload(cli_small_ops, cli_small_warmup, 9.5),
}
