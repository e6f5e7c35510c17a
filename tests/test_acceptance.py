"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see them on success).  Criteria 1-5 and 7 are exact or
exhaustive; criterion 6 audits 100 seeded sessions.  Each line shows the
criterion's wall-clock time, which no verdict reads: the benchmark gates time."""

import itertools
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from nckey.agreement import plan_dimensions, run_session, solve_allocation_lp_planned
from nckey.bounds import (
    asymptotic_cmi_coefficient,
    best_uniform_input_cmi,
    generic_dims,
    upper_bound,
)
from nckey.channel import ChannelParams, matrix_transition_prob, subspace_transition_prob
from nckey.cli import main as cli_main
from nckey.fieldmath import FieldCtx, MatrixFq, rank
from nckey.subspaces import span_of
from references import certify_zero_leakage, dims_law, exhaustive_leakage_check

DATA = Path(__file__).parent / "data"


def _report(num: int, name: str, ok: bool, t0: float, detail: str = ""):
    """Print the criterion's line, with its wall-clock time since t0, and
    assert its verdict, which does not read that time."""
    detail = f"({detail}{', ' if detail else ''}{time.perf_counter() - t0:.2f}s)"
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def _params(q, ell, na, n, ne):
    return ChannelParams(FieldCtx(q), ell, na, tuple(n), ne)


def test_criterion_1_single_receiver_capacity_match():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n_a in range(1, 7):
        for n_b in range(0, n_a + 1):
            for n_e in range(0, n_a + 1):
                for ell in range(n_a + 1, 13):
                    # the lower side is the planned allocation LP, in absolute
                    # units, with the source reduced to the cut
                    p = _params(101, ell, n_a, [n_b], n_e)
                    reduced = max(1, min(n_a, n_b + n_e))
                    plan = plan_dimensions(_params(101, ell, reduced, [n_b], n_e))
                    _, value = solve_allocation_lp_planned(plan)
                    ok &= upper_bound(p) == value * (ell - reduced)
                    checked += 1
    _report(1, "m=1 lower equals upper bound after source reduction", ok, t0, f"{checked} grid points")


def _upper_formula(na, ns, ne, ell):
    vals = []
    for ni in ns:
        cut = min(na, ni + ne)
        vals.append(max(cut - ne, 0) * (ell - cut))
    return Fraction(min(vals))


def _symmetric_lower_normalized(na, nb, ne):
    u_single = max(nb - max(2 * nb - na, 0) - max(nb + ne - na, 0), 0)
    u_shared = min(na - ne, max(2 * nb - na, 0))
    return min(Fraction(u_single + u_shared), Fraction(na + u_shared - ne, 2))


def test_criterion_2_symmetric_lp_matches_closed_form(tmp_path):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n_a in range(1, 13):
        for n_b in range(0, n_a + 1):
            for n_e in range(0, n_a + 1):
                p = _params(101, n_a + 1, n_a, [n_b, n_b], n_e)
                _, value = solve_allocation_lp_planned(plan_dimensions(p))
                ok &= value == _symmetric_lower_normalized(n_a, n_b, n_e)
                checked += 1

    # golden sweep families: regenerate byte-exact, then verify every row
    # against a direct formula evaluation
    for nb, fname in ((15, "bounds_na60_nb15_ne_sweep.csv"), (45, "bounds_na60_nb45_ne_sweep.csv")):
        out = tmp_path / fname
        cli_main(
            ["bounds", "--q", "101", "--ell", "70", "--na", "60", "--n", str(nb), str(nb),
             "--sweep", "ne:0:60", "--seed", "0", "--out", str(out)]
        )
        golden = (DATA / fname).read_bytes()
        ok &= out.read_bytes() == golden
        lines = golden.decode().splitlines()
        cols = lines[1].split(",")
        idx = {c: i for i, c in enumerate(cols)}
        rows = [line.split(",") for line in lines[2:]]
        ok &= len(rows) == 2 * 61
        for r in rows:
            ne = int(r[idx["ne"]])
            upper_abs = _upper_formula(60, [nb, nb], ne, 70)
            lower_norm = _symmetric_lower_normalized(60, nb, ne)
            if r[idx["normalization"]] == "absolute":
                ok &= Fraction(r[idx["upper_coeff"]]) == upper_abs
                ok &= Fraction(r[idx["lower_coeff"]]) == lower_norm * 10
            else:
                ok &= Fraction(r[idx["upper_coeff"]]) == Fraction(upper_abs, 10)
                ok &= Fraction(r[idx["lower_coeff"]]) == lower_norm
            checked += 1
    _report(2, "m=2 allocation LP equals symmetric closed form (grid + golden sweeps)", ok, t0, f"{checked} checks")


def _generic_chance(q: int, n: int) -> Fraction:
    """The probability that 2 or 3 (each half the time) independent uniform
    subspaces of F_q^n, each of a uniform dimension in [0, n], are in generic
    position, exactly by the meet law (``dims_law``)."""
    laws = {dims: dims_law(dims, n, q) for k in (2, 3) for dims in itertools.product(range(n + 1), repeat=k)}
    return sum(Fraction(law[generic_dims(d, n)], sum(law.values()) * 2 * (n + 1) ** len(d)) for d, law in laws.items())


def test_criterion_3_generic_position_statistics():
    t0 = time.perf_counter()
    chance_101, chance_1009 = _generic_chance(101, 8), _generic_chance(1009, 8)
    _report(3, "generic-position dimension predictions hold w.h.p. (exact probability)",
            chance_101 >= Fraction(95, 100) and chance_1009 >= Fraction(99, 100), t0,
            f"q=101: {float(chance_101):.4f}, q=1009: {float(chance_1009):.4f}")


def test_criterion_4_exhaustive_secrecy():
    t0 = time.perf_counter()
    ctx = FieldCtx(2)
    n_a, ell = 2, 4
    certified = rejected = 0
    ok = True
    eve_coeffs = [
        MatrixFq(np.array(g, dtype=np.int64).reshape(1, n_a), ctx)
        for g in itertools.product(range(2), repeat=n_a)
    ]
    for g in eve_coeffs:
        for k in (1, 2, 3):
            for c_entries in itertools.product(range(2), repeat=k * n_a):
                c = MatrixFq(np.array(c_entries, dtype=np.int64).reshape(k, n_a), ctx)
                if certify_zero_leakage(c, g):
                    independent, mi = exhaustive_leakage_check(c, g, ell)
                    ok &= independent and mi == 0.0
                    certified += 1
                else:
                    rejected += 1
    _report(4, "rank certificate implies exactly zero leakage (exhaustive)", ok and certified > 0 and rejected > 0,
            t0, f"{certified} certified, {rejected} rejected")


def test_criterion_5_oracle_trend():
    import math

    t0 = time.perf_counter()
    coeff = asymptotic_cmi_coefficient(_params(2, 3, 2, [1], 1))
    normalized = []
    for q in (2, 3, 5):
        p = _params(q, 3, 2, [1], 1)
        cmi, _ = best_uniform_input_cmi(p)
        normalized.append(cmi / math.log(q))
    ok = (
        coeff == 1
        and normalized[0] <= normalized[1] <= normalized[2]
        and all(v <= coeff for v in normalized)
        and normalized[2] >= 0.85 * coeff
    )
    vals = ", ".join(f"{v:.4f}" for v in normalized)
    _report(5, "exact CMI trend toward the asymptotic coefficient", ok, t0, f"[{vals}]")


def test_criterion_6_end_to_end_sessions():
    t0 = time.perf_counter()
    p = _params(101, 10, 6, [4, 4], 2)
    n_slots = 4
    alloc, lp_value = solve_allocation_lp_planned(plan_dimensions(p))
    counts = alloc.floor_scaled(n_slots)
    want = Fraction(
        min(sum(c for mask, c in counts.items() if mask >> r & 1) for r in range(2)), n_slots
    )
    rng = np.random.default_rng(20250901)
    degenerate = 0
    ok = True
    for stream in rng.spawn(100):
        res = run_session(p, n_slots, alloc, stream)
        if res.audit.degenerate:
            degenerate += 1
            continue
        a = res.audit
        ok &= bool(a.subset_agreement and a.final_agreement)
        ok &= bool(a.leakage_certificate)
        ok &= a.achieved_per_slot == want
    _report(6, "end-to-end sessions: agreement, zero-leakage certificate, rate", ok and degenerate <= 5, t0,
            f"lp value {lp_value}, degenerate {degenerate}/100")


def test_criterion_7_channel_law_consistency():
    t0 = time.perf_counter()
    ctx = FieldCtx(2)

    def matrices(rows, cols):
        return [
            MatrixFq(np.array(e, dtype=np.int64).reshape(rows, cols), ctx)
            for e in itertools.product(range(2), repeat=rows * cols)
        ]

    outs = {n_r: matrices(n_r, 3) for n_r in (1, 2)}
    transfers = {n_r: matrices(n_r, 2) for n_r in (1, 2)}
    ok = True
    for x_a in matrices(2, 3):
        for n_r in (1, 2):
            ok &= sum(matrix_transition_prob(x_r, x_a, n_r) for x_r in outs[n_r]) == 1
            # full-rank sources: the matrix law pushed through row spans is
            # the subspace law
            if rank(x_a) == 2:
                induced = Counter(span_of(f @ x_a) for f in transfers[n_r])
                pi_a, scale = span_of(x_a), 2 ** (n_r * 2)
                ok &= all(Fraction(c, scale) == subspace_transition_prob(pi, pi_a, n_r) for pi, c in induced.items())
    _report(7, "matrix channel law sums to one and induces the subspace law", ok, t0)
