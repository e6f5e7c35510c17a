"""Tests of the benchmark's own machinery: span arithmetic, the outside-in
tracer, and the independent output checks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from benchmarks import checks, tracer
from nckey import agreement, fieldmath
from nckey.channel import ChannelParams


def test_self_times_on_synthetic_tree():
    # root [0, 10) with children a [1, 4) and b [5, 9); b has child c [6, 8)
    spans = [
        ("agreement.run_session", 0.0, 10.0, -1, 0, None),
        ("fieldmath.rank", 1.0, 4.0, 0, 0, {"rows": 3, "cols": 4, "rank": 2}),
        ("subspaces.Subspace.__add__", 5.0, 9.0, 0, 0, None),
        ("fieldmath.rref", 6.0, 8.0, 2, 0, {"rows": 2, "cols": 5, "rank": 2}),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    m = tracer.layer_metrics(spans, rounds=2)
    assert m["agreement.self_s"] == 1.5
    assert m["fieldmath.self_s"] == 2.5
    assert m["fieldmath.calls"] == 1.0
    assert m["fieldmath.elim_cells"] == (3 * 4 * 2 + 2 * 5 * 2) / 2
    assert m["subspaces.sum_calls"] == 0.5


def _readme_session(n_slots=2, seed=3):
    params = ChannelParams(fieldmath.FieldCtx(101), 10, 6, (4, 4), 2)
    alloc, _ = agreement.solve_allocation_lp_planned(agreement.plan_dimensions(params))
    result = agreement.run_session(params, n_slots, alloc, np.random.default_rng(seed))
    return result, dict(alloc.items())


def test_traced_session_records_rank_under_agreement():
    original = agreement.rank
    t = tracer.Tracer()
    with t:
        assert agreement.rank is not original
        result, _ = _readme_session()
    assert agreement.rank is original
    assert not result.audit.degenerate
    names = [s[0] for s in t.spans]
    under_agreement = [
        i for i, s in enumerate(t.spans)
        if s[0] == "fieldmath.rank" and s[3] >= 0 and t.spans[s[3]][0].startswith("agreement.")
    ]
    assert under_agreement
    assert "subspaces.Subspace.intersect" in names
    assert ("agreement.run_session", -1) in [(s[0], s[3]) for s in t.spans]


def test_flipped_key_symbol_is_a_failed_operation():
    result, shares = _readme_session()
    good = checks.check_session(result, shares, 2, 2)
    assert good.ok and not good.failed and good.verified_blocks == result.audit.key_blocks > 0

    final = result.keys.final_key
    flipped_arr = final.arr.copy()
    flipped_arr[0, 0] = (flipped_arr[0, 0] + 1) % 101
    flipped = fieldmath.MatrixFq(flipped_arr, final.ctx)
    tampered = dataclasses.replace(
        result, keys=dataclasses.replace(result.keys, terminal_final=(flipped, final))
    )
    bad = checks.check_session(tampered, shares, 2, 2)
    assert bad.failed and bad.silent and bad.verified_blocks == 0


@pytest.mark.parametrize("q", [2, 101, 2**31 - 1])
def test_mulmod_matches_python_integers(q):
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, size=(5, 7), dtype=np.int64)
    b = rng.integers(0, q, size=(7, 3), dtype=np.int64)
    want = [[sum(int(a[i, k]) * int(b[k, j]) for k in range(7)) % q for j in range(3)] for i in range(5)]
    assert checks.mulmod(a, b, q).tolist() == want


def test_common_dim_of_coordinate_subspaces():
    e = np.eye(5, dtype=np.int64)
    a, b, c = e[[0, 1, 2]], e[[1, 2, 3]], e[[2, 3, 4]]
    mixed = np.array([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 100]])  # spans e0-e2 mod 101
    assert checks.common_dim([a, b], 101) == 2
    assert checks.common_dim([a, b, c], 101) == 1
    assert checks.common_dim([a, mixed], 101) == 2
    assert checks.common_dim([a, e[[3, 4]]], 101) == 0


def test_bailed_session_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(agreement, "solve_in_rowspan", lambda target, basis: None)
    result, shares = _readme_session()
    assert result.audit.degenerate and "not in terminal" in result.audit.reasons[0]
    v = checks.check_session(result, shares, 2, 2)
    assert v.failed and not v.degenerate and not v.silent


def _with_reasons(result, reasons):
    audit = dataclasses.replace(result.audit, degenerate=True, reasons=reasons)
    keys = agreement.KeyShare(terminal_final=(None, None))
    return dataclasses.replace(result, audit=audit, keys=keys)


def test_degenerate_reason_is_confirmed_independently():
    result, shares = _readme_session()
    # Generic position holds in this session: a claimed event is refuted.
    claimed = _with_reasons(result, ("slot 0: subset 3 common dim 3 != planned 2",))
    assert checks.check_session(claimed, shares, 2, 2).failed

    # Give both terminals the same transfer matrix in slot 1: their common
    # space then has dimension 4, not the generic 2.
    slots = list(result.transcript.slots)
    obs = slots[1].obs
    same = dataclasses.replace(obs, transfers=(obs.transfers[0], obs.transfers[0]))
    slots[1] = dataclasses.replace(slots[1], obs=same)
    transcript = dataclasses.replace(result.transcript, slots=tuple(slots))
    event = _with_reasons(
        dataclasses.replace(result, transcript=transcript),
        ("slot 1: subset 3 common dim 4 != planned 2",),
    )
    v = checks.check_session(event, shares, 2, 2)
    assert v.degenerate and not v.failed


def test_leak_event_is_confirmed_independently():
    # Seed 75 is a README-size session whose uniform picks meet the
    # eavesdropper's view, so nckey withholds its keys.
    leaked, shares = _readme_session(seed=75)
    assert leaked.audit.reasons == (checks.LEAK_EVENT,)
    v = checks.check_session(leaked, shares, 2, 2)
    assert v.degenerate and not v.failed

    result, shares = _readme_session()
    claimed = _with_reasons(result, (checks.LEAK_EVENT,))
    assert checks.check_session(claimed, shares, 2, 2).failed
