import itertools
import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from nckey import agreement, simplex
from nckey.agreement import (
    InfeasibleAllocationError,
    SubsetAllocation,
    _solve_maxmin,
    build_exclusive_subspaces,
    certify_zero_leakage,
    check_allocation_feasible,
    check_allocation_feasible_planned,
    exhaustive_leakage_check,
    extract_secure_subspaces,
    plan_dimensions,
    plan_from_dims,
    run_session,
    solve_allocation_lp,
    solve_allocation_lp_planned,
    subset_masks,
)
from nckey.bounds import symmetric_pair_dims, three_terminal_rate
from nckey.channel import ChannelParams
from nckey.fieldmath import FieldCtx, MatrixFq, block_diag, solve_in_rowspan, vstack, zeros
from nckey.subspaces import (
    SubspaceFamily,
    direct_sum,
    random_subspace,
    span_of,
    zero_subspace,
)

F2 = FieldCtx(2)
F101 = FieldCtx(101)


def P(q, ell, na, n, ne):
    return ChannelParams(FieldCtx(q), ell, na, tuple(n), ne)


# ---------------------------------------------------------------------------
# exclusive-subspace construction
# ---------------------------------------------------------------------------


def test_exclusive_single_terminal_no_eavesdropper():
    rng = np.random.default_rng(0)
    pi_b = random_subspace(5, 3, F101, rng)
    fam = build_exclusive_subspaces([pi_b], zero_subspace(5, F101))
    assert fam[1] == pi_b


def test_exclusive_disjoint_pair_has_trivial_shared_part():
    pi_b = span_of(MatrixFq([[1, 0, 0, 0]], F2))
    pi_c = span_of(MatrixFq([[0, 1, 0, 0]], F2))
    fam = build_exclusive_subspaces([pi_b, pi_c], zero_subspace(4, F2))
    assert fam[3].dim == 0
    assert fam[1] == pi_b and fam[2] == pi_c


def test_exclusive_postconditions():
    rng = np.random.default_rng(14)
    for _ in range(50):
        pis = [random_subspace(6, int(rng.integers(0, 7)), FieldCtx(5), rng) for _ in range(2)]
        eve = random_subspace(6, int(rng.integers(0, 7)), FieldCtx(5), rng)
        fam = build_exclusive_subspaces(pis, eve, rng if _ % 2 else None)
        for mask in fam.masks():
            members = [i for i in range(2) if mask >> i & 1]
            common = pis[members[0]]
            for i in members[1:]:
                common = common.intersect(pis[i])
            shared = eve.intersect(common)
            for i in range(2):
                if i not in members:
                    shared = shared + pis[i].intersect(common)
            u = fam[mask]
            assert common.contains(u)
            assert u.intersect(shared).dim == 0
            assert u.dim == common.dim - shared.dim


def test_exclusive_dims_match_generic_plan_whp():
    # 1000 seeded draws at q=101, n_a=6, dims (3,3) with a dim-2 eavesdropper
    rng = np.random.default_rng(123)
    plan = plan_from_dims(6, [3, 3], 2)
    hits = 0
    trials = 1000
    for _ in range(trials):
        pis = [random_subspace(6, 3, F101, rng) for _ in range(2)]
        eve = random_subspace(6, 2, F101, rng)
        fam = build_exclusive_subspaces(pis, eve, rng)
        hits += all(fam[mask].dim == plan.exclusive_dims[mask] for mask in fam.masks())
    assert hits / trials >= 0.95


# ---------------------------------------------------------------------------
# dimension planning
# ---------------------------------------------------------------------------


def test_plan_single_terminal_example():
    plan = plan_dimensions(P(101, 8, 4, [2], 1))
    assert plan.exclusive_dims[1] == 2


def test_plan_no_eavesdropper_full_subset():
    for m, dims in ((2, [3, 3]), (3, [2, 3, 4])):
        plan = plan_from_dims(5, dims, 0)
        full = 2**m - 1
        assert plan.exclusive_dims[full] == plan.inter_dims[full]


def test_plan_matches_symmetric_closed_form_on_grid():
    for n_a in range(1, 13):
        for n_b in range(0, n_a + 1):
            for n_e in range(0, n_a + 1):
                p = P(101, n_a + 1, n_a, [n_b, n_b], n_e)
                u_single, u_shared = symmetric_pair_dims(p)
                plan = plan_dimensions(p)
                assert plan.exclusive_dims[1] == plan.exclusive_dims[2] == u_single
                assert plan.exclusive_dims[3] == u_shared


# ---------------------------------------------------------------------------
# allocation feasibility
# ---------------------------------------------------------------------------


def _random_family(rng, q=101, n_a=6, dims=(4, 4), e_dim=2):
    ctx = FieldCtx(q)
    pis = [random_subspace(n_a, d, ctx, rng) for d in dims]
    eve = random_subspace(n_a, e_dim, ctx, rng)
    return build_exclusive_subspaces(pis, eve, rng), eve


def test_feasibility_zero_and_tight():
    rng = np.random.default_rng(3)
    fam, eve = _random_family(rng)
    zero = SubsetAllocation(2, {})
    assert check_allocation_feasible(zero, fam, eve).ok
    for mask in fam.masks():
        cap = (fam[mask] + eve).dim - eve.dim
        tight = SubsetAllocation(2, {mask: cap})
        assert check_allocation_feasible(tight, fam, eve).ok
        over = SubsetAllocation(2, {mask: cap + 1})
        res = check_allocation_feasible(over, fam, eve)
        assert not res.ok
        assert res.witness == (mask,)


def test_feasibility_refuses_more_than_seven_subsets():
    # actual-subspace constraints are enumerated exactly, never sampled; at
    # m=4 (15 subsets) the enumeration is refused.  Extraction needs no table:
    # jointly independent picks certify the counts for any m.
    rng = np.random.default_rng(71)
    pis = [random_subspace(6, 3, F101, rng) for _ in range(4)]
    eve = random_subspace(6, 2, F101, rng)
    fam = build_exclusive_subspaces(pis, eve, rng)
    with pytest.raises(ValueError, match="7 subsets"):
        check_allocation_feasible(SubsetAllocation(4, {}), fam, eve)
    counts = {1: 1, 2: 1, 4: 1, 8: 1}
    picks = extract_secure_subspaces(fam, counts, eve, rng)
    for mask, u in picks.items():
        assert fam[mask].contains(u) and u.dim == counts.get(mask, 0)
    joint = span_of(vstack([eve.basis] + [picks[mask].basis for mask in counts]))
    assert joint.dim == eve.dim + sum(counts.values())


def test_feasibility_rejects_shares_outside_family():
    # a partial family cannot constrain shares on subsets it does not carry
    s = zero_subspace(4, F2)
    partial = SubspaceFamily(2, {1: s, 2: s})
    eve = zero_subspace(4, F2)
    with pytest.raises(ValueError, match="absent"):
        check_allocation_feasible(SubsetAllocation(2, {3: 1}), partial, eve)
    with pytest.raises(ValueError, match="absent"):
        extract_secure_subspaces(partial, {3: 1}, eve, np.random.default_rng(0))


def test_allocation_validation():
    with pytest.raises(ValueError):
        SubsetAllocation(2, {1: -1})
    with pytest.raises(ValueError):
        SubsetAllocation(2, {4: 1})
    alloc = SubsetAllocation(2, {1: Fraction(1, 2), 3: 2})
    assert alloc.floor_scaled(4) == {1: 2, 2: 0, 3: 8}
    assert alloc.terminal_total(0) == Fraction(5, 2)
    assert alloc.min_terminal_total() == 2  # terminal 1 only holds subsets 2 and 3


# ---------------------------------------------------------------------------
# allocation LP
# ---------------------------------------------------------------------------


def test_lp_single_terminal_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pi_b = random_subspace(6, int(rng.integers(0, 7)), F101, rng)
        eve = random_subspace(6, int(rng.integers(0, 7)), F101, rng)
        fam = build_exclusive_subspaces([pi_b], eve, rng)
        alloc, value = solve_allocation_lp(fam, eve)
        cap = (fam[1] + eve).dim - eve.dim
        assert value == cap
        assert alloc[1] == cap


def test_lp_zero_family():
    fam = SubspaceFamily(2, {m: zero_subspace(4, F2) for m in subset_masks(2)})
    alloc, value = solve_allocation_lp(fam, zero_subspace(4, F2))
    assert value == 0
    assert all(v == 0 for _, v in alloc.items())


def test_lp_matches_symmetric_closed_form_on_planned_grid():
    for n_a in range(1, 13):
        for n_b in range(0, n_a + 1):
            for n_e in range(0, n_a + 1):
                p = P(101, n_a + 1, n_a, [n_b, n_b], n_e)
                plan = plan_dimensions(p)
                alloc, value = solve_allocation_lp_planned(plan)
                assert value == three_terminal_rate(p).coefficient, (n_a, n_b, n_e)
                assert check_allocation_feasible_planned(alloc, plan).ok


def _enumerated_planned_lp(plan):
    masks = subset_masks(plan.m)
    caps = {
        sel: plan.rhs(sel)
        for k in range(1, len(masks) + 1)
        for sel in itertools.combinations(masks, k)
    }
    return _solve_maxmin(plan.m, caps)


def test_planned_lp_matches_enumerated_constraints():
    # singleton caps plus the budget give the same optimum as all
    # 2^(2^m - 1) - 1 selection constraints, and the same vertex except where
    # the enumerated LP's redundant rows steer a degenerate tie elsewhere
    other_vertex = {(4, (2, 3, 2), 1)}
    shapes = [(n_a, (d,), e) for n_a in range(1, 6) for d in range(n_a + 1) for e in range(n_a + 1)]
    shapes += [
        (n_a, (d1, d2), e)
        for n_a in range(1, 5)
        for d1 in range(n_a + 1)
        for d2 in range(n_a + 1)
        for e in range(n_a + 1)
    ]
    shapes += [(60, (45, 45), 15), (12, (6, 8, 9), 3), (4, (2, 3, 4), 1), (9, (5, 6, 7), 2)]
    shapes += sorted(other_vertex)
    for shape in shapes:
        plan = plan_from_dims(*shape)
        alloc, value = solve_allocation_lp_planned(plan)
        ref_alloc, ref_value = _enumerated_planned_lp(plan)
        assert value == ref_value, shape
        if shape in other_vertex:
            assert alloc.items() != ref_alloc.items()
            assert alloc.min_terminal_total() == value
            assert check_allocation_feasible_planned(alloc, plan).ok
        else:
            assert alloc.items() == ref_alloc.items(), shape


def test_planned_lp_four_terminals_meets_every_selection():
    for shape in [(60, (10, 15, 20, 25), 5), (12, (8, 9, 10, 11), 2)]:
        plan = plan_from_dims(*shape)
        alloc, value = solve_allocation_lp_planned(plan)
        assert value > 0 and value == alloc.min_terminal_total()
        masks = subset_masks(4)
        for k in range(1, len(masks) + 1):
            for sel in itertools.combinations(masks, k):
                assert sum(alloc[mask] for mask in sel) <= plan.rhs(sel), (shape, sel)
        assert check_allocation_feasible_planned(alloc, plan).ok


def test_planned_infeasibility_witness_is_singleton_or_budget():
    plan = plan_from_dims(10, (6, 6, 6), 2)
    over_one = SubsetAllocation(3, {1: plan.exclusive_dims[1] + 1})
    assert check_allocation_feasible_planned(over_one, plan).witness == (1,)
    # every subset at its exclusive dimension (2 each) overruns the budget
    over_budget = SubsetAllocation(3, plan.exclusive_dims)
    res = check_allocation_feasible_planned(over_budget, plan)
    assert res.witness == tuple(subset_masks(3)) and res.rhs == 10 - 2


def test_lp_certificate_failure_raises(monkeypatch):
    def bad_dual(c, rows, b):
        return replace(simplex.maximize(c, rows, b), dual=(Fraction(0),) * len(rows))

    monkeypatch.setattr(agreement, "maximize", bad_dual)
    with pytest.raises(RuntimeError, match="certificate"):
        solve_allocation_lp_planned(plan_dimensions(P(101, 10, 6, [4, 4], 2)))


def test_lp_solution_feasible_and_unimprovable():
    rng = np.random.default_rng(29)
    eps = Fraction(1, 7)
    for _ in range(25):
        fam, eve = _random_family(rng, dims=(4, 3), e_dim=2)
        alloc, value = solve_allocation_lp(fam, eve)
        assert check_allocation_feasible(alloc, fam, eve).ok
        assert value == alloc.min_terminal_total()
        for mask in fam.masks():
            bumped = SubsetAllocation(2, {m_: v for m_, v in alloc.items()})
            bumped.shares[mask] += eps
            if check_allocation_feasible(bumped, fam, eve).ok:
                # feasible bumps can never improve the max-min objective
                assert bumped.min_terminal_total() == value


def test_lp_matches_actual_subspaces_whp():
    # sampled instances agree with the planned/closed-form value w.h.p.
    rng = np.random.default_rng(47)
    p = P(101, 10, 6, [4, 4], 2)
    want = three_terminal_rate(p).coefficient
    hits = 0
    trials = 200
    for _ in range(trials):
        pis = [random_subspace(6, 4, F101, rng) for _ in range(2)]
        eve = random_subspace(6, 2, F101, rng)
        fam = build_exclusive_subspaces(pis, eve, rng)
        _, value = solve_allocation_lp(fam, eve)
        hits += value == want
    assert hits / trials >= 0.95


def test_lp_partial_family_gives_absent_subsets_zero():
    # only subsets the family carries get a share variable; the LP of
    # {1: U, 2: V} is max t s.t. t <= x1 <= c1, t <= x2 <= c2, x1 + x2 <= c12
    rng = np.random.default_rng(37)
    for _ in range(10):
        u, v = (random_subspace(6, int(rng.integers(0, 5)), F101, rng) for _ in range(2))
        eve = random_subspace(6, int(rng.integers(0, 4)), F101, rng)
        fam = SubspaceFamily(2, {1: u, 2: v})
        alloc, value = solve_allocation_lp(fam, eve)
        c1, c2 = ((x + eve).dim - eve.dim for x in (u, v))
        c12 = (u + v + eve).dim - eve.dim
        assert value == min(c1, c2, Fraction(c12, 2))
        assert alloc[3] == 0
        assert check_allocation_feasible(alloc, fam, eve).ok


def test_lp_rejects_large_m():
    fam = SubspaceFamily(4, {m: zero_subspace(4, F2) for m in subset_masks(4)})
    with pytest.raises(ValueError):
        solve_allocation_lp(fam, zero_subspace(4, F2))


# ---------------------------------------------------------------------------
# secure-basis extraction
# ---------------------------------------------------------------------------


def test_extract_all_zero():
    rng = np.random.default_rng(5)
    fam, eve = _random_family(rng)
    picks = extract_secure_subspaces(fam, {}, eve, rng)
    assert all(p.dim == 0 for p in picks.values())


def test_extract_single_terminal_no_eavesdropper():
    rng = np.random.default_rng(6)
    pi_b = random_subspace(5, 3, F101, rng)
    fam = build_exclusive_subspaces([pi_b], zero_subspace(5, F101))
    picks = extract_secure_subspaces(fam, {1: fam[1].dim}, zero_subspace(5, F101), rng)
    assert picks[1] == fam[1]


def test_extract_refuses_infeasible():
    rng = np.random.default_rng(8)
    fam, eve = _random_family(rng)
    too_much = {1: fam[1].dim + eve.dim + 1}
    with pytest.raises(InfeasibleAllocationError) as err:
        extract_secure_subspaces(fam, too_much, eve, rng)
    assert err.value.witness == (1,)


def test_extract_postconditions_exact_mode():
    rng = np.random.default_rng(13)
    for _ in range(30):
        fam, eve = _random_family(rng, dims=(4, 4), e_dim=2)
        alloc, _ = solve_allocation_lp(fam, eve)
        counts = {mask: int(v) for mask, v in alloc.items()}
        picks = extract_secure_subspaces(fam, counts, eve, rng)
        total = sum(counts.values())
        for mask, u in picks.items():
            assert fam[mask].contains(u)
            assert u.dim == counts[mask]
        stacked = [picks[mask].basis for mask in fam.masks() if counts[mask]]
        if stacked:
            joint = span_of(vstack(stacked))
            assert joint.dim == total
            assert (joint + eve).dim == total + eve.dim


def test_extract_realistic_orthogonal_to_eavesdropper_whp():
    # the realistic mode never sees the eavesdropper; rank additivity against
    # it must still hold in >= 95% of 1000 seeded draws at q=101
    rng = np.random.default_rng(1234)
    p = P(101, 10, 6, [4, 4], 2)
    plan = plan_dimensions(p)
    alloc, _ = solve_allocation_lp_planned(plan)
    counts = alloc.floor_scaled(1)
    hits = 0
    trials = 1000
    for _ in range(trials):
        pis = [random_subspace(6, 4, F101, rng) for _ in range(2)]
        eve = random_subspace(6, 2, F101, rng)
        try:
            fam = build_exclusive_subspaces(pis, eve, rng)
            picks = extract_secure_subspaces(fam, counts, None, rng, max_tries=20)
        except (InfeasibleAllocationError, RuntimeError):
            continue
        stacked = vstack([picks[mask].basis for mask in fam.masks() if counts[mask]])
        hits += certify_zero_leakage(stacked, eve.basis)
    assert hits / trials >= 0.95


# ---------------------------------------------------------------------------
# leakage certificates
# ---------------------------------------------------------------------------


def test_certificate_trivial_cases():
    keys = MatrixFq([[1, 0, 1, 0]], F2)
    assert certify_zero_leakage(keys, zeros(0, 4, F2))
    assert not certify_zero_leakage(keys, keys)


def test_exhaustive_leakage_spot_cases():
    ok, mi = exhaustive_leakage_check(MatrixFq([[1, 0]], F2), MatrixFq([[0, 1]], F2), 4)
    assert ok and mi == 0.0
    bad, mi_bad = exhaustive_leakage_check(MatrixFq([[1, 0]], F2), MatrixFq([[1, 0]], F2), 4)
    assert not bad and mi_bad > 1.9  # the eavesdropper holds the key row itself


def test_exhaustive_leakage_gate():
    with pytest.raises(OverflowError):
        exhaustive_leakage_check(MatrixFq([[1, 0, 0, 0]], FieldCtx(7)), MatrixFq([[0, 1, 0, 0]], FieldCtx(7)), 12)


# ---------------------------------------------------------------------------
# full sessions
# ---------------------------------------------------------------------------


def test_session_zero_slots():
    p = P(101, 6, 3, [2], 1)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
    res = run_session(p, 0, alloc, np.random.default_rng(0))
    assert res.transcript.n_slots == 0 and not res.transcript.slots
    assert res.audit.achieved_per_slot == 0
    assert res.keys.final_key is None


def test_session_single_terminal_no_eavesdropper():
    # one slot, no eavesdropper: the whole received dimension becomes key
    for n_a, n_b in ((3, 2), (3, 3), (4, 2)):
        p = P(101, 8, n_a, [n_b], 0)
        alloc, value = solve_allocation_lp_planned(plan_dimensions(p))
        assert value == min(n_a, n_b)
        res = run_session(p, 1, alloc, np.random.default_rng(11))
        assert not res.audit.degenerate
        assert res.audit.achieved_per_slot == min(n_a, n_b)
        assert res.audit.subset_agreement and res.audit.final_agreement
        assert res.keys.terminal_final[0] == res.keys.final_key


def test_session_refuses_infeasible_allocation():
    p = P(101, 6, 3, [2], 1)
    plan = plan_dimensions(p)
    too_much = SubsetAllocation(1, {1: plan.rhs((1,)) + 1})
    with pytest.raises(InfeasibleAllocationError):
        run_session(p, 2, too_much, np.random.default_rng(0))


def test_session_refuses_m4_before_any_draw():
    for n in ((3, 3, 3, 3), (4, 4, 4, 4)):
        p = P(101, 10, 6, n, 1)
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="7 subsets"):
            run_session(p, 2, alloc, rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0


def _record_cap_tables(monkeypatch):
    """Spy on every _actual_caps call: (family, base, table)."""
    calls = []
    real = agreement._actual_caps

    def spy(family, base=None):
        table = real(family, base)
        calls.append((family, base, table))
        return table

    monkeypatch.setattr(agreement, "_actual_caps", spy)
    return calls


SLOT_SHAPES = [
    (P(101, 10, 6, [4, 4], 2), 3, range(3)),
    (P(101, 9, 6, [4, 4, 4], 2), 2, range(2)),
    (P(3, 6, 4, [3, 3], 1), 3, range(12)),
]


def test_session_audit_tables_are_per_slot(monkeypatch):
    # on the success path run_session builds no session-sized cap table:
    # one table per slot, each on an n_a-dimensional family
    calls = _record_cap_tables(monkeypatch)
    successes = 0
    for p, slots, seeds in SLOT_SHAPES:
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
        for seed in seeds:
            calls.clear()
            res = run_session(p, slots, alloc, np.random.default_rng(seed))
            if res.audit.degenerate:
                continue
            successes += 1
            assert len(calls) == slots
            for family, base, _ in calls:
                assert {family[mask].ambient_dim for mask in family} == {p.n_a}
                assert base.ambient_dim == p.n_a
    assert successes >= 6


def test_session_cap_table_is_sum_of_slot_tables(monkeypatch):
    # a direct sum's dimension is the sum of its parts': the summed per-slot
    # tables equal the dense table of the session family over the session
    # eavesdropper, which the audit once built
    calls = _record_cap_tables(monkeypatch)
    checked = 0
    for p, slots, seeds in SLOT_SHAPES:
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
        for seed in seeds:
            calls.clear()
            res = run_session(p, slots, alloc, np.random.default_rng(seed))
            if res.audit.scaled_feasible is None:
                continue
            # the audit's tables (a failed extraction pick may add one without a base)
            audit = [call for call in calls if call[1] is not None]
            assert len(audit) == slots
            summed = {sel: sum(table[sel] for _, _, table in audit) for sel in audit[0][2]}
            session_family = SubspaceFamily(
                p.m, {mask: direct_sum(*(f[mask] for f, _, _ in audit)) for mask in audit[0][0]}
            )
            session_eve = direct_sum(*(base for _, base, _ in audit))
            assert agreement._actual_caps(session_family, session_eve) == summed
            counts = alloc.floor_scaled(slots)
            dense = check_allocation_feasible(counts, session_family, session_eve).ok
            assert res.audit.scaled_feasible == dense
            checked += 1
    assert checked >= 8


# (params, slots, seeds): n_r <= n_a, where each disclosure is unique, and
# n_r > n_a, where it is not and the dense elimination's choice is the one kept
DISCLOSURE_SHAPES = [
    (P(101, 10, 6, [4, 4], 2), 3, range(4)),
    (P(2, 6, 4, [3, 3], 1), 2, range(24)),
    (P(3, 8, 4, [6, 5], 1), 2, range(32)),
]


def _disclosed_sessions():
    """Sessions that reached the disclosures, each with its extracted bases
    rebuilt from them: basis = C @ block_diag(F_r,t) for any member r."""
    for p, slots, seeds in DISCLOSURE_SHAPES:
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
        for seed in seeds:
            res = run_session(p, slots, alloc, np.random.default_rng(seed))
            tr = res.transcript
            if not tr.disclosures:
                continue
            f_stacks = [block_diag([rec.obs.transfers[r] for rec in tr.slots]) for r in range(p.m)]
            bases = {mask: w @ f_stacks[r] for (mask, r), w in sorted(tr.disclosures.items())}
            yield p, res, f_stacks, bases


def test_disclosures_equal_dense_block_diagonal_solve():
    # solving slot by slot gives exactly the coefficients that the dense solve
    # over the whole N-slot block-diagonal matrix picks, also when they are
    # not unique (n_r > n_a)
    checked = {}
    for p, res, f_stacks, bases in _disclosed_sessions():
        for (mask, r), w in res.transcript.disclosures.items():
            assert solve_in_rowspan(bases[mask], f_stacks[r]) == w
        tall = max(p.n) > p.n_a
        checked[tall] = checked.get(tall, 0) + 1
    assert checked[False] >= 4 and checked[True] >= 10


@pytest.mark.parametrize(
    "failing, reported",
    [({(3, 1)}, (3, 1)), ({(2, 1), (3, 1)}, (2, 1)), ({(3, 0), (2, 1)}, (2, 1))],
)
def test_disclosure_bail_names_the_first_failing_pair(monkeypatch, failing, reported):
    # a terminal's subsets are solved together, terminal by terminal, yet the
    # reason names the first failing (subset, member) in subset-major order
    p = P(101, 10, 6, [4, 4], 2)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
    res = run_session(p, 3, alloc, np.random.default_rng(0))
    assert len(res.transcript.disclosures) == 4
    transfers = [[rec.obs.transfers[r] for rec in res.transcript.slots] for r in range(p.m)]
    bases = {mask: w @ block_diag(transfers[r]) for (mask, r), w in res.transcript.disclosures.items()}
    original = agreement._disclose

    def failing_disclose(target, trans, dims):
        r = next(r for r in range(p.m) if trans == transfers[r])
        for mask, fail_r in failing:
            b = bases[mask].arr
            if fail_r == r and any(
                np.array_equal(target.arr[i : i + len(b)], b) for i in range(target.rows - len(b) + 1)
            ):
                return None
        return original(target, trans, dims)

    monkeypatch.setattr(agreement, "_disclose", failing_disclose)
    again = run_session(p, 3, alloc, np.random.default_rng(0))
    assert again.audit.reasons == (f"subset {reported[0]} basis not in terminal {reported[1]} span",)


def test_coefficient_certificate_equals_packet_certificate():
    # block_diag([I | M_t]) has full row rank, so the certificate on
    # coefficients agrees with the one on the packets, passing or failing
    outcomes = []
    for p, res, _, bases in _disclosed_sessions():
        coeffs = vstack([bases[mask] for mask in sorted(bases)])
        slots = res.transcript.slots
        sources = block_diag([rec.source for rec in slots])
        packets = certify_zero_leakage(
            coeffs @ sources, block_diag([rec.obs.eve_received for rec in slots])
        )
        in_coeffs = certify_zero_leakage(
            coeffs, block_diag([rec.obs.eve_transfer for rec in slots])
        )
        assert packets == in_coeffs == res.audit.leakage_certificate
        outcomes.append((p.ctx.q, packets))
    assert {(2, False), (3, False), (2, True), (3, True), (101, True)} <= set(outcomes)


def test_sessions_agree_and_certify():
    # seeded sessions: every non-degenerate run agrees bit-exactly, passes the
    # leakage certificate, and slot-wise feasibility carries to the session
    p = P(101, 10, 6, [4, 4], 2)
    alloc, value = solve_allocation_lp_planned(plan_dimensions(p))
    rng = np.random.default_rng(2025)
    degenerate = 0
    for stream in rng.spawn(40):
        res = run_session(p, 3, alloc, stream)
        if res.audit.degenerate:
            degenerate += 1
            assert res.keys.final_key is None
            continue
        a = res.audit
        assert a.subset_agreement and a.final_agreement
        assert a.leakage_certificate
        if a.slotwise_feasible:
            assert a.scaled_feasible  # slot-wise feasibility is inherited
        counts = alloc.floor_scaled(3)
        want = min(
            sum(c for mask, c in counts.items() if mask >> r & 1) for r in range(2)
        )
        assert a.achieved_per_slot == Fraction(want, 3)
    assert degenerate <= 8


def test_session_large_symmetric_setup():
    # n_a=60, n_b=n_c=15, n_e=20 over four slots: the closed-form value is 15
    # per slot, and with 120 extracted rows over F_101 the multicast step has
    # to fall back to a randomly drawn combination code.
    p = P(101, 70, 60, [15, 15], 20)
    alloc, value = solve_allocation_lp_planned(plan_dimensions(p))
    assert value == three_terminal_rate(p).coefficient == 15
    for seed in (3, 4, 5):
        res = run_session(p, 4, alloc, np.random.default_rng(seed))
        if res.audit.degenerate:
            continue
        assert res.audit.achieved_per_slot == 15
        assert res.audit.subset_agreement and res.audit.final_agreement
        assert res.audit.leakage_certificate
        break
    else:
        raise AssertionError("all seeds gave degenerate sessions")


def test_session_three_terminals():
    # m=3: only the pairwise subsets carry secrets here, and the allocation
    # is fractional (8/3), so three slots floor cleanly
    p = P(101, 9, 6, [4, 4, 4], 2)
    plan = plan_dimensions(p)
    assert [plan.exclusive_dims[m_] for m_ in subset_masks(3)] == [0, 0, 2, 0, 2, 2, 0]
    alloc, value = solve_allocation_lp_planned(plan)
    assert value == Fraction(8, 3)
    for seed in (1, 2, 3):
        res = run_session(p, 3, alloc, np.random.default_rng(seed))
        if res.audit.degenerate:
            continue
        assert res.audit.achieved_per_slot == Fraction(8, 3)
        assert res.audit.subset_agreement and res.audit.final_agreement
        assert res.audit.leakage_certificate
        break
    else:
        raise AssertionError("all seeds gave degenerate sessions")


def test_session_replay_hook_validates_length():
    p = P(101, 6, 3, [2], 1)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
    msg = MatrixFq([[1, 2, 3], [4, 5, 6], [7, 8, 9]], F101)
    with pytest.raises(ValueError, match="message blocks"):
        run_session(p, 2, alloc, np.random.default_rng(0), messages=[msg])


def test_session_replay_hooks_refuse_malformed_input_before_any_draw():
    # README shape, 4 slots: 12 key blocks of ell - n_a = 4 symbols.  A 12 x 1
    # key would broadcast into the 16 x 4 ciphers and release keys no
    # terminal decodes; every malformed replay is refused before the spawn.
    p = P(101, 10, 6, [4, 4], 2)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
    messages = [zeros(6, 4, F101)] * 4
    malformed = [
        {"final_key": zeros(12, 1, F101)},
        {"final_key": zeros(13, 4, F101)},
        {"final_key": zeros(12, 4, FieldCtx(103))},
        {"messages": messages[:3] + [zeros(6, 3, F101)]},
        {"messages": messages[:3] + [zeros(6, 4, FieldCtx(103))]},
    ]
    for replay in malformed:
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="must be"):
            run_session(p, 4, alloc, rng, **replay)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
    key = MatrixFq(np.arange(48).reshape(12, 4), F101)
    res = run_session(p, 4, alloc, np.random.default_rng(0), messages=messages, final_key=key)
    assert not res.audit.degenerate and res.audit.final_agreement
    assert res.keys.final_key == key and res.transcript.ciphers.shape == (16, 4)


def test_session_rate_converges_with_slots():
    # fractional optimum: value 5/2 needs time extension to be approached
    p = P(101, 6, 4, [3, 3], 1)
    alloc, value = solve_allocation_lp_planned(plan_dimensions(p))
    assert value == Fraction(5, 2)
    achieved = {}
    for n_slots in (1, 2, 4):
        for seed in (0, 1, 2, 3):
            res = run_session(p, n_slots, alloc, np.random.default_rng(seed))
            if not res.audit.degenerate:
                achieved[n_slots] = res.audit.achieved_per_slot
                break
        assert n_slots in achieved, f"all seeds degenerate at N={n_slots}"
        assert value - Fraction(2, n_slots) <= achieved[n_slots] <= value
    assert achieved[4] == value


def test_session_exhaustive_independence_of_final_key():
    # Tiny instance, every message block and final key enumerated with the
    # channel and protocol randomness frozen: the eavesdropper's view
    # (her received packets plus all ciphers) is exactly independent of the
    # delivered key.
    q = 5
    ctx = FieldCtx(q)
    p = ChannelParams(ctx, 3, 2, (2,), 1)
    alloc, value = solve_allocation_lp_planned(plan_dimensions(p))
    assert value == 1
    seed = 3
    base = run_session(p, 1, alloc, np.random.default_rng(seed))
    assert not base.audit.degenerate

    import itertools

    counts: dict = {}
    k_counts: dict = {}
    v_counts: dict = {}
    publics = None
    total = 0
    for m_entries in itertools.product(range(q), repeat=2):
        msg = MatrixFq(np.array(m_entries, dtype=np.int64).reshape(2, 1), ctx)
        for k_entry in range(q):
            key = MatrixFq([[k_entry]], ctx)
            res = run_session(
                p, 1, alloc, np.random.default_rng(seed), messages=[msg], final_key=key
            )
            assert not res.audit.degenerate
            tr = res.transcript
            pub = (
                tuple(f.arr.tobytes() for f in tr.slots[0].obs.transfers),
                tr.slots[0].obs.eve_transfer.arr.tobytes(),
                tuple(sorted((k, w.arr.tobytes()) for k, w in tr.disclosures.items())),
                tr.multicast_code.arr.tobytes(),
            )
            if publics is None:
                publics = pub
            assert pub == publics  # frozen streams: only secrets vary
            view = (
                tr.slots[0].obs.eve_received.arr.tobytes(),
                tr.ciphers.arr.tobytes(),
            )
            k_bytes = res.keys.final_key.arr.tobytes()
            counts[(k_bytes, view)] = counts.get((k_bytes, view), 0) + 1
            k_counts[k_bytes] = k_counts.get(k_bytes, 0) + 1
            v_counts[view] = v_counts.get(view, 0) + 1
            total += 1
    assert total == q**3
    for (k, v), c in counts.items():
        assert c * total == k_counts[k] * v_counts[v]


def test_session_transcript_roundtrip(tmp_path):
    from nckey.agreement import load_session, save_session

    p = P(101, 8, 4, [3, 3], 1)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
    res = run_session(p, 2, alloc, np.random.default_rng(5))
    doc = res.to_json_dict()
    blob = json.dumps(doc, sort_keys=True)
    back = type(res).from_json_dict(json.loads(blob))
    assert back.transcript.params == res.transcript.params
    assert back.transcript.n_slots == res.transcript.n_slots
    for s1, s2 in zip(back.transcript.slots, res.transcript.slots):
        assert s1.message == s2.message and s1.source == s2.source
        assert s1.obs.transfers == s2.obs.transfers
        assert s1.obs.eve_received == s2.obs.eve_received
    assert back.transcript.disclosures == res.transcript.disclosures
    assert res.keys.terminal_subset_keys and back.keys == res.keys
    assert back.audit == res.audit
    path = tmp_path / "session.json"
    save_session(res, path)
    assert load_session(path).audit == res.audit
    # degenerate sessions withhold every key, also those whose disclosures
    # were published before the leakage certificate failed
    q2 = P(2, 6, 4, [3, 3], 1)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(q2))
    for seed, reason in ((1, "common dim"), (15, "leakage certificate")):
        res = run_session(q2, 2, alloc, np.random.default_rng(seed))
        assert reason in res.audit.reasons[0]
        back = type(res).from_json_dict(json.loads(json.dumps(res.to_json_dict())))
        assert back.keys == res.keys and not back.keys.terminal_subset_keys
