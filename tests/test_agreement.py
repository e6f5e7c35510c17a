import copy
import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckey import agreement, fieldmath, simplex, subspaces
from nckey.agreement import (
    InfeasibleAllocationError,
    SubsetAllocation,
    _solve_maxmin,
    check_allocation_feasible,
    check_allocation_feasible_planned,
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
from nckey.fieldmath import (
    FieldCtx,
    MatrixFq,
    RowReduced,
    block_diag,
    random_matrix,
    rank,
    solve_in_rowspan,
    vstack,
    zeros,
)
from nckey.subspaces import (
    Subspace,
    SubspaceFamily,
    direct_sum,
    iter_subspaces,
    random_picks,
    random_subspace,
    span_of,
    zero_subspace,
)
from references import (
    build_exclusive_subspaces,
    certify_zero_leakage,
    draw_law,
    exhaustive_leakage_check,
    gaussian,
    meet_count,
    reference_combination_code,
    reference_rank,
    reference_rref,
    reference_session,
    reference_solve,
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


@functools.cache
def _plane_configurations(q: int):
    """Every configuration of two planes of F_q^3, the first fixed, and an
    eavesdropper line, as (omniscient exclusive family, line)."""
    ctx = FieldCtx(q)
    first, lines = span_of(MatrixFq([[0, 1, 0], [0, 0, 1]], ctx)), list(iter_subspaces(3, 1, ctx))
    return [(build_exclusive_subspaces([first, pi], eve), eve) for pi in iter_subspaces(3, 2, ctx) for eve in lines]


def test_exclusive_dims_match_generic_plan_whp():
    # two planes of F_q^3 and an eavesdropper line: the exclusive dims match
    # the generic plan exactly when the planes meet in a line (meet_count)
    # and the eavesdropper's line lies in neither plane, which leaves
    # G(3, 1) - 2 G(2, 1) + 1 = q (q - 1) lines
    plan = plan_from_dims(3, [2, 2], 1)
    generic = {
        q: Fraction(meet_count(3, 2, 2, 1, q) * q * (q - 1), gaussian(3, 2, q) * gaussian(3, 1, q)) for q in (2, 3, 101)
    }
    for q in (2, 3):
        families = [fam for fam, _ in _plane_configurations(q)]
        hits = sum(all(fam[mask].dim == plan.exclusive_dims[mask] for mask in fam.masks()) for fam in families)
        assert Fraction(hits, len(families)) == generic[q]
    assert generic[101] >= Fraction(95, 100)


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
    # actual-subspace constraints are enumerated exactly, never sampled, over
    # the subsets with a positive share: at m=4 (15 subsets) shares on 7 of
    # them are checked, and shares on 8 are refused.  Extraction needs no
    # table: jointly independent picks certify the counts for any m.
    rng = np.random.default_rng(71)
    pis = [random_subspace(6, 3, F101, rng) for _ in range(4)]
    eve = random_subspace(6, 2, F101, rng)
    fam = build_exclusive_subspaces(pis, eve, rng)
    assert check_allocation_feasible(SubsetAllocation(4, {}), fam, eve).ok
    lines = SubspaceFamily(4, {mask: random_subspace(6, 1, F101, rng) for mask in range(1, 16)})
    seven = {mask: Fraction(1, 8) for mask in range(1, 8)}
    assert check_allocation_feasible(SubsetAllocation(4, seven), lines, eve).ok
    over = check_allocation_feasible(SubsetAllocation(4, {**seven, 5: 2}), lines, eve)
    assert (over.ok, over.witness, over.lhs, over.rhs) == (False, (5,), 2, 1)
    with pytest.raises(ValueError, match="7 subsets"):
        check_allocation_feasible(SubsetAllocation(4, {**seven, 8: Fraction(1, 8)}), lines, eve)
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
    # a string or bool mask would read as an int, and " 1" and "01" as one mask
    for shares in ({"3": "1/4", "03": "1/2", " 1": "1/8"}, {True: 1}, {np.bool_(True): 1}):
        with pytest.raises(TypeError, match="subset mask must be an integer"):
            SubsetAllocation(2, shares)
    assert SubsetAllocation(2, {np.int64(3): 1})[3] == 1
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
                assert value == three_terminal_rate(p) / (p.ell - p.n_a), (n_a, n_b, n_e)
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
    # the LP on the actual subspaces gives the closed-form value exactly
    # where the exclusive dims match the plan, a share that
    # test_exclusive_dims_match_generic_plan_whp counts
    for q in (2, 3):
        p = P(q, 7, 3, [2, 2], 1)
        want, plan = three_terminal_rate(p) / (p.ell - p.n_a), plan_dimensions(p)
        for fam, eve in _plane_configurations(q):
            generic = all(fam[mask].dim == plan.exclusive_dims[mask] for mask in fam.masks())
            assert (solve_allocation_lp(fam, eve)[1] == want) == generic


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


def test_extract_diagnoses_a_pair_over_its_cap_after_the_first_failed_pick():
    # subsets 1 and 2 share one line at q = 2: each singleton count fits, but
    # the pair needs 2 of the 1 dimension it spans.  Up to 7 allocated
    # subsets the cap table names that pair; among 8 it is not built, and
    # the bounded loop ends without a witness.
    line = [MatrixFq(np.eye(7, dtype=np.int64)[[i]], F2) for i in range(7)]
    pair = SubspaceFamily(2, {1: span_of(line[0]), 2: span_of(line[0])})
    for eve in (None, zero_subspace(7, F2)):
        with pytest.raises(InfeasibleAllocationError) as err:
            extract_secure_subspaces(pair, {1: 1, 2: 1}, eve, np.random.default_rng(0))
        assert (err.value.witness, err.value.lhs, err.value.rhs) == ((1, 2), 2, 1)
    eight = SubspaceFamily(4, {mask: span_of(line[max(mask - 2, 0)]) for mask in range(1, 9)})
    with pytest.raises(RuntimeError, match="no valid extraction found in 500 tries"):
        extract_secure_subspaces(eight, dict.fromkeys(range(1, 9), 1), None, np.random.default_rng(0))


def test_extract_refuses_counts_that_are_not_nonnegative_integers():
    rng = np.random.default_rng(8)
    fam, eve = _random_family(rng)
    for counts in ({1: Fraction(5, 2)}, {1: 2.7}, {1: -1}):
        with pytest.raises(ValueError, match="negative"):
            extract_secure_subspaces(fam, counts, eve, rng)
    # integer-valued counts of other types are still taken
    picks = extract_secure_subspaces(fam, {1: Fraction(1), 2: 1.0}, eve, rng)
    assert picks[1].dim == picks[2].dim == 1


def test_extract_refuses_an_eavesdropper_that_is_not_a_subspace():
    rng = np.random.default_rng(8)
    fam, eve = _random_family(rng)
    for bad in (3, eve.basis, eve.dim):
        with pytest.raises(TypeError, match="eve must be None or a Subspace"):
            extract_secure_subspaces(fam, {1: 1}, bad, rng)


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


@pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1])
def test_quotient_extraction_matches_the_stacked_rank_reference(q):
    # with the eavesdropper's subspace given, extraction accepts and rejects
    # the same picks as a loop that ranks them stacked on the eavesdropper's
    # basis, drawing only the members not counted whole, and leaves the
    # generator in the same state; q = 2 rejects often
    rejected = whole = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        fam, eve = _random_family(rng, q=q)
        counts = solve_allocation_lp(fam, eve)[0].floor_scaled(1)
        ref_rng = copy.deepcopy(rng)
        got = extract_secure_subspaces(fam, counts, eve, rng)
        want = sum(counts.values()) + eve.dim
        while True:
            picks = {
                mask: fam[mask] if counts[mask] == fam[mask].dim
                else random_picks([(fam[mask], counts[mask])], ref_rng)[0]
                for mask in fam.masks()
            }
            if rank(vstack([p.basis for p in picks.values()] + [eve.basis])) == want:
                break
            rejected += 1
        assert got == picks
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        whole += any(0 < counts[mask] == fam[mask].dim for mask in fam.masks())
    assert rejected >= (5 if q == 2 else 0)
    assert whole >= 10


def test_extract_takes_a_member_counted_whole_without_a_draw():
    # a full count returns the member object itself and draws nothing: the
    # generator ends where drawing only the partial picks, in mask order,
    # leaves it; the members are independent, so the first draw is accepted
    for q in (2, 101, 2**31 - 1):
        ctx, rng = FieldCtx(q), np.random.default_rng(q)
        rows = random_subspace(9, 7, ctx, rng).basis.arr
        parts = {1: rows[:3], 2: rows[3:5], 3: rows[5:]}
        fam = SubspaceFamily(2, {mask: span_of(MatrixFq(b, ctx)) for mask, b in parts.items()})
        for counts in ({1: 3, 2: 1, 3: 2}, {1: 1, 2: 2, 3: 0}, {1: 3, 2: 2, 3: 2}, {1: 2, 2: 1, 3: 1}):
            for eve in (None, zero_subspace(9, ctx)):
                ref_rng = copy.deepcopy(rng)
                picks = extract_secure_subspaces(fam, counts, eve, rng)
                for mask in fam.masks():
                    if counts[mask] == fam[mask].dim:
                        assert picks[mask] is fam[mask]
                    else:
                        assert picks[mask] == random_picks([(fam[mask], counts[mask])], ref_rng)[0]
                assert rng.bit_generator.state == ref_rng.bit_generator.state


def _slot_exclusive(ctx, slots, rng, dependent=None, width=4):
    """Per slot of F^width, exclusive parts of dims 1, 1 and 2 for subsets 1,
    2 and 3; in slot ``dependent`` subset 1's part lies inside subset 3's."""
    exclusive = []
    for t in range(slots):
        ex = {mask: random_subspace(width, dim, ctx, rng) for mask, dim in ((1, 1), (2, 1), (3, 2))}
        if t == dependent:
            ex[1] = span_of(MatrixFq(ex[3].basis.arr[:1], ctx))
        exclusive.append(ex)
    return exclusive


@pytest.mark.parametrize(
    "q, with_eve", [(2, False), (101, False), (2, True), (101, True)], ids=["2", "101", "2-eve", "101-eve"]
)
def test_extract_accepts_by_slot_only_when_every_slot_is_independent(q, with_eve, monkeypatch):
    # the member test is one _cap of the glued direct sums, slot by slot,
    # against nothing or against an eavesdropper line per slot (a direct
    # sum too): members that pass it are accepted with their first picks,
    # after that one _cap.  One dependent slot (forced, or by chance at
    # q = 2) falls back to the loop.  Either way the picks, or the error,
    # the generator's final state and the _cap count equal those of the
    # same members, and eavesdropper, with dense block-diagonal bases
    calls = []
    original = agreement._cap
    monkeypatch.setattr(agreement, "_cap", lambda *a: calls.append(1) or original(*a))
    ctx, seen, width = FieldCtx(q), Counter(), 5 if with_eve else 4
    for seed in range(100):
        rng = np.random.default_rng(seed)
        exclusive = _slot_exclusive(ctx, 2, rng, dependent=1 if seed % 4 == 0 else None, width=width)
        lines = [random_subspace(width, 1, ctx, rng) for _ in exclusive] if with_eve else []
        glued = {mask: direct_sum(*(ex[mask] for ex in exclusive)) for mask in (1, 2, 3)}
        dense = {mask: Subspace(block_diag([ex[mask].basis for ex in exclusive]), 2 * width) for mask in glued}
        eve = direct_sum(*lines) if lines else None
        dense_eve = Subspace(block_diag([line.basis for line in lines]), 2 * width) if lines else None
        counts = {1: 1, 2: 1, 3: 4} if seed % 2 else {1: 2, 2: 1, 3: 2}
        stacked = vstack([sub.basis for sub in dense.values()] + ([dense_eve.basis] if lines else []))
        independent = rank(stacked) == stacked.rows
        out = []
        for fam, view, r in ((glued, eve, rng), (dense, dense_eve, copy.deepcopy(rng))):
            calls.clear()
            try:
                out.append((extract_secure_subspaces(SubspaceFamily(2, fam), counts, view, r), len(calls)))
            except (InfeasibleAllocationError, RuntimeError) as exc:
                out.append((type(exc), len(calls)))
        (got, got_calls), (want, want_calls) = out
        assert got == want and rng.bit_generator.state == r.bit_generator.state
        assert got_calls == want_calls >= 1 and (got_calls == 1 if independent else got_calls > 1)
        seen[independent, seed % 4 == 0] += 1
    assert not seen[True, True] and seen[False, True] == 25
    assert seen[True, False] >= (70 if q == 101 else 3 if with_eve else 5)
    assert seen[False, False] >= (5 if q == 2 else 0)


def test_extract_realistic_orthogonal_to_eavesdropper_whp():
    # the realistic mode never sees the eavesdropper; over every draw of its
    # picks, rank additivity against it holds with probability q / (q + 1):
    # modulo U3 the eavesdropper's view is the graph of a map from U1 onto
    # U2, and the line picked in U2 must miss the image of the one in U1, a
    # meet law inside U2
    for q in (2, 3):
        ctx, eye = FieldCtx(q), np.eye(6, dtype=np.int64)
        pis = [span_of(MatrixFq(eye[:4], ctx)), span_of(MatrixFq(eye[2:], ctx))]
        eve = span_of(MatrixFq([[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1]], ctx))
        fam = build_exclusive_subspaces(pis, eve)
        counts = solve_allocation_lp_planned(plan_dimensions(P(q, 10, 6, [4, 4], 2)))[0].floor_scaled(1)
        # U1, U2 and U3 = pi_1 ∩ pi_2 are planes, as planned
        assert counts == {1: 1, 2: 1, 3: 2} and [fam[mask].dim for mask in fam.masks()] == [2, 2, 2]

        def certified(rng):
            picks = extract_secure_subspaces(fam, counts, None, rng)
            return certify_zero_leakage(vstack([picks[mask].basis for mask in fam.masks()]), eve.basis)

        lines, gl = gaussian(2, 1, q), q - 1  # |GL_1(q)| draws give each line
        assert draw_law(certified, q, [2, 2]) == {True: lines * meet_count(2, 1, 1, 0, q) * gl**2, False: lines * gl**2}
    assert Fraction(meet_count(2, 1, 1, 0, 101), gaussian(2, 1, 101)) >= Fraction(95, 100)


# ---------------------------------------------------------------------------
# leakage certificates
# ---------------------------------------------------------------------------


def test_certificate_trivial_cases():
    keys = MatrixFq([[1, 0, 1, 0]], F2)
    assert certify_zero_leakage(keys, zeros(0, 4, F2))
    assert not certify_zero_leakage(keys, keys)


@st.composite
def direct_sums_and_bases(draw):
    """Subspaces of one ambient space: direct sums over a slot layout (one
    slot possible), others over a second layout, copies of a direct sum
    (fully dependent), and dense subspaces, in any order and with parts of
    any dimension, zero included; with a base that is the zero subspace in
    the first layout, dense, or a direct sum over either layout."""
    ctx = FieldCtx(draw(st.sampled_from([2, 3, 101, 2**31 - 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    ambient = sum(layout)
    others = [other for other in (layout[::-1], [ambient], [1] * ambient) if other != layout]
    second = draw(st.sampled_from(others)) if others else layout

    def glued(widths):
        return direct_sum(*(random_subspace(w, draw(st.integers(0, w)), ctx, rng) for w in widths))

    few = st.sampled_from([0, 0, 1, 2])
    subs = [glued(layout) for _ in range(draw(st.integers(0, 3)))]
    subs += [glued(second) for _ in range(draw(few))]
    subs += [random_subspace(ambient, draw(st.integers(0, ambient)), ctx, rng) for _ in range(draw(few))]
    if subs and subs[0].parts is not None and draw(st.booleans()):
        subs.append(direct_sum(*subs[0].parts))
    subs = draw(st.permutations(subs)) or [glued(layout)]
    kind = draw(st.sampled_from(["zero", "dense", "sum", "sum"]))
    if kind == "dense":
        rows, inner = draw(st.integers(0, ambient + 1)), draw(st.integers(0, ambient))
        return subs, span_of(random_matrix(rows, inner, ctx, rng) @ random_matrix(inner, ambient, ctx, rng))
    if kind == "zero":
        return subs, direct_sum(*(zero_subspace(w, ctx) for w in layout))
    return subs, glued(draw(st.sampled_from([layout, layout, second])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([2, 3, 101, 2**31 - 1]),
    st.integers(1, 8),
    st.lists(st.integers(0, 5), min_size=1, max_size=3),
    st.integers(0, 9),
    st.integers(0, 2**32 - 1),
    direct_sums_and_bases(),
)
def test_quotient_cap_equals_the_stacked_rank(q, ambient, dims, eve_rows, seed, slot_case):
    # the dimension a selection adds to a base, taken modulo the base, is the
    # rank of the selection's bases stacked on the base's, less the base's,
    # by Gauss-Jordan; against a zero base, the rank of the stacked bases.
    # Direct sums over the base's slot layout are ranked slot by slot, and
    # the others at full width: the same dimension
    ctx, rng = FieldCtx(q), np.random.default_rng(seed)
    base = span_of(random_matrix(eve_rows, ambient, ctx, rng))
    subs = [random_subspace(ambient, min(d, ambient), ctx, rng) for d in dims]
    if len(subs) > 1:
        subs.append(subs[0] + subs[1])
    for b in (base, zero_subspace(ambient, ctx)):
        assert agreement._cap(subs, b) == reference_added(subs, b)
    subs, base = slot_case
    assert agreement._cap(subs, base) == reference_added(subs, base)


# ---------------------------------------------------------------------------
# slot-local session checks against the elimination they replace
# ---------------------------------------------------------------------------

FIELD_EXTREMES = [2, 101, 2**31 - 1]


def reference_added(subs, base) -> int:
    """The rank that the subspaces' bases add to ``base``'s, by Gauss-Jordan:
    the rank of them all stacked, less the rank of ``base``'s basis."""
    q, bottom = base.ctx.q, base.basis.arr
    return reference_rank(np.vstack([bottom, *(s.basis.arr for s in subs)]), q) - reference_rank(bottom, q)


def reference_caps(family, base):
    """The cap table one selection at a time: what each selection's members
    add to ``base`` (by size, then lexicographically)."""
    masks = family.masks()
    return {
        sel: reference_added([family[mask] for mask in sel], base)
        for k in range(1, len(masks) + 1)
        for sel in itertools.combinations(masks, k)
    }


@st.composite
def families_and_bases(draw):
    """A family on some of the 2^m - 1 subsets, m <= 3, with members of any
    dimension (zero included), some of them sums or copies of the others
    (fully dependent), and a rank-deficient base or the zero subspace."""
    ctx = FieldCtx(draw(st.sampled_from(FIELD_EXTREMES)))
    m, ambient = draw(st.integers(1, 3)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = draw(st.lists(st.sampled_from(subset_masks(m)), min_size=1, unique=True))
    members = {}
    for mask in masks:
        kind = draw(st.sampled_from(["random", "zero", "dependent"]))
        if kind == "dependent" and members:
            parts = draw(st.lists(st.sampled_from(sorted(members)), min_size=1, max_size=2))
            members[mask] = span_of(vstack([members[part].basis for part in parts]))
        else:
            dim = 0 if kind == "zero" else draw(st.integers(0, ambient))
            members[mask] = random_subspace(ambient, dim, ctx, rng)
    base = zero_subspace(ambient, ctx)
    if draw(st.booleans()):
        rows, inner = draw(st.integers(0, ambient + 1)), draw(st.integers(0, ambient))
        base = span_of(random_matrix(rows, inner, ctx, rng) @ random_matrix(inner, ambient, ctx, rng))
    return SubspaceFamily(m, members), base


@settings(max_examples=300, deadline=None, derandomize=True)
@given(families_and_bases())
def test_actual_caps_equal_the_stacked_rank_reference(case):
    # one _cap per selection gives the rank that the selection's stacked
    # bases add to the base, in table order
    family, base = case
    got, want = agreement._actual_caps(family, base), reference_caps(family, base)
    assert got == want and list(got) == list(want)


@st.composite
def shares_on(draw, family):
    """Shares on the family's members, zeros likely, near their caps."""
    value = st.one_of(st.just(0), st.integers(0, 4), st.fractions(0, 4, max_denominator=3))
    return SubsetAllocation(family.m, {mask: draw(value) for mask in family.masks()})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(families_and_bases(), st.data())
def test_allocated_check_equals_the_full_table_check(case, data):
    # the check over the subsets with a positive share returns the full
    # table's first violation (a zero share only ever shrinks a violated
    # selection), with the same witness, lhs and rhs
    family, eve = case
    alloc = data.draw(shares_on(family))
    full = agreement._check_against(alloc, reference_caps(family, eve))
    assert check_allocation_feasible(alloc, family, eve) == full


def test_slot_local_certificate_stacks_the_slot_sums_and_fails_on_one_deficient_slot(monkeypatch):
    # four slots of F_5^3, each with one or two local key rows (glued as the
    # direct sum of their slot spans) against an eavesdropper line: _cap
    # takes every slot's rows modulo its line, and ranks them as one stacked
    # elimination per shape (3 slots of 1 x 2, 1 of 2 x 2), with no
    # elimination at session width, since no row couples slots.  Every slot
    # adding its rows passes; one slot whose rows fall short (a row inside
    # E_t, or two rows dependent modulo E_t) fails the whole certificate,
    # wherever it sits
    ctx = FieldCtx(5)
    eve = direct_sum(*(span_of(MatrixFq([row], ctx)) for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])))
    good = [[[0, 1, 0]], [[1, 0, 0], [0, 0, 1]], [[1, 2, 3]], [[1, 0, 0]]]
    deficient = {0: [[2, 0, 0]], 1: [[1, 0, 0], [1, 3, 0]], 2: [[0, 0, 2]], 3: [[3, 3, 3]]}

    def glued(local):
        return [direct_sum(*(span_of(MatrixFq(block, ctx)) for block in local))]

    keys = glued(good)
    calls = []
    original = fieldmath._echelon
    monkeypatch.setattr(fieldmath, "_echelon", lambda *a, **kw: calls.append(a[0].shape) or original(*a, **kw))
    assert agreement._cap(keys, eve) == 5
    monkeypatch.undo()
    assert calls == [(3, 1, 2), (1, 2, 2)]
    for t, bad in deficient.items():
        assert agreement._cap(glued(good[:t] + [bad] + good[t + 1 :]), eve) < 5


@pytest.mark.parametrize("q", FIELD_EXTREMES)
def test_cap_over_a_zero_base_ranks_each_slot_modulo_its_widest_part(q, monkeypatch):
    # six slots of F_q^4 against the zero subspace, parts of dimension:
    # (2, 2) tied widths, (3, 1), (1, 3) widest second, (0, 0) a zero-dim
    # widest part (no rank), (2, 0) one part with a dimension (no rank), and
    # (2, 2) twice the same subspace.  Each slot's widest part (the first of
    # a tie) adds its dimension and the other parts their rank modulo it,
    # one stack per quotient shape; a third member, and one-part slots
    # (which need no elimination), give the dense Gauss-Jordan rank too
    ctx, rng = FieldCtx(q), np.random.default_rng(q)
    dims = [(2, 2), (3, 1), (1, 3), (0, 0), (2, 0), (2, 2)]
    parts = [[random_subspace(4, d, ctx, rng) for d in pair] for pair in dims]
    parts[5][1] = parts[5][0]
    first, second = (direct_sum(*(p[k] for p in parts)) for k in (0, 1))
    third = direct_sum(*(random_subspace(4, 1, ctx, rng) for _ in dims))
    zero = direct_sum(*(zero_subspace(4, ctx) for _ in dims))
    calls = []
    original = fieldmath._echelon
    monkeypatch.setattr(fieldmath, "_echelon", lambda *a, **kw: calls.append(a[0].shape) or original(*a, **kw))
    assert agreement._cap([first, second], zero) == reference_added([first, second], zero)
    assert calls == [(2, 2, 2), (2, 1, 1)]
    calls.clear()
    for subs in ([first], [second], [third]):
        assert agreement._cap(subs, zero) == sum(s.dim for s in subs)
    assert calls == []
    subs = [first, second, third]
    assert agreement._cap(subs, zero) == reference_added(subs, zero)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(FIELD_EXTREMES),
    st.integers(1, 6),
    st.integers(0, 8),
    st.integers(0, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_reduced_transfer_gives_its_span_and_the_basic_solution(q, n_a, n_r, k, stray, seed):
    # one rref of [F | J] gives F's canonical basis R and S with S @ F == R,
    # S zero on F's rows that depend on earlier ones, so that a target's
    # pivot columns times S is the basic solution, all as the Gauss-Jordan
    # references give them; F is often tall (n_r > n_a) and rank-deficient,
    # and a stray target row is usually outside the span
    ctx, rng = FieldCtx(q), np.random.default_rng(seed)
    inner = int(rng.integers(0, min(n_a, n_r) + 1))
    f = random_matrix(n_r, inner, ctx, rng) @ random_matrix(inner, n_a, ctx, rng)
    red = RowReduced(f)
    echelon, r, pivots = reference_rref(f)
    assert red == f and (red.echelon.tolist(), red.pivots) == (echelon.tolist()[:r], pivots)
    assert red.transform @ f == red.echelon
    assert not np.delete(red.transform.arr, reference_rref(f.transpose())[2], axis=1).any()
    target = random_matrix(k, n_r, ctx, rng) @ f
    assert MatrixFq(target.arr[:, red.pivots], ctx) @ red.transform == reference_solve(target, f)
    if stray:
        target = vstack([target, random_matrix(1, n_a, ctx, rng)])
    assert solve_in_rowspan(target, red) == reference_solve(target, f)


def session_disclose(target, transfers):
    """_disclosures of ``target`` as the one subset of a one-terminal session
    over ``transfers`` (None when it bails)."""
    received = [[RowReduced(f)] for f in transfers]
    try:
        return agreement._disclosures(received, {1: Subspace(target, target.cols)})[(1, 0)]
    except agreement._Degenerate:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(FIELD_EXTREMES),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_slot_local_disclosure_equals_the_full_block_solve(q, slots, n_a, extra, seed):
    # the slot-by-slot disclosure is the basic solution over block_diag(F_t),
    # as the Gauss-Jordan reference gives it, for tall rank-deficient
    # transfers (n_r > n_a, so C is not unique); target rows in each slot
    # block are zero, inside the transfer's span, or (rarely) outside it, so
    # that some systems have no solution
    ctx, rng = FieldCtx(q), np.random.default_rng(seed)
    n_r, inner = n_a + extra, int(rng.integers(1, n_a + 1))
    transfers = [random_matrix(n_r, inner, ctx, rng) @ random_matrix(inner, n_a, ctx, rng) for _ in range(slots)]
    target = np.zeros((6, slots * n_a), dtype=np.int64)
    for i, t in itertools.product(range(6), range(slots)):
        kind = rng.choice(["zero", "inside", "inside", "outside"], p=[0.45, 0.25, 0.25, 0.05])
        if kind == "inside":
            target[i, t * n_a : (t + 1) * n_a] = (random_matrix(1, n_r, ctx, rng) @ transfers[t]).arr
        elif kind == "outside":
            target[i, t * n_a : (t + 1) * n_a] = random_matrix(1, n_a, ctx, rng).arr
    target = MatrixFq(target, ctx)
    assert session_disclose(target, transfers) == reference_solve(target, block_diag(transfers))


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
    assert not res.transcript.slots
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


def test_sessions_audit_more_than_seven_allocated_subsets(monkeypatch):
    # the audit builds no cap table, so no subset count limits a session:
    # shares on 8 subsets at m = 4 agree, certify and deliver their blocks,
    # and each session equals the reference session, JSON and terminal
    # copies.  At ell=9, n_a=5, n=(3,3,4,4), n_e=0 these eight subsets of
    # two or more terminals have a planned exclusive line, and each terminal
    # is in four.
    calls = _record_cap_tables(monkeypatch)
    p = P(101, 9, 5, (3, 3, 4, 4), 0)
    eight = (3, 5, 6, 9, 10, 12, 13, 14)
    assert len(eight) > agreement.MAX_ENUMERATED_SUBSETS
    alloc = SubsetAllocation(4, {mask: Fraction(1, 8) for mask in eight})
    for seed in range(4):
        res = run_session(p, 16, alloc, np.random.default_rng(seed))
        audit = res.audit
        assert not audit.degenerate and audit.key_blocks == 8
        assert audit.achieved_per_slot == Fraction(1, 2)
        assert audit.subset_agreement and audit.final_agreement and audit.leakage_certificate
        want = reference_session(p, 16, alloc, np.random.default_rng(seed))
        assert json.dumps(res.to_json_dict()) == json.dumps(want.to_json_dict())
        assert res.keys.terminal_subset_keys == want.keys.terminal_subset_keys
    assert not calls


@pytest.mark.parametrize("n", [(3, 3, 3, 3), (4, 4, 4, 4), (3, 3, 3, 3, 3)])
def test_sessions_past_three_terminals_agree_certify_and_audit_caps(monkeypatch, n):
    # m = 4 and m = 5 sessions agree and certify without a cap table, and
    # their counts pass the public check against the glued exclusive family
    # over the eavesdropper's session subspace
    calls = _record_cap_tables(monkeypatch)
    extractions = _record_extractions(monkeypatch)
    p = P(101, 10, 6, n, 1)
    alloc, value = solve_allocation_lp_planned(plan_dimensions(p))
    for seed in (1, 2):
        calls.clear()
        extractions.clear()
        res = run_session(p, 2, alloc, np.random.default_rng(seed))
        audit = res.audit
        assert not audit.degenerate and audit.key_blocks == math.floor(2 * value)
        assert audit.subset_agreement and audit.final_agreement and audit.leakage_certificate
        assert not calls
        [(exclusive, counts)] = extractions
        glued = {mask: direct_sum(*(ex[mask] for ex in exclusive)) for mask in exclusive[0]}
        eve = direct_sum(*(span_of(rec.obs.eve_transfer) for rec in res.transcript.slots))
        assert check_allocation_feasible(counts, SubspaceFamily(p.m, glued), eve).ok


def _record_cap_tables(monkeypatch):
    """Spy on every _actual_caps call: (family, base, table)."""
    calls = []
    real = agreement._actual_caps

    def spy(family, base):
        table = real(family, base)
        calls.append((family, base, table))
        return table

    monkeypatch.setattr(agreement, "_actual_caps", spy)
    return calls


def _record_extractions(monkeypatch):
    """Spy on every _extract call: (per-slot exclusive picks, counts)."""
    calls = []
    real = agreement._extract

    def spy(exclusive, counts, m, rng):
        calls.append((exclusive, counts))
        return real(exclusive, counts, m, rng)

    monkeypatch.setattr(agreement, "_extract", spy)
    return calls


@pytest.mark.parametrize(
    "failing, reported",
    [({(3, 1)}, (3, 1)), ({(2, 1), (3, 1)}, (2, 1)), ({(3, 0), (2, 1)}, (2, 1))],
)
def test_disclosure_bail_names_the_first_failing_pair(monkeypatch, failing, reported):
    # every slot block of every (subset, member) is solved on its own, and
    # the reason names the first failing pair in subset-major order
    p = P(101, 10, 6, [4, 4], 2)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
    res = run_session(p, 3, alloc, np.random.default_rng(0))
    assert len(res.transcript.disclosures) == 4
    transfers = [[rec.obs.transfers[r] for rec in res.transcript.slots] for r in range(p.m)]
    bases = {mask: w @ block_diag(transfers[r]) for (mask, r), w in res.transcript.disclosures.items()}
    original = agreement.solve_in_rowspan

    def failing_solve(target, basis):
        # a failing pair fails in its last slot, after its other blocks solved
        for mask, r in failing:
            block = bases[mask].arr[:, -p.n_a :]
            if basis == transfers[r][-1] and np.array_equal(target.arr, block[block.any(axis=1)]):
                return None
        return original(target, basis)

    monkeypatch.setattr(agreement, "solve_in_rowspan", failing_solve)
    again = run_session(p, 3, alloc, np.random.default_rng(0))
    assert again.audit.reasons == (f"subset {reported[0]} basis not in terminal {reported[1]} span",)


def _multicast_inputs(dims: dict[int, int], ctx: FieldCtx, rng, width: int = 2, ambient: int = 4):
    picks = {mask: random_subspace(ambient, d, ctx, rng) for mask, d in dims.items()}
    subset_keys = {mask: random_matrix(d, width, ctx, rng) for mask, d in dims.items()}
    copies = {
        (mask, r): k for mask, k in subset_keys.items() for r in agreement.mask_members(mask)
    }
    return picks, agreement.KeyShare(subset_keys, copies)


def _is_unit(row: np.ndarray) -> bool:
    return np.count_nonzero(row) == 1 and row.max() == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [2, 3, 5, 101, 2**31 - 1])
def test_multicast_code_has_full_rank_rows_for_every_terminal(m, q, monkeypatch):
    # the code is deterministic: each terminal's rows have full column rank
    # and decode the final key; at m <= 2 every row is a unit vector, so
    # decoding is a selection and no elimination runs
    calls = []
    for module, name in ((fieldmath, "_echelon"), (agreement, "solve_in_rowspan")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw)
        )
    ctx = FieldCtx(q)
    decoded = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        dims = {mask: d for mask in subset_masks(m) if (d := int(rng.integers(0, 4)))}
        k = min(sum(d for mask, d in dims.items() if mask >> r & 1) for r in range(m))
        if not k:
            continue
        picks, keys = _multicast_inputs(dims, ctx, rng)
        final = random_matrix(k, 2, ctx, rng)
        calls.clear()
        code, ciphers, out = agreement._multicast(picks, keys, final, m)
        assert out.terminal_final == (final,) * m
        if m <= 2:
            assert all(_is_unit(row) for row in code.arr) and not calls
        labels = [mask for mask, d in dims.items() for _ in range(d)]
        for r in range(m):
            rows = [i for i, mask in enumerate(labels) if mask >> r & 1]
            assert rank(MatrixFq(code.arr[rows], ctx)) == k
        assert ciphers == MatrixFq((code @ final).arr + vstack(list(keys.subset_keys.values())).arr, ctx)
        decoded += 1
    assert decoded >= 8


def test_multicast_triangle_takes_combination_rows_and_names_failures():
    # m = 3 with shares on the pairs 3, 5 and 6 only: the rows of 3 and 5
    # take e_0, e_1 and e_2, e_3, after which no unit vector is outside both
    # spans of 6's members, so its first two rows are combinations; its third
    # finds both members full and takes e_0, and every terminal decodes
    for q in (3, 101, 2**31 - 1):
        ctx, rng = FieldCtx(q), np.random.default_rng(q)
        picks, keys = _multicast_inputs({3: 2, 5: 2, 6: 3}, ctx, rng)
        final = random_matrix(4, 2, ctx, rng)
        code, _, out = agreement._multicast(picks, keys, final, 3)
        assert [np.flatnonzero(row).tolist() for row in code.arr[:4]] == [[0], [1], [2], [3]]
        assert not any(_is_unit(row) for row in code.arr[4:6])
        assert code.arr[6].tolist() == [1, 0, 0, 0]
        assert out.terminal_final == (final,) * 3
    # a wrong copy of a subset key: terminal 2 decodes a key that does not
    # reproduce its five ciphers
    bumped = keys.terminal_subset_keys[(6, 2)].arr.copy()
    bumped[0, 0] += 1
    wrong = {**keys.terminal_subset_keys, (6, 2): MatrixFq(bumped, ctx)}
    with pytest.raises(agreement._Degenerate) as exc:
        agreement._multicast(picks, replace(keys, terminal_subset_keys=wrong), final, 3)
    assert exc.value.args == ("terminal 2 could not decode the combination code",)
    # five key blocks, but every terminal holds four pad rows
    with pytest.raises(agreement._Degenerate) as exc:
        agreement._multicast(picks, keys, random_matrix(5, 2, ctx, rng), 3)
    assert exc.value.args == ("no decodable combination code found",)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from([2, 3, 101]),
    st.lists(st.tuples(st.integers(1, 15), st.integers(0, 8)), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_combination_code_in_runs_equals_the_row_by_row_builder(m, q, runs, seed):
    # runs of one label, in mask order as sessions give them or repeated and
    # interleaved, against a k up to the largest terminal total: the code
    # whose unit rows come a block at a time equals the row-by-row one on
    # dense spans, every terminal keeps the same rows, and its state is the
    # RREF of their span (unit rows at its pivots while it holds no form)
    rng = np.random.default_rng(seed)
    labels = [min(mask, 2**m - 1) for mask, length in runs for _ in range(length)]
    if seed % 2:
        labels.sort()
    totals = [sum(mask >> r & 1 for mask in labels) for r in range(m)]
    if not max(totals):
        return
    k = int(rng.integers(1, max(totals) + 1))
    code, receivers = agreement._combination_code(labels, k, m, q)
    want, kept = reference_combination_code(labels, k, m, q)
    assert np.array_equal(code, want)
    for got, rows in zip(receivers, kept):
        assert got.kept == rows and len(got.pivots) == len(rows)
        span = reference_rref(MatrixFq(code[rows], FieldCtx(q)))[0].arr[: len(rows)]
        order = np.argsort(got.pivots)
        if got.basis is None:
            assert np.flatnonzero(got.units).tolist() == sorted(got.pivots)
            assert np.array_equal(span, np.eye(k, dtype=np.int64)[got.pivots][order])
        else:
            assert np.array_equal(span, got.basis[order])


def test_paper_session_takes_no_session_width_products(monkeypatch):
    # paper-shape N=8 sessions (seed 1) at q=101 and q=2^31-1: no product is
    # wider than one slot, inner dimension at most max(n_a, n_r) = 60.  The
    # partial picks' keys and the terminals' copies multiply slot block by
    # slot block, extraction accepts its picks slot by slot, and the
    # multicast's code products are gathers, with no product at m = 2.  Summed
    # over the session, these would be 480, 360 and 300 wide
    shapes, multicast_shapes = [], []
    original, multicast = fieldmath._mul_mod, agreement._multicast
    spy = lambda x, y, q: shapes.append((x.shape, y.shape)) or original(x, y, q)

    def multicast_spy(*args):
        before = len(shapes)
        out = multicast(*args)
        multicast_shapes.append(shapes[before:])
        return out

    monkeypatch.setattr(fieldmath, "_mul_mod", spy)
    monkeypatch.setattr(subspaces, "_mul_mod", spy)
    monkeypatch.setattr(agreement, "_multicast", multicast_spy)
    for q in (101, 2**31 - 1):
        shapes.clear()
        p = P(q, 70, 60, [45, 45], 15)
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
        res = run_session(p, 8, alloc, np.random.default_rng(1))
        assert not res.audit.degenerate and res.audit.key_blocks == 300
        assert ((60, 15), (15, 60)) in shapes
        assert max(x[-1] for x, _ in shapes) == 60
    assert multicast_shapes == [[], []]


@pytest.mark.parametrize("q", [2, 2**31 - 1])
def test_wide_multicast_decode_runs_panels_and_equals_the_reference(q, monkeypatch):
    # the triangle at 140 key blocks: terminal 0 holds the unit rows of 3 and
    # 5 and decodes by selection; terminals 1 and 2 hold 6's combination
    # rows and solve X^T over the row span of their kept rows^T, whose
    # [basis | J] reduction is more than two panels wide; each solve equals
    # the Gauss-Jordan basic solution, and every terminal decodes
    solved = []
    original = agreement.solve_in_rowspan

    def spy(target, basis):
        solved.append((target, basis, original(target, basis)))
        return solved[-1][2]

    monkeypatch.setattr(agreement, "solve_in_rowspan", spy)
    ctx, rng = FieldCtx(q), np.random.default_rng(q)
    picks, keys = _multicast_inputs({3: 70, 5: 70, 6: 75}, ctx, rng, ambient=75)
    final = random_matrix(140, 2, ctx, rng)
    _, _, out = agreement._multicast(picks, keys, final, 3)
    assert out.terminal_final == (final,) * 3
    assert [basis.shape for _, basis, _ in solved] == [(140, 140)] * 2 and 140 > 2 * fieldmath._PANEL
    for target, basis, got in solved:
        assert got == reference_solve(target, basis)


def test_sessions_agree_and_certify(monkeypatch):
    # seeded sessions: every non-degenerate run agrees bit-exactly, passes the
    # leakage certificate, and delivers the floored counts' key blocks, and
    # builds no cap table (its first picks pass)
    calls = _record_cap_tables(monkeypatch)
    p = P(101, 10, 6, [4, 4], 2)
    alloc, value = solve_allocation_lp_planned(plan_dimensions(p))
    rng = np.random.default_rng(2025)
    degenerate = 0
    for stream in rng.spawn(40):
        calls.clear()
        res = run_session(p, 3, alloc, stream)
        if res.audit.degenerate:
            degenerate += 1
            assert res.keys.final_key is None
            continue
        assert not calls
        a = res.audit
        assert a.subset_agreement and a.final_agreement
        assert a.leakage_certificate
        counts = alloc.floor_scaled(3)
        want = min(
            sum(c for mask, c in counts.items() if mask >> r & 1) for r in range(2)
        )
        assert a.achieved_per_slot == Fraction(want, 3)
    assert degenerate <= 8


def test_session_large_symmetric_setup():
    # n_a=60, n_b=n_c=15, n_e=20 over four slots: the closed-form value is 15
    # per slot, and the multicast step codes 120 extracted rows over F_101,
    # more rows than field elements, with unit vectors.
    p = P(101, 70, 60, [15, 15], 20)
    alloc, value = solve_allocation_lp_planned(plan_dimensions(p))
    assert value == three_terminal_rate(p) / (p.ell - p.n_a) == 15
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


def test_session_three_terminals(monkeypatch):
    # m=3: only the pairwise subsets carry secrets here, and the allocation
    # is fractional (8/3), so three slots floor cleanly; no cap table is built
    calls = _record_cap_tables(monkeypatch)
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
        assert res.audit.leakage_certificate and not calls
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


def _reload(res):
    return type(res).from_json_dict(json.loads(json.dumps(res.to_json_dict())))


def test_session_transcript_roundtrip(tmp_path):
    from nckey.agreement import load_session, save_session

    kinds = {}
    for q, n_slots in itertools.product((2, 101, 2**31 - 1), (0, 1, 2, 3)):
        p = P(q, 8, 4, [3, 3], 1)
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
        res = run_session(p, n_slots, alloc, np.random.default_rng(5))
        doc = res.to_json_dict()
        assert doc["schema_version"] == 3
        assert set(doc["audit"]) == {
            "degenerate", "reasons", "subset_agreement", "final_agreement",
            "leakage_certificate", "achieved_per_slot", "key_blocks",
        }
        assert set(doc["public_messages"]) == {"disclosures", "multicast_code", "ciphers"}
        assert all(set(s) == {"message", "transfers", "eve_transfer"} for s in doc["slots"])
        back = _reload(res)
        # sources and received packets are rebuilt, not read
        assert back == res
        assert back.transcript.slots == res.transcript.slots
        assert len(back.transcript.slots) == n_slots
        kinds.setdefault(q, set()).add(res.audit.degenerate)
        path = tmp_path / "session.json"
        save_session(res, path)
        assert load_session(path) == res
        assert "\n" not in path.read_text()
    assert kinds[101] == kinds[2**31 - 1] == {False}
    # degenerate sessions withhold every key, also those whose disclosures
    # were published before the leakage certificate failed
    q2 = P(2, 6, 4, [3, 3], 1)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(q2))
    for seed, reason in ((1, "common dim"), (15, "leakage certificate")):
        res = run_session(q2, 2, alloc, np.random.default_rng(seed))
        assert reason in res.audit.reasons[0]
        back = _reload(res)
        assert back == res and not back.keys.terminal_subset_keys


def test_session_transcript_load_refuses_schema_1_and_malformed_documents():
    p = P(101, 8, 4, [3, 3], 1)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
    doc = run_session(p, 2, alloc, np.random.default_rng(5)).to_json_dict()
    load = agreement.SessionResult.from_json_dict

    def broken(edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return bad

    def mat(rows, cols):
        return {"rows": rows, "cols": cols, "entries": [[1] * cols for _ in range(rows)]}

    entry = doc["slots"][0]["message"]["entries"][0][0]
    flat = sum(doc["slots"][0]["message"]["entries"], [])

    for version in (1, 2):
        with pytest.raises(ValueError, match=f"unsupported transcript schema {version}"):
            load(broken(lambda d: d.update(schema_version=version)))

    def audit(**fields):
        return lambda d: d["audit"].update(fields)

    def withhold(d):
        d["keys"].update(subset_keys={}, final_key=None, terminal_final=[None, None])
        d["audit"].update(degenerate=True, reasons=["slot 0: event"], key_blocks=0, achieved_per_slot="0")

    # a degenerate audit with every key withheld loads
    withheld = load(broken(withhold))
    assert withheld.audit.degenerate and withheld.keys.final_key is None
    cases = {
        "transfer shapes": [
            lambda d: d["slots"][0]["transfers"].pop(),
            lambda d: d["slots"][1]["transfers"].append(mat(3, 4)),
            lambda d: d["slots"][0]["transfers"].__setitem__(1, mat(2, 4)),
            lambda d: d["slots"][1]["transfers"].__setitem__(0, mat(3, 5)),
            lambda d: d["slots"][0].__setitem__("eve_transfer", mat(2, 4)),
        ],
        "message block": [
            lambda d: d["slots"][0].__setitem__("message", mat(4, 3)),
            lambda d: d["slots"][1].__setitem__("message", mat(3, 4)),
        ],
        "disclosure": [
            lambda d: d["public_messages"]["disclosures"][0].__setitem__("coeffs", mat(1, 3)),
            lambda d: d["public_messages"]["disclosures"][0].__setitem__("terminal", 5),
            lambda d: d["public_messages"]["disclosures"][0].__setitem__("subset", 9),
            lambda d: d["public_messages"]["disclosures"][0].update(subset=1, terminal=1),
            # terminal 1 as JSON true, which equals 1 as a dict key
            lambda d: d["public_messages"]["disclosures"][1].update(terminal=True),
            # a repeated (subset, terminal) entry
            lambda d: d["public_messages"]["disclosures"].append(doc["public_messages"]["disclosures"][0]),
            # subset 3 disclosed to terminal 0 only, shipping keys or not
            lambda d: d["public_messages"]["disclosures"].pop(3),
            lambda d: (withhold(d), d["public_messages"]["disclosures"].pop(3)),
        ],
        "a matrix must be a": [
            lambda d: d["slots"][0].__setitem__("message", d["slots"][0]["message"]["entries"]),
            lambda d: d["public_messages"].__setitem__("ciphers", 7),
        ],
        "matrix entries": [
            lambda d: d["slots"][0]["message"].pop("rows"),
            lambda d: d["slots"][0]["message"]["entries"][0].__setitem__(0, entry + 101),
            lambda d: d["slots"][0]["message"].__setitem__("entries", [flat[:8], flat[8:]]),
            lambda d: d["slots"][1]["message"]["entries"][2].__setitem__(1, True),
            lambda d: d["slots"][1]["message"]["entries"][2].__setitem__(1, -1),
            lambda d: d["slots"][1]["message"]["entries"][2].__setitem__(1, 1.0),
            lambda d: d["slots"][0]["eve_transfer"].__setitem__("entries", []),
            lambda d: d["slots"][0].__setitem__("eve_transfer", {"rows": 0, "cols": 4, "entries": [[1] * 4]}),
            lambda d: d["public_messages"]["disclosures"][0]["coeffs"]["entries"].append([0] * 6),
        ],
        "subset key masks": [
            lambda d: d["keys"]["subset_keys"].__setitem__("9", d["keys"]["subset_keys"]["1"]),
            lambda d: d["keys"]["subset_keys"].__setitem__("0", d["keys"]["subset_keys"]["1"]),
            # mask 1 not written as str(1), and under two spellings
            lambda d: d["keys"]["subset_keys"].__setitem__(" 01", d["keys"]["subset_keys"].pop("1")),
            lambda d: d["keys"]["subset_keys"].update(dict.fromkeys(["01", " 01"], d["keys"]["subset_keys"].pop("1"))),
        ],
        "terminal final keys": [lambda d: d["keys"]["terminal_final"].pop()],
        "params must be plain ints": [
            lambda d: d["params"].update(ell="8"),
            lambda d: d["params"].update(q=101.0),
            lambda d: d["params"].update(na=True),
            lambda d: d["params"].update(ne=1.0),
            lambda d: d["params"].update(n=[3, "3"]),
            lambda d: d["params"].update(n=[3, True]),
            lambda d: d["params"].update(n="33"),
            lambda d: d["params"].update(n=3),
        ],
        "audit block": [
            audit(key_blocks=999),
            audit(key_blocks=5.0),
            audit(key_blocks=0, achieved_per_slot="0"),
            audit(reasons="abc"),
            audit(reasons=[1], degenerate=True),
            audit(achieved_per_slot="7/3"),
            audit(achieved_per_slot="10/4"),
            audit(achieved_per_slot=2.5),
            audit(leakage_certificate="no"),
            audit(subset_agreement=1),
            audit(final_agreement=[]),
            audit(degenerate=True),
            audit(degenerate=None),
            audit(reasons=["slot 0: event"]),
            audit(reasons=["slot 0: event"], degenerate=True),
            lambda d: (withhold(d), audit(key_blocks=5, achieved_per_slot="5/2")(d)),
            lambda d: (withhold(d), audit(degenerate=False)(d)),
            lambda d: (withhold(d), d["keys"]["subset_keys"].update({"1": doc["keys"]["subset_keys"]["1"]})),
            lambda d: (withhold(d), d["keys"]["terminal_final"].__setitem__(1, doc["keys"]["terminal_final"][1])),
            # subset 1 ships its key, but none of its disclosures
            lambda d: d["public_messages"]["disclosures"].pop(0),
        ],
        # a field missing, or of the wrong JSON type, outside a matrix
        "malformed transcript: TypeError": [
            lambda d: d["public_messages"]["disclosures"].__setitem__(0, 5),
            lambda d: d.update(slots=3),
            lambda d: d["slots"][0].update(transfers=7),
            lambda d: d["keys"].update(subset_keys=list(d["keys"]["subset_keys"].values())),
            lambda d: d["keys"].update(terminal_final=3),
        ],
        "malformed transcript: KeyError": [
            lambda d: d["public_messages"]["disclosures"][0].pop("coeffs"),
            lambda d: d.pop("params"),
            lambda d: d.pop("public_messages"),
            lambda d: d["audit"].pop("key_blocks"),
        ],
    }
    for match, edits in cases.items():
        for edit in edits:
            with pytest.raises(ValueError, match=match):
                load(broken(edit))


def test_session_transcript_load_checks_the_agreement_flags_and_the_certificate():
    # the flags are not taken on trust: load compares the terminal copies it
    # rebuilds from the disclosures with the shipped subset keys, and the
    # terminals' final keys with the final key, and a non-degenerate audit
    # must carry a passing certificate
    p = P(101, 8, 4, [3, 3], 1)
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
    res = run_session(p, 3, alloc, np.random.default_rng(5))
    assert not res.audit.degenerate
    doc = res.to_json_dict()
    load = agreement.SessionResult.from_json_dict
    assert load(doc) == res

    def bump(mat):
        mat["entries"][0][0] = (mat["entries"][0][0] + 1) % 101

    def broken(edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        return bad

    tampered = {
        "subset key": lambda d: bump(d["keys"]["subset_keys"]["1"]),
        "terminal final key": lambda d: bump(d["keys"]["terminal_final"][1]),
        "subset agreement": lambda d: d["audit"].update(subset_agreement=False),
        "final agreement": lambda d: d["audit"].update(final_agreement=False),
        "false certificate": lambda d: d["audit"].update(leakage_certificate=False),
        "no certificate": lambda d: d["audit"].update(leakage_certificate=None),
    }
    for name, edit in tampered.items():
        with pytest.raises(ValueError, match="audit block"):
            load(broken(edit))
    # nor are the public code and ciphers: the ciphers must be the code times
    # the final key, padded with the subset keys stacked in mask order, and a
    # code comes with its ciphers
    tampered_public = {
        "a cipher entry": lambda d: bump(d["public_messages"]["ciphers"]),
        "a code entry": lambda d: bump(d["public_messages"]["multicast_code"]),
        "null ciphers": lambda d: d["public_messages"].update(ciphers=None),
    }
    for name, edit in tampered_public.items():
        with pytest.raises(ValueError, match="ciphers"):
            load(broken(edit))
    # nor is the code: load rebuilds it from the disclosed subsets' row
    # counts, also where no final key ships to check the ciphers against (a
    # failed certificate at q = 2 with a code and a cipher entry flipped),
    # and where the ciphers were recomputed to match (m = 3, code row 0 moved)
    def session_doc(p, slots, seed):
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(p))
        return run_session(p, slots, alloc, np.random.default_rng(seed)).to_json_dict()

    failed = session_doc(P(2, 6, 4, [3, 3], 1), 2, 15)
    assert failed["audit"]["reasons"] == ["leakage certificate failed, keys withheld"]
    for name in ("multicast_code", "ciphers"):
        failed["public_messages"][name]["entries"][0][0] ^= 1
    m3 = session_doc(P(101, 9, 6, [4, 4, 4], 2), 3, 0)
    keys = m3["keys"]
    code = np.array(m3["public_messages"]["multicast_code"]["entries"])
    code[0] = (code[0] + 1) % 101
    pads = np.vstack([keys["subset_keys"][mask]["entries"] for mask in sorted(keys["subset_keys"], key=int)])
    m3["public_messages"]["multicast_code"]["entries"] = code.tolist()
    m3["public_messages"]["ciphers"]["entries"] = ((code @ keys["final_key"]["entries"] + pads) % 101).tolist()
    for bad in (failed, m3):
        with pytest.raises(ValueError, match="not the combination code"):
            load(bad)
    # flags that report the shipped keys' disagreement are consistent; the
    # bumped subset key pads the first cipher row, which moves with it
    flagged = load(
        broken(
            lambda d: (
                bump(d["keys"]["subset_keys"]["1"]),
                bump(d["public_messages"]["ciphers"]),
                d["audit"].update(subset_agreement=False),
            )
        )
    )
    assert flagged.audit.subset_agreement is False
    # an empty session ran no audit, so it carries no flags
    empty = run_session(p, 0, alloc, np.random.default_rng(5)).to_json_dict()
    with pytest.raises(ValueError, match="audit block"):
        load({**empty, "audit": {**empty["audit"], "leakage_certificate": True}})
