import itertools
from fractions import Fraction

import numpy as np
import pytest

from nckey.channel import (
    ChannelParams,
    broadcast_slot,
    make_source_matrix,
    matrix_transition_prob,
    subspace_transition_prob,
)
from nckey.fieldmath import FieldCtx, MatrixFq, random_matrix, rank, vstack, zeros
from nckey.subspaces import iter_all_subspaces, span_of, subspaces_within, zero_subspace

F2 = FieldCtx(2)


def all_matrices(rows, cols, ctx):
    for entries in itertools.product(range(ctx.q), repeat=rows * cols):
        yield MatrixFq(np.array(entries, dtype=np.int64).reshape(rows, cols), ctx)


def test_params_validation():
    ChannelParams(F2, 3, 2, (1,), 1)
    with pytest.raises(ValueError):
        ChannelParams(F2, 3, 3, (1,), 1)  # needs n_a < ell
    with pytest.raises(ValueError):
        ChannelParams(F2, 3, 0, (1,), 1)
    with pytest.raises(ValueError):
        ChannelParams(F2, 3, 2, (), 1)
    with pytest.raises(ValueError):
        ChannelParams(F2, 3, 2, (1,), -1)


def test_make_source_matrix():
    p = ChannelParams(F2, 2, 1, (1,), 0)
    x = make_source_matrix(MatrixFq([[1]], F2), p)
    assert x.tolist() == [[1, 1]]
    p5 = ChannelParams(FieldCtx(5), 6, 3, (2,), 1)
    z = make_source_matrix(zeros(3, 3, FieldCtx(5)), p5)
    assert rank(z) == 3
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = random_matrix(3, 3, FieldCtx(5), rng)
        assert rank(make_source_matrix(m, p5)) == 3  # identity block forces full rank
    with pytest.raises(ValueError):
        make_source_matrix(zeros(2, 3, FieldCtx(5)), p5)


def test_broadcast_slot_shapes_and_exactness():
    params = ChannelParams(FieldCtx(7), 5, 3, (2, 0), 1)
    rng = np.random.default_rng(4)
    x_a = make_source_matrix(random_matrix(3, 2, FieldCtx(7), rng), params)
    obs = broadcast_slot(x_a, params, rng)
    assert obs.transfers[0].shape == (2, 3) and obs.received[0].shape == (2, 5)
    assert obs.transfers[1].shape == (0, 3) and obs.received[1].shape == (0, 5)
    for f, x in zip(obs.transfers, obs.received):
        assert (f @ x_a) == x
        assert span_of(x_a).contains(span_of(x))
    assert (obs.eve_transfer @ x_a) == obs.eve_received


def test_broadcast_zero_source():
    params = ChannelParams(F2, 3, 2, (2,), 1)
    obs = broadcast_slot(zeros(2, 3, F2), params, np.random.default_rng(1))
    assert not np.any(obs.received[0].arr)
    assert not np.any(obs.eve_received.arr)


def test_broadcast_single_packet_hit_rate():
    # q=2, n_A=1, n_r=1: the receiver sees x_A itself with probability 1/2
    params = ChannelParams(F2, 2, 1, (1,), 0)
    x_a = make_source_matrix(MatrixFq([[1]], F2), params)
    rng = np.random.default_rng(13)
    n = 10_000
    hits = sum(broadcast_slot(x_a, params, rng).received[0] == x_a for _ in range(n))
    sigma = (n * 0.25) ** 0.5
    assert abs(hits - n / 2) <= 5 * sigma


def test_matrix_transition_prob_cases():
    x_a = MatrixFq([[1, 0, 1], [0, 1, 1]], F2)
    empty = zeros(0, 3, F2)
    assert matrix_transition_prob(empty, x_a, 0) == 1
    outside = MatrixFq([[1, 1, 1]], F2)  # span is {0,(1,0,1),(0,1,1),(1,1,0)}
    assert matrix_transition_prob(outside, x_a, 1) == 0
    inside = MatrixFq([[1, 0, 1]], F2)
    assert matrix_transition_prob(inside, x_a, 1) == Fraction(1, 4)


def test_matrix_transition_sums_to_one():
    # exhaustive at q=2, ell=3, n_A=2, for every source matrix and n_r in {1,2}
    for x_a in all_matrices(2, 3, F2):
        for n_r in (1, 2):
            total = sum(
                matrix_transition_prob(x_r, x_a, n_r) for x_r in all_matrices(n_r, 3, F2)
            )
            assert total == 1


@pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1])
def test_matrix_transition_quotient_matches_the_stacked_rank_law(q):
    # the law read off x_r modulo rowspan(x_a) equals the stacked-rank form,
    # q^(-n_r rank x_a) when rank [x_a; x_r] = rank x_a and 0 otherwise, on
    # sources of every rank and observations inside and outside their span
    ctx, rng = FieldCtx(q), np.random.default_rng(q)
    verdicts = set()
    for _ in range(80):
        ell, n_a, n_r = (int(x) for x in rng.integers(1, 7, size=3))
        inner = int(rng.integers(0, min(n_a, ell) + 1))
        x_a = random_matrix(n_a, inner, ctx, rng) @ random_matrix(inner, ell, ctx, rng)
        x_r = random_matrix(n_r, n_a, ctx, rng) @ x_a
        if rng.integers(2):
            x_r = vstack([MatrixFq(x_r.arr[1:], ctx), random_matrix(1, ell, ctx, rng)])
        r_a = rank(x_a)
        inside = rank(vstack([x_a, x_r])) == r_a
        want = Fraction(1, q ** (n_r * r_a)) if inside else Fraction(0)
        assert matrix_transition_prob(x_r, x_a, n_r) == want
        verdicts.add(inside)
    assert verdicts == {True, False}


def test_subspace_transition_prob_cases():
    q5 = FieldCtx(5)
    pi_a = span_of(MatrixFq([[1, 0, 0], [0, 1, 0]], q5))
    z = zero_subspace(3, q5)
    assert subspace_transition_prob(z, pi_a, 2) == Fraction(1, 5**4)
    outside = span_of(MatrixFq([[0, 0, 1]], q5))
    assert subspace_transition_prob(outside, pi_a, 1) == 0
    # q=2, n_i=1, dim pi_a = 1: both outcomes have probability 1/2
    line = span_of(MatrixFq([[1, 1]], F2))
    assert subspace_transition_prob(zero_subspace(2, F2), line, 1) == Fraction(1, 2)
    assert subspace_transition_prob(line, line, 1) == Fraction(1, 2)
    # dim above n_i is impossible
    assert subspace_transition_prob(pi_a, pi_a, 1) == 0


def test_subspace_transition_sums_to_one():
    for q in (2, 3):
        ctx = FieldCtx(q)
        for ambient in (2, 3, 4):
            for pi_a in iter_all_subspaces(ambient, ctx, max_dim=min(3, ambient)):
                for n_i in (1, 2):
                    total = sum(
                        subspace_transition_prob(s, pi_a, n_i)
                        for s in subspaces_within(pi_a, max_dim=n_i)
                    )
                    assert total == 1, (q, ambient, pi_a.dim, n_i)


def test_matrix_law_induces_subspace_law():
    # q=2, ell=3, n_A=2, full-rank sources: pushing the matrix law through
    # row spans reproduces the subspace law exactly
    for x_a in all_matrices(2, 3, F2):
        if rank(x_a) != 2:
            continue
        pi_a = span_of(x_a)
        for n_r in (1, 2):
            induced: dict = {}
            denom = 2 ** (n_r * 2)
            for f in all_matrices(n_r, 2, F2):
                pi = span_of(f @ x_a)
                induced[pi] = induced.get(pi, Fraction(0)) + Fraction(1, denom)
            for pi, p in induced.items():
                assert p == subspace_transition_prob(pi, pi_a, n_r)


def test_receivers_independent():
    # the joint law over (receiver subspace, eavesdropper subspace) factorizes
    params = ChannelParams(F2, 3, 2, (1,), 1)
    x_a = MatrixFq([[1, 0, 1], [0, 1, 0]], F2)
    joint: dict = {}
    p1: dict = {}
    pe: dict = {}
    total = Fraction(0)
    for f1 in all_matrices(1, 2, F2):
        for fe in all_matrices(1, 2, F2):
            s1, se = span_of(f1 @ x_a), span_of(fe @ x_a)
            w = Fraction(1, 16)
            joint[(s1, se)] = joint.get((s1, se), Fraction(0)) + w
            p1[s1] = p1.get(s1, Fraction(0)) + w
            pe[se] = pe.get(se, Fraction(0)) + w
            total += w
    assert total == 1
    for (s1, se), p in joint.items():
        assert p == p1[s1] * pe[se]
