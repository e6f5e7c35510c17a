import itertools
from collections import Counter
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
from references import draw_law

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
    # over every draw of the transfers, each observation is received as
    # often as matrix_transition_prob says
    ctx = FieldCtx(3)
    params = ChannelParams(ctx, 3, 2, (1,), 1)
    x_a = make_source_matrix(MatrixFq([[1], [2]], ctx), params)
    law = draw_law(lambda rng: broadcast_slot(x_a, params, rng).received[0], 3, [2, 2])
    assert all(law[x_r] == matrix_transition_prob(x_r, x_a, 1) * 3**4 for x_r in all_matrices(1, 3, ctx))


def test_matrix_transition_prob_cases():
    x_a = MatrixFq([[1, 0, 1], [0, 1, 1]], F2)
    empty = zeros(0, 3, F2)
    assert matrix_transition_prob(empty, x_a, 0) == 1
    outside = MatrixFq([[1, 1, 1]], F2)  # span is {0,(1,0,1),(0,1,1),(1,1,0)}
    assert matrix_transition_prob(outside, x_a, 1) == 0
    inside = MatrixFq([[1, 0, 1]], F2)
    assert matrix_transition_prob(inside, x_a, 1) == Fraction(1, 4)


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


def test_receivers_independent():
    # over every draw of the transfers, the joint law of (receiver subspace,
    # eavesdropper subspace) factorizes
    params = ChannelParams(F2, 3, 2, (1,), 1)
    x_a = MatrixFq([[1, 0, 1], [0, 1, 0]], F2)

    def views(rng):
        obs = broadcast_slot(x_a, params, rng)
        return span_of(obs.received[0]), span_of(obs.eve_received)

    joint = draw_law(views, 2, [2, 2])
    receiver, eve = Counter(), Counter()
    for (s1, se), count in joint.items():
        receiver[s1] += count
        eve[se] += count
    assert sum(joint.values()) == 16 and all(c * 16 == receiver[s1] * eve[se] for (s1, se), c in joint.items())
