import itertools
import math
from fractions import Fraction

import pytest

from nckey.bounds import (
    asymptotic_cmi_coefficient,
    best_uniform_input_cmi,
    exact_cmi_oracle,
    generic_dims,
    no_feedback_two_terminal_rate,
    symmetric_pair_dims,
    three_terminal_rate,
    two_terminal_rate,
    upper_bound,
)
from nckey.channel import ChannelParams, subspace_transition_prob
from nckey.fieldmath import FieldCtx, mat_mul
from nckey.subspaces import (
    Subspace,
    gaussian_binomial,
    iter_all_subspaces,
    iter_subspaces,
    span_of,
    spanning_matrix_count,
)
from references import dims_law

F2 = FieldCtx(2)


def P(q, ell, na, n, ne):
    return ChannelParams(FieldCtx(q), ell, na, tuple(n), ne)


def test_upper_bound_examples():
    # an all-powerful eavesdropper kills the rate
    assert upper_bound(P(101, 9, 4, [3], 4)) == 0
    # no eavesdropper, single receiver with n_b <= n_a
    p = P(101, 9, 4, [3], 0)
    assert upper_bound(p) == 3 * (9 - 3)
    # the two symmetric example setups
    assert upper_bound(P(101, 70, 60, [15, 15], 10)) == 15 * 45 == 675


def test_upper_bound_min_over_receivers():
    p = P(101, 12, 6, [2, 5], 1)
    per = [
        (min(6, ni + 1) - 1) * (12 - min(6, ni + 1))
        for ni in (2, 5)
    ]
    assert upper_bound(p) == min(per)


def test_two_terminal_examples():
    assert two_terminal_rate(P(101, 9, 4, [2], 4)) == 0
    p = P(101, 8, 4, [2], 1)
    assert two_terminal_rate(p) == (3 - 1) * (8 - 3) == 10
    with pytest.raises(ValueError):
        two_terminal_rate(P(101, 8, 4, [2, 2], 1))


def test_two_terminal_equals_upper_bound_after_reduction():
    # the m=1 lower and upper bounds coincide once the source drops to
    # n_a' = min(n_a, n_b + n_e) injected packets
    for n_a in range(1, 7):
        for n_b in range(0, n_a + 1):
            for n_e in range(0, n_a + 1):
                for ell in range(n_a + 1, 13):
                    p = P(101, ell, n_a, [n_b], n_e)
                    reduced = max(1, min(n_a, n_b + n_e))
                    p_red = P(101, ell, reduced, [n_b], n_e)
                    assert two_terminal_rate(p) == upper_bound(p_red)


def test_no_feedback_rate():
    assert no_feedback_two_terminal_rate(P(101, 8, 4, [2], 2)) == 0
    p = P(101, 8, 4, [2], 1)
    assert no_feedback_two_terminal_rate(p) == 1 * (8 - 2) == 6
    # public discussion strictly helps here
    assert two_terminal_rate(p) == 10 > 6


def test_three_terminal_examples():
    # per slot: (ell - n_a) = 10 times the per-dof closed form
    assert three_terminal_rate(P(101, 70, 60, [15, 15], 20)) == 15 * 10
    assert three_terminal_rate(P(101, 70, 60, [45, 45], 0)) == 45 * 10
    assert three_terminal_rate(P(101, 70, 60, [45, 45], 60)) == 0
    with pytest.raises(ValueError):
        three_terminal_rate(P(101, 70, 60, [45, 30], 0))


def test_three_terminal_below_upper_bound():
    for n_a in range(1, 13):
        for n_b in range(0, n_a + 1):
            for n_e in range(0, n_a + 1):
                for ell in range(n_a + 1, n_a + 7):
                    p = P(101, ell, n_a, [n_b, n_b], n_e)
                    low = three_terminal_rate(p)
                    up = upper_bound(p)
                    assert low <= up, (n_a, n_b, n_e, ell, low, up)


def test_rate_expression_normalization():
    # every rate is one Fraction, the coefficient of log q per slot; the
    # symmetric closed form is (ell - n_a) times its per-dof value
    p = P(101, 8, 4, [2], 1)
    for rate in (upper_bound, two_terminal_rate, no_feedback_two_terminal_rate):
        assert type(rate(p)) is Fraction
    for n_b, n_e in ((3, 1), (2, 0), (4, 4)):
        p = P(101, 9, 5, [n_b, n_b], n_e)
        assert type(upper_bound(p)) is Fraction and type(three_terminal_rate(p)) is Fraction
        u_single, u_shared = symmetric_pair_dims(p)
        per_dof = min(Fraction(u_single + u_shared), Fraction(p.n_a + u_shared - p.n_e, 2))
        assert three_terminal_rate(p) / (p.ell - p.n_a) == per_dof


def test_generic_dims_examples():
    assert generic_dims([3], 5) == (3, 3)
    assert generic_dims([2, 2], 3) == (3, 1)
    assert generic_dims([1, 1], 3) == (2, 0)
    with pytest.raises(ValueError):
        generic_dims([4], 3)


def test_generic_dims_match_sampling_at_large_q():
    # exactly, by the meet law: at q = 101 two uniform subspaces of F_q^3 of
    # any dims are in generic position with probability above 0.9
    for dims in itertools.product(range(4), repeat=2):
        law = dims_law(dims, 3, 101)
        assert law[generic_dims(dims, 3)] * 10 > sum(law.values()) * 9


def uniform_dim_distribution(ell: int, dim: int, ctx: FieldCtx) -> dict[Subspace, Fraction]:
    """Uniform distribution over all dim-dimensional subspaces of F_q^ell."""
    subs = list(iter_subspaces(ell, dim, ctx))
    return {s: Fraction(1, len(subs)) for s in subs}


def reference_terms(params: ChannelParams, input_dist: dict[Subspace, Fraction]):
    """(pi_a, pi_i, pi_e, p, ratio) for every triple of positive probability,
    p = P(pi_a, pi_i, pi_e) and ratio = p P(pi_e) / (P(pi_a, pi_e) P(pi_i, pi_e)),
    both exact Fractions keyed by Subspace objects, each observation
    re-eliminated by span_of and its law taken from subspace_transition_prob."""

    def within(pi_a, max_dim):
        for d in range(max_dim + 1):
            for coords in iter_subspaces(pi_a.dim, d, pi_a.ctx):
                yield span_of(mat_mul(coords.basis, pi_a.basis))

    n_i, n_e = params.n[0], params.n_e
    joint: dict[tuple[Subspace, Subspace, Subspace], Fraction] = {}
    for pi_a, p_a in input_dist.items():
        if p_a == 0:
            continue
        outs_i = [
            (s, subspace_transition_prob(s, pi_a, n_i))
            for s in within(pi_a, min(n_i, pi_a.dim))
        ]
        outs_e = [
            (s, subspace_transition_prob(s, pi_a, n_e))
            for s in within(pi_a, min(n_e, pi_a.dim))
        ]
        for pi_i, p_i in outs_i:
            for pi_e, p_e in outs_e:
                p = p_a * p_i * p_e
                if p:
                    key = (pi_a, pi_i, pi_e)
                    joint[key] = joint.get(key, Fraction(0)) + p

    p_e: dict[Subspace, Fraction] = {}
    p_ae: dict[tuple[Subspace, Subspace], Fraction] = {}
    p_ie: dict[tuple[Subspace, Subspace], Fraction] = {}
    for (a, i, e), p in joint.items():
        p_e[e] = p_e.get(e, Fraction(0)) + p
        p_ae[(a, e)] = p_ae.get((a, e), Fraction(0)) + p
        p_ie[(i, e)] = p_ie.get((i, e), Fraction(0)) + p
    for (a, i, e), p in joint.items():
        yield a, i, e, p, (p * p_e[e]) / (p_ae[(a, e)] * p_ie[(i, e)])


def _cmi_of_terms(terms) -> float:
    # fsum: only the terms are rounded, not their running sum
    return max(math.fsum(float(p) * math.log(float(ratio)) for *_, p, ratio in terms), 0.0)


def reference_cmi_oracle(params: ChannelParams, input_dist: dict[Subspace, Fraction]) -> float:
    """I(pi_a; pi_i | pi_e) in nats for any input distribution, by exhaustive
    Fraction enumeration of the triples: the reference for exact_cmi_oracle."""
    return _cmi_of_terms(reference_terms(params, input_dist))


def orbit_law(params: ChannelParams, k: int) -> dict[tuple[int, int, int], Fraction]:
    """P(dim pi_e = e, dim pi_i = d, dim(pi_i + pi_e) = u) for the source
    uniform over the k-subspaces of F_q^ell: the weights w / D that
    exact_cmi_oracle's docstring states, as exact Fractions."""
    ctx, ell, q = params.ctx, params.ell, params.ctx.q
    n_i, n_e = params.n[0], params.n_e

    def G(n, r):
        return gaussian_binomial(n, r, ctx)

    def S(n, r):
        return spanning_matrix_count(n, r, ctx)

    denom = G(ell, k) * q ** ((n_i + n_e) * k)
    law = {}
    for e in range(min(n_e, k) + 1):
        for d in range(min(n_i, k) + 1):
            for j in range(max(0, d + e - k), min(d, e) + 1):
                u = d + e - j
                pairs = G(ell, e) * G(e, j) * q ** ((d - j) * (e - j)) * G(ell - e, d - j)
                law[e, d, u] = Fraction(pairs * G(ell - u, k - u) * S(n_i, d) * S(n_e, e), denom)
    return law


def _assert_orbit_law(p: ChannelParams, k: int) -> None:
    """The enumerated joint law, bucketed by (e, d, u), is the orbit law;
    each triple's ratio is G(ell-e, k-e) / G(ell-u, k-u); and the oracle's
    float is the reference's within 1e-12."""
    terms = list(reference_terms(p, uniform_dim_distribution(p.ell, k, p.ctx)))
    law: dict[tuple[int, int, int], Fraction] = {}
    sums: dict[tuple[Subspace, Subspace], int] = {}
    for _, pi_i, pi_e, prob, ratio in terms:
        e = pi_e.dim
        if (pi_i, pi_e) not in sums:
            sums[pi_i, pi_e] = (pi_i + pi_e).dim
        u = sums[pi_i, pi_e]
        law[e, pi_i.dim, u] = law.get((e, pi_i.dim, u), Fraction(0)) + prob
        g_e = gaussian_binomial(p.ell - e, k - e, p.ctx)
        assert ratio == Fraction(g_e, gaussian_binomial(p.ell - u, k - u, p.ctx)), (p, k)
    assert law == orbit_law(p, k), (p, k)
    assert abs(exact_cmi_oracle(p, k) - _cmi_of_terms(terms)) <= 1e-12, (p, k)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_orbit_law_equals_the_reference_enumeration(q):
    # every (ell, k, n_i, n_e) with ell <= 3 and n_i, n_e <= 2; n_a only bounds k.
    # ell = 4 runs at q = 2 only (next test): its Fraction enumeration takes
    # about 20 s at q = 3 and 6 minutes at q = 5.
    for ell in (2, 3):
        for n_i in range(3):
            for n_e in range(3):
                for k in range(ell):
                    _assert_orbit_law(P(q, ell, ell - 1, [n_i], n_e), k)


def test_oracle_equals_the_fraction_reference_on_ell4_shapes_at_q2():
    for n_i in range(4):
        for n_e in range(4):
            for k in range(4):
                _assert_orbit_law(P(2, 4, 3, [n_i], n_e), k)


def test_oracle_runs_past_the_old_gate():
    # no size gate: q = 7 and ell = 5 give the reference's values
    for p, k in ((P(7, 3, 2, [1], 1), 2), (P(2, 5, 2, [1], 1), 2)):
        value = exact_cmi_oracle(p, k)
        assert value > 0
        want = reference_cmi_oracle(p, uniform_dim_distribution(p.ell, k, p.ctx))
        assert abs(value - want) <= 1e-12


def test_oracle_input_validation():
    with pytest.raises(ValueError, match="one terminal"):
        exact_cmi_oracle(P(2, 3, 2, [1, 1], 1), 1)
    for k in (-1, 3):
        with pytest.raises(ValueError, match="input_dim"):
            exact_cmi_oracle(P(2, 3, 2, [1], 1), k)


def test_oracle_no_receiver_is_zero():
    assert exact_cmi_oracle(P(2, 3, 2, [0], 1), 2) == 0.0


def test_oracle_point_mass_is_zero():
    # a deterministic input carries no information
    p = P(2, 3, 2, [1], 1)
    s = next(iter(iter_subspaces(3, 2, F2)))
    assert reference_cmi_oracle(p, {s: Fraction(1)}) == 0.0


def test_oracle_strong_eavesdropper_vanishes_with_q():
    # n_e >= ell: the eavesdropper captures everything as q grows
    vals = {}
    for q in (2, 3):
        p = P(q, 2, 1, [1], 2)
        dist = uniform_dim_distribution(2, 1, FieldCtx(q))
        vals[q] = reference_cmi_oracle(p, dist) / math.log(q)
    assert vals[3] < vals[2]
    assert vals[3] < 0.2


def _candidate_inputs(q):
    """A point mass, a two-dim mixture, and uniform over every subspace of
    dim <= 2 of F_q^3."""
    ctx = FieldCtx(q)
    inputs = [{next(iter(iter_subspaces(3, 2, ctx))): Fraction(1)}]
    mix = {}
    for d in (1, 2):
        for sub, pr in uniform_dim_distribution(3, d, ctx).items():
            mix[sub] = mix.get(sub, Fraction(0)) + pr / 2
    inputs.append(mix)
    everything = list(iter_all_subspaces(3, ctx, max_dim=2))
    inputs.append({sub: Fraction(1, len(everything)) for sub in everything})
    return inputs


def _cmi_candidates(q):
    """Oracle CMI of each fixed-dim uniform input, and reference CMI of the
    _candidate_inputs."""
    p = P(q, 3, 2, [1], 1)
    fixed = [exact_cmi_oracle(p, d) for d in range(3)]
    return fixed, [reference_cmi_oracle(p, dist) for dist in _candidate_inputs(q)]


def test_oracle_maximizer_is_uniform_fixed_dimension_at_q5():
    # From q=5 on this instance the family maximum is attained by a
    # uniform-over-one-dimension input, as the large-field theory predicts.
    fixed, others = _cmi_candidates(5)
    assert max(others) <= max(fixed) + 1e-12


def test_oracle_mixtures_win_at_tiny_q():
    # The fixed-dimension optimality is an asymptotic statement: at q=2 the
    # concavity of conditional MI makes dimension mixtures strictly better.
    # (Cross-checked against an exhaustive matrix-level computation.)
    fixed, others = _cmi_candidates(2)
    assert max(others) > max(fixed) + 1e-9


def test_oracle_trend_and_asymptote():
    # normalized best CMI grows with q toward the asymptotic coefficient
    p2 = P(2, 3, 2, [1], 1)
    assert asymptotic_cmi_coefficient(p2) == 1
    normalized = []
    for q in (2, 3, 5):
        p = P(q, 3, 2, [1], 1)
        cmi, best_dim = best_uniform_input_cmi(p)
        normalized.append(cmi / math.log(q))
        assert best_dim == 2
    assert normalized[0] <= normalized[1] <= normalized[2] <= 1.0
    gaps = [1.0 - v for v in normalized]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 0.15


@pytest.mark.parametrize(
    "ell, n_a, n_i, n_e, inside",
    [(3, 2, 1, 1, True), (4, 3, 3, 0, False)],
)
def test_large_field_cmi_per_input_dim(ell, n_a, n_i, n_e, inside):
    # At q = 2^31 - 1, I / log q at input dim k is within 1e-6 of
    # (min[n_i+n_e, k] - min[n_e, k])(ell - k).  The cut coefficient is the
    # maximum over k only when 2 cut <= ell + n_e + 1; (4, 3, 3, 0) lies
    # outside that condition, and its k = 2 scores 4 > 3.
    p = P(2**31 - 1, ell, n_a, [n_i], n_e)
    limits = [(min(n_i + n_e, k) - min(n_e, k)) * (ell - k) for k in range(n_a + 1)]
    for k, limit in enumerate(limits):
        assert abs(exact_cmi_oracle(p, k) / math.log(p.ctx.q) - limit) <= 1e-6, (p, k)
    cut = min(n_a, n_i + n_e)
    assert (2 * cut <= ell + n_e + 1) == inside
    assert (max(limits) == asymptotic_cmi_coefficient(p)) == inside


@pytest.mark.parametrize("q", [2, 3, 5])
def test_oracle_equals_the_fraction_reference_on_the_candidate_family(q):
    # the fixed-dim members are covered by the orbit-law grid above; the
    # reference alone scores the point mass and the mixtures
    for n_i, n_e in ((1, 1), (2, 0), (0, 2), (2, 1)):
        p = P(q, 3, 2, [n_i], n_e)
        point, *mixtures = [reference_cmi_oracle(p, dist) for dist in _candidate_inputs(q)]
        assert point == 0.0
        # a receiver that sees nothing learns nothing
        assert all(v > 0 for v in mixtures) if n_i else mixtures == [0.0, 0.0]


def test_oracle_equals_the_fraction_reference_at_edge_inputs():
    ctx = FieldCtx(3)
    # n_e >= ell: the eavesdropper may see all of the input
    for n_e in (3, 4):
        p = P(3, 3, 2, [1], n_e)
        assert abs(exact_cmi_oracle(p, 2) - reference_cmi_oracle(p, uniform_dim_distribution(3, 2, ctx))) <= 1e-12
    # a zero-probability entry, at the front of the support, changes nothing
    lines = uniform_dim_distribution(3, 1, ctx)
    planes = list(iter_subspaces(3, 2, ctx))
    skewed = {s: pr / 3 for s, pr in lines.items()}
    skewed.update({planes[1]: Fraction(1, 3), planes[2]: Fraction(1, 3)})
    value = reference_cmi_oracle(P(3, 3, 2, [1], 1), skewed)
    assert value > 0
    assert reference_cmi_oracle(P(3, 3, 2, [1], 1), {planes[0]: Fraction(0), **skewed}) == value
    # unequal denominators, a mass on the zero subspace among them; the CMI
    # is at most H(pi_a)
    zero = next(iter(iter_subspaces(3, 0, ctx)))
    mixed = {zero: Fraction(1, 7), planes[5]: Fraction(2, 7 * 3), planes[6]: Fraction(4, 7 * 3)}
    mixed.update({s: Fraction(4, 7) * pr for s, pr in lines.items()})
    assert sum(mixed.values()) == 1
    entropy = -math.fsum(float(pr) * math.log(float(pr)) for pr in mixed.values())
    assert 0 < reference_cmi_oracle(P(3, 3, 2, [2], 1), mixed) <= entropy
