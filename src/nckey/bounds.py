"""Closed-form secret-key rate bounds plus a brute-force conditional mutual
information oracle that validates the asymptotic formulas at small field size.

All bound formulas are rational in the channel counts, so rates are carried as
exact Fraction coefficients of log q.  The oracle's joint law is exact too:
integer weights over one common denominator.  Only the final log sums are
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .channel import ChannelParams
from .fieldmath import FieldCtx
from .subspaces import Subspace, gaussian_binomial, spanning_matrix_count, subspaces_within

ABSOLUTE = "absolute"
PER_DOF = "per_dof"  # per (ell - n_a) * log q


def _pos(x: int) -> int:
    return x if x > 0 else 0


@dataclass(frozen=True)
class RateExpression:
    """A rate as coefficient * log q, tagged with its normalization."""

    coefficient: Fraction
    normalization: str

    def __post_init__(self):
        if self.normalization not in (ABSOLUTE, PER_DOF):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.coefficient < 0:
            raise ValueError(f"rate coefficient must be nonnegative, got {self.coefficient}")

    def absolute(self, params: ChannelParams) -> Fraction:
        if self.normalization == ABSOLUTE:
            return self.coefficient
        return self.coefficient * (params.ell - params.n_a)

    def per_dof(self, params: ChannelParams) -> Fraction:
        if self.normalization == PER_DOF:
            return self.coefficient
        return self.coefficient / (params.ell - params.n_a)


def _cut(params: ChannelParams, n_i: int) -> tuple[int, int]:
    """(cut, coefficient) of one terminal's cut: cut = min[n_a, n_i+n_e] and
    coefficient (cut - n_e)^+ (ell - cut)."""
    cut = min(params.n_a, n_i + params.n_e)
    return cut, _pos(cut - params.n_e) * (params.ell - cut)


def upper_bound(params: ChannelParams) -> RateExpression:
    """min over terminals i of (min[n_a, n_i+n_e] - n_e)(ell - min[n_a, n_i+n_e]);
    zero when the eavesdropper matches the source (n_e >= n_a)."""
    return RateExpression(Fraction(min(_cut(params, n_i)[1] for n_i in params.n)), ABSOLUTE)


def two_terminal_rate(params: ChannelParams) -> RateExpression:
    """Single-receiver achievable rate with the source reduced to
    n_a' = min(n_a, n_b+n_e) injected packets; matches upper_bound at n_a',
    so this is the m=1 capacity."""
    if params.m != 1:
        raise ValueError(f"two_terminal_rate needs exactly one terminal, got m={params.m}")
    return upper_bound(params)


def no_feedback_two_terminal_rate(params: ChannelParams) -> RateExpression:
    """Single-receiver capacity when public discussion is not available:
    [n_b - n_e]^+ (ell - n_b); positive only if n_b > n_e."""
    if params.m != 1:
        raise ValueError(f"no_feedback rate needs exactly one terminal, got m={params.m}")
    n_b = params.n[0]
    if n_b > params.n_a or params.n_e > params.n_a:
        raise ValueError("no_feedback rate assumes n_b <= n_a and n_e <= n_a")
    return RateExpression(Fraction(_pos(n_b - params.n_e) * (params.ell - n_b)), ABSOLUTE)


def symmetric_pair_dims(params: ChannelParams) -> tuple[int, int]:
    """Generic dimensions (dim U_single, dim U_shared) for the symmetric
    two-receiver setup: the part of each terminal's view shared with nobody
    else, and the part shared by both terminals but not the eavesdropper."""
    if params.m != 2:
        raise ValueError(f"needs exactly two terminals, got m={params.m}")
    n_b, n_c = params.n
    if n_b != n_c:
        raise ValueError("closed form requires n_b == n_c; use the allocation LP instead")
    if n_b > params.n_a or params.n_e > params.n_a:
        raise ValueError("closed form assumes n_b = n_c <= n_a and n_e <= n_a")
    n_a, n_e = params.n_a, params.n_e
    u_single = _pos(n_b - _pos(2 * n_b - n_a) - _pos(n_b + n_e - n_a))
    u_shared = min(n_a - n_e, _pos(2 * n_b - n_a))
    return u_single, u_shared


def three_terminal_rate(params: ChannelParams) -> RateExpression:
    """Symmetric two-receiver achievable rate, normalized per (ell-n_a) log q:
    min[u_single + u_shared, (n_a + u_shared - n_e) / 2]."""
    u_single, u_shared = symmetric_pair_dims(params)
    coeff = min(
        Fraction(u_single + u_shared),
        Fraction(params.n_a + u_shared - params.n_e, 2),
    )
    return RateExpression(coeff, PER_DOF)


def generic_dims(dims, ambient: int) -> tuple[int, int]:
    """Dimension of the sum and intersection of independently uniform subspaces
    in generic position: (min[sum d_i, n], [sum d_i - (k-1) n]^+)."""
    dims = list(dims)
    if any(d < 0 or d > ambient for d in dims):
        raise ValueError(f"each dim must lie in [0, {ambient}]")
    total = sum(dims)
    k = len(dims)
    return min(total, ambient), _pos(total - (k - 1) * ambient)


def asymptotic_cmi_coefficient(params: ChannelParams, receiver: int = 0) -> int:
    """Large-field coefficient of max_P I(source; receiver | eavesdropper):
    (min[n_a, n_i+n_e] - n_e)(ell - min[n_a, n_i+n_e])."""
    return _cut(params, params.n[receiver])[1]


class OracleSizeError(ValueError):
    """Raised when an exact-enumeration instance is too large to be feasible."""


def uniform_dim_distribution(ell: int, dim: int, ctx: FieldCtx) -> dict[Subspace, Fraction]:
    """Uniform distribution over all dim-dimensional subspaces of F_q^ell."""
    count = gaussian_binomial(ell, dim, ctx)
    return {s: Fraction(1, count) for s in _all_subspaces_cached(ell, dim, ctx)}


_SUBSPACE_CACHE: dict[tuple[int, int, int], tuple[Subspace, ...]] = {}


def _all_subspaces_cached(ell: int, dim: int, ctx: FieldCtx) -> tuple[Subspace, ...]:
    key = (ell, dim, ctx.q)
    if key not in _SUBSPACE_CACHE:
        from .subspaces import iter_subspaces

        _SUBSPACE_CACHE[key] = tuple(iter_subspaces(ell, dim, ctx))
    return _SUBSPACE_CACHE[key]


def exact_cmi_oracle(params: ChannelParams, input_dist: dict[Subspace, Fraction]) -> float:
    """Exact I(source subspace; receiver subspace | eavesdropper subspace) in nats.

    Enumerates the subspace channel exhaustively under the given input
    distribution: for each input pi_a in order, every pair (pi_i, pi_e) of
    subspaces of pi_a that the receiver and the eavesdropper can observe.
    Below pi_a the channel law depends only on dimensions (see
    ``channel.subspace_transition_prob``), so it is tabulated once per
    (n_r, dim pi_r, dim pi_a).  Joint probabilities are exact: Python ints
    over one common denominator D, summed exactly into the marginals.
    Observations are keyed by the bytes of their canonical RREF bases.  Only
    the final log sums are floating point; each term, (w / D) * log((w w_e) /
    (w_ae w_ie)), is a correctly rounded int division, so it equals the float
    of the same exact rational.

    Args:
        params: Channel shape with a single terminal (m == 1).
        input_dist: Distribution over subspaces of F_q^ell with dim <= n_a;
            probabilities must sum to 1.

    Raises:
        OracleSizeError: If the instance exceeds the exhaustive-enumeration
            gate (ell <= 4, q <= 5, single receiver).
    """
    if params.m != 1 or params.ell > 4 or params.ctx.q > 5:
        raise OracleSizeError(
            "exact enumeration is gated to ell <= 4, q <= 5, one receiver; "
            f"got ell={params.ell}, q={params.ctx.q}, m={params.m}"
        )
    total = sum(input_dist.values(), Fraction(0))
    if total != 1:
        raise ValueError(f"input distribution must sum to 1, got {total}")
    for s in input_dist:
        if s.ambient_dim != params.ell or s.ctx != params.ctx:
            raise ValueError("input distribution support must live in F_q^ell")
        if s.dim > params.n_a:
            raise ValueError(f"input subspace dim {s.dim} exceeds n_a={params.n_a}")

    ctx, n_i, n_e = params.ctx, params.n[0], params.n_e
    support = [(pi_a, Fraction(p_a)) for pi_a, p_a in input_dist.items() if p_a != 0]
    top = max((pi_a.dim for pi_a, _ in support), default=0)
    scale = math.lcm(*(p_a.denominator for _, p_a in support))
    denom = scale * ctx.q ** ((n_i + n_e) * top)
    # P(dim-d observation | dim-k input) * q^(n_r top), an int.
    law = {
        (n_r, d, k): spanning_matrix_count(n_r, d, ctx) * ctx.q ** (n_r * (top - k))
        for n_r in (n_i, n_e)
        for k in range(top + 1)
        for d in range(min(n_r, k) + 1)
    }

    index: dict[bytes, int] = {}
    joint: list[tuple[int, int, int, int]] = []
    for a, (pi_a, p_a) in enumerate(support):
        k = pi_a.dim
        outs = [
            (index.setdefault(s.basis.arr.tobytes(), len(index)), s.dim)
            for s in subspaces_within(pi_a, max_dim=min(max(n_i, n_e), k))
        ]
        w_a = p_a.numerator * (scale // p_a.denominator)
        outs_e = [(e, law[n_e, d, k]) for e, d in outs if d <= n_e]
        for i, d in outs:
            if d <= n_i:
                w_ai = w_a * law[n_i, d, k]
                joint.extend((a, i, e, w_ai * w_e) for e, w_e in outs_e)

    w_e: dict[int, int] = {}
    w_ae: dict[tuple[int, int], int] = {}
    w_ie: dict[tuple[int, int], int] = {}
    for a, i, e, w in joint:
        w_e[e] = w_e.get(e, 0) + w
        w_ae[a, e] = w_ae.get((a, e), 0) + w
        w_ie[i, e] = w_ie.get((i, e), 0) + w

    cmi = 0.0
    for a, i, e, w in joint:
        cmi += (w / denom) * math.log((w * w_e[e]) / (w_ae[a, e] * w_ie[i, e]))
    return max(cmi, 0.0)


def best_uniform_input_cmi(params: ChannelParams) -> tuple[float, int]:
    """Max oracle CMI over uniform-over-a-fixed-dimension input distributions.

    Returns (cmi_nats, best_dim).
    """
    best = (0.0, 0)
    for d in range(params.n_a + 1):
        dist = uniform_dim_distribution(params.ell, d, params.ctx)
        val = exact_cmi_oracle(params, dist)
        if val > best[0]:
            best = (val, d)
    return best
