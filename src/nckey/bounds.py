"""Closed-form secret-key rate bounds plus an exact conditional mutual
information oracle that checks the asymptotic formulas at any field size.

All bound formulas are rational in the channel counts, so every rate is one
exact Fraction: its coefficient of log q per slot (divide by ell - n_a for the
rate per (ell - n_a) log q).  The oracle counts subspace configurations by
dimension, since its inputs are uniform over one dimension; its law is integer
weights over one common denominator, and only the final log sum is floating
point.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .channel import ChannelParams
from .subspaces import gaussian_binomial, spanning_matrix_count


def _pos(x: int) -> int:
    return x if x > 0 else 0


def _cut(params: ChannelParams, n_i: int) -> tuple[int, int]:
    """(cut, coefficient) of one terminal's cut: cut = min[n_a, n_i+n_e] and
    coefficient (cut - n_e)^+ (ell - cut)."""
    cut = min(params.n_a, n_i + params.n_e)
    return cut, _pos(cut - params.n_e) * (params.ell - cut)


def upper_bound(params: ChannelParams) -> Fraction:
    """min over terminals i of (min[n_a, n_i+n_e] - n_e)(ell - min[n_a, n_i+n_e]);
    zero when the eavesdropper matches the source (n_e >= n_a).  It also bounds
    sources of injected rank below the cut only when 2 cut <= ell + n_e + 1."""
    return Fraction(min(_cut(params, n_i)[1] for n_i in params.n))


def two_terminal_rate(params: ChannelParams) -> Fraction:
    """Single-receiver achievable rate with the source reduced to
    n_a' = min(n_a, n_b+n_e) injected packets; matches upper_bound at n_a',
    so this is the m=1 capacity when 2 n_a' <= ell + n_e + 1 (a lower
    injected rank does better otherwise; see asymptotic_cmi_coefficient)."""
    if params.m != 1:
        raise ValueError(f"two_terminal_rate needs exactly one terminal, got m={params.m}")
    return upper_bound(params)


def no_feedback_two_terminal_rate(params: ChannelParams) -> Fraction:
    """Single-receiver capacity when public discussion is not available:
    [n_b - n_e]^+ (ell - n_b); positive only if n_b > n_e."""
    if params.m != 1:
        raise ValueError(f"no_feedback rate needs exactly one terminal, got m={params.m}")
    n_b = params.n[0]
    if n_b > params.n_a or params.n_e > params.n_a:
        raise ValueError("no_feedback rate assumes n_b <= n_a and n_e <= n_a")
    return Fraction(_pos(n_b - params.n_e) * (params.ell - n_b))


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


def three_terminal_rate(params: ChannelParams) -> Fraction:
    """Symmetric two-receiver achievable rate: (ell - n_a) times the per-dof
    closed form min[u_single + u_shared, (n_a + u_shared - n_e) / 2]."""
    u_single, u_shared = symmetric_pair_dims(params)
    per_dof = min(Fraction(u_single + u_shared), Fraction(params.n_a + u_shared - params.n_e, 2))
    return per_dof * (params.ell - params.n_a)


def generic_dims(dims, ambient: int) -> tuple[int, int]:
    """Dimension of the sum and intersection of independently uniform subspaces
    in generic position: (min[sum d_i, n], [sum d_i - (k-1) n]^+)."""
    dims = list(dims)
    if any(d < 0 or d > ambient for d in dims):
        raise ValueError(f"each dim must lie in [0, {ambient}]")
    total = sum(dims)
    k = len(dims)
    return min(total, ambient), _pos(total - (k - 1) * ambient)


def asymptotic_cmi_coefficient(params: ChannelParams) -> int:
    """The cut coefficient (cut - n_e)(ell - cut), cut = min[n_a, n_1+n_e].

    It is the large-field coefficient of max_P I(source; receiver |
    eavesdropper) only when 2 cut <= ell + n_e + 1.  An input uniform over
    dimension k has coefficient (min[n_1+n_e, k] - min[n_e, k])(ell - k),
    which rises all the way to k = cut only under that condition; otherwise a
    lower k scores more (ell=4, n_a=n_1=3, n_e=0: k=2 gives 4 > 3).
    """
    return _cut(params, params.n[0])[1]


def _log_ratio(a: int, b: int) -> float:
    """log(a / b) for positive ints of any size: a / b itself can exceed the
    float range, so it is shifted by the difference of bit lengths into
    (1/2, 2), divided with one rounding, and the shift added back."""
    shift = a.bit_length() - b.bit_length()
    frac = a / (b << shift) if shift >= 0 else (a << -shift) / b
    return math.log(frac) + shift * math.log(2)


def exact_cmi_oracle(params: ChannelParams, input_dim: int) -> float:
    """Exact I(source subspace; receiver subspace | eavesdropper subspace) in
    nats, for the source uniform over the input_dim-dimensional subspaces of
    F_q^ell.

    That input law is GL(ell)-invariant, so the CMI depends on dimension
    counts only.  With k = input_dim, e = dim pi_e, d = dim pi_i, j =
    dim(pi_i & pi_e) and u = dim(pi_i + pi_e) = d + e - j: given pi_e the
    source is uniform over the G(ell-e, k-e) k-subspaces containing it, and
    given (pi_i, pi_e) over the G(ell-u, k-u) containing pi_i + pi_e.  So
    I = E[log G(ell-e, k-e) - log G(ell-u, k-u)], with G the Gaussian
    binomial and S = ``spanning_matrix_count``, under the exact law of
    (e, d, j): integer weight w over D = G(ell, k) q^((n_i+n_e) k), with

        w = G(ell, e) G(e, j) q^((d-j)(e-j)) G(ell-e, d-j)   [pairs (pi_i, pi_e)]
            * G(ell-u, k-u) S(n_i, d) S(n_e, e)               [each pair's weight].

    Only the final sum is floating point: each term is the correctly rounded
    w / D times the log of the exact int ratio of the two counts.

    Raises:
        ValueError: Unless there is one terminal (m == 1) and
            0 <= input_dim <= n_a.
    """
    if params.m != 1:
        raise ValueError(f"the CMI oracle needs exactly one terminal, got m={params.m}")
    if not 0 <= input_dim <= params.n_a:
        raise ValueError(f"input_dim must lie in [0, n_a={params.n_a}], got {input_dim}")
    ctx, ell, k = params.ctx, params.ell, input_dim
    n_i, n_e, q = params.n[0], params.n_e, ctx.q
    gauss = functools.cache(lambda n, r: gaussian_binomial(n, r, ctx))
    span = functools.cache(lambda n, r: spanning_matrix_count(n, r, ctx))
    denom = gauss(ell, k) * q ** ((n_i + n_e) * k)

    cmi = 0.0
    for e in range(min(n_e, k) + 1):
        w_e = gauss(ell, e) * span(n_e, e)
        for d in range(min(n_i, k) + 1):
            w_ed = w_e * span(n_i, d)
            # j = d, pi_i inside pi_e, gives u = e and a zero log: skipped
            for j in range(max(0, d + e - k), min(d - 1, e) + 1):
                u = d + e - j
                pairs = gauss(e, j) * q ** ((d - j) * (e - j)) * gauss(ell - e, d - j)
                w = w_ed * pairs * gauss(ell - u, k - u)
                cmi += (w / denom) * _log_ratio(gauss(ell - e, k - e), gauss(ell - u, k - u))
    return cmi


def best_uniform_input_cmi(params: ChannelParams) -> tuple[float, int]:
    """Max oracle CMI over uniform-over-a-fixed-dimension input distributions.

    Returns (cmi_nats, best_dim).
    """
    best = (0.0, 0)
    for d in range(params.n_a + 1):
        val = exact_cmi_oracle(params, d)
        if val > best[0]:
            best = (val, d)
    return best
