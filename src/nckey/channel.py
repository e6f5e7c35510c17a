"""Non-coherent multiplicative matrix broadcast channel and its subspace form.

Per slot the source injects n_A packets of length ell; every receiver r
(terminals 1..m and the eavesdropper) independently observes
X_r = F_r @ X_A with F_r uniform over all n_r x n_A matrices.  Transition
probabilities are exact rationals so exhaustive sum-to-one checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fieldmath import FieldCtx, MatrixFq, hstack, identity, mat_mul, random_matrix
from .subspaces import Subspace, quotient, span_of, spanning_matrix_count


@dataclass(frozen=True)
class ChannelParams:
    """Channel shape: field, packet length, and per-receiver observation counts.

    ``n`` lists the legitimate terminals' counts n_1..n_m; ``n_e`` is the
    eavesdropper's count.  Requires 1 <= n_a < ell (a source with n_a >= ell
    can always drop to fewer injected packets first).
    """

    ctx: FieldCtx
    ell: int
    n_a: int
    n: tuple[int, ...]
    n_e: int

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(x) for x in self.n))
        if not 1 <= self.n_a < self.ell:
            raise ValueError(f"need 1 <= n_a < ell, got n_a={self.n_a}, ell={self.ell}")
        if not 1 <= len(self.n) <= 16:
            raise ValueError(f"terminal count must lie in [1, 16], got {len(self.n)}")
        if any(x < 0 for x in self.n) or self.n_e < 0:
            raise ValueError("observation counts must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.n)


@dataclass(frozen=True)
class SlotObservation:
    """One slot's outcome: per-receiver transfer matrices and received packets."""

    transfers: tuple[MatrixFq, ...]
    received: tuple[MatrixFq, ...]
    eve_transfer: MatrixFq
    eve_received: MatrixFq


def make_source_matrix(m_block: MatrixFq, params: ChannelParams) -> MatrixFq:
    """Source packets [I | M]: identity left block forces full rank n_a."""
    if m_block.shape != (params.n_a, params.ell - params.n_a):
        raise ValueError(
            f"message block must be {params.n_a}x{params.ell - params.n_a}, got {m_block.shape}"
        )
    if m_block.ctx != params.ctx:
        raise ValueError("message block field does not match channel params")
    return hstack([identity(params.n_a, params.ctx), m_block])


def broadcast_slot(x_a: MatrixFq, params: ChannelParams, rng: np.random.Generator) -> SlotObservation:
    """One channel use: independent uniform transfers for every receiver.

    Draw order is terminals 1..m then the eavesdropper, so replays with the
    same generator state are reproducible.
    """
    if x_a.shape != (params.n_a, params.ell):
        raise ValueError(f"source matrix must be {params.n_a}x{params.ell}, got {x_a.shape}")
    transfers = tuple(random_matrix(n_i, params.n_a, params.ctx, rng) for n_i in params.n)
    return observe(x_a, transfers, random_matrix(params.n_e, params.n_a, params.ctx, rng))


def observe(x_a: MatrixFq, transfers, eve_transfer: MatrixFq) -> SlotObservation:
    """The packets X_r = F_r @ X_A that each receiver observes under the given
    transfer matrices (terminals 1..m, then the eavesdropper)."""
    received = tuple(mat_mul(f, x_a) for f in transfers)
    return SlotObservation(tuple(transfers), received, eve_transfer, mat_mul(eve_transfer, x_a))


def matrix_transition_prob(x_r: MatrixFq, x_a: MatrixFq, n_r: int) -> Fraction:
    """P(X_r = x_r | X_A = x_a) = q^(-n_r rank(x_a)) if rowspan(x_r) <= rowspan(x_a), else 0."""
    if x_r.ctx != x_a.ctx:
        raise ValueError("field mismatch between observation and source")
    if x_r.cols != x_a.cols:
        raise ValueError(f"packet length mismatch: {x_r.cols} vs {x_a.cols}")
    if x_r.rows != n_r:
        raise ValueError(f"observation has {x_r.rows} rows, expected n_r={n_r}")
    pi_a = span_of(x_a)
    if quotient(x_r, pi_a).arr.any():
        return Fraction(0)
    return Fraction(1, x_a.ctx.q ** (n_r * pi_a.dim))


def subspace_transition_prob(pi_i: Subspace, pi_a: Subspace, n_i: int) -> Fraction:
    """Subspace-channel law: spanning_matrix_count(n_i, dim pi_i) * q^(-n_i dim pi_a)
    when pi_i <= pi_a (and dim pi_i <= n_i), else 0."""
    if pi_i.ctx != pi_a.ctx or pi_i.ambient_dim != pi_a.ambient_dim:
        raise ValueError("subspaces must share ambient space and field")
    if pi_i.dim > n_i:
        return Fraction(0)
    if not pi_a.contains(pi_i):
        return Fraction(0)
    q = pi_a.ctx.q
    return Fraction(spanning_matrix_count(n_i, pi_i.dim, pi_a.ctx), q ** (n_i * pi_a.dim))
