"""Reference oracles that only the tests call: the omniscient construction
of exclusive subspaces, which consumes the eavesdropper's subspace, the
rank-additivity leakage certificate on explicit matrices, and the exhaustive
check of that certificate over every message block.  Sessions certify
through ``agreement._cap`` instead."""

import itertools
import math
from collections import Counter

import numpy as np

from nckey.agreement import _common_subspace, subset_masks
from nckey.fieldmath import MatrixFq, rank, vstack
from nckey.subspaces import Subspace, SubspaceFamily


def build_exclusive_subspaces(
    received, eve: Subspace, rng: np.random.Generator | None = None
) -> SubspaceFamily:
    """For each nonempty subset J, subtract from the subset's common subspace
    everything it shares with non-members and with the eavesdropper.

    This is the omniscient construction (it consumes the eavesdropper's
    subspace); the protocol itself plans dimensions and samples uniformly
    instead.
    """
    received = list(received)
    m = len(received)
    out: dict[int, Subspace] = {}
    for mask in subset_masks(m):
        common = _common_subspace(received, mask)
        shared = eve.intersect(common)
        for i in range(m):
            if not mask >> i & 1:
                shared = shared + received[i].intersect(common)
        out[mask] = common.complement(shared, rng)
    return SubspaceFamily(m, out)


def certify_zero_leakage(key_vectors: MatrixFq, eve_matrix: MatrixFq) -> bool:
    """Rank-additivity certificate: the key vectors' span and the
    eavesdropper's span meet only in zero, which makes uniformly padded key
    symbols exactly independent of the eavesdropper's observations."""
    if key_vectors.rows == 0 or eve_matrix.rows == 0:
        return True
    return rank(vstack([key_vectors, eve_matrix])) == rank(key_vectors) + rank(eve_matrix)


def exhaustive_leakage_check(
    key_coeffs: MatrixFq, eve_coeffs: MatrixFq, ell: int
) -> tuple[bool, float]:
    """Enumerate every message block M and test the key vectors' joint
    distribution against the eavesdropper's observation, exactly.

    The source sends [I | M]; key vectors are key_coeffs @ [I | M] and the
    eavesdropper sees eve_coeffs @ [I | M].  Returns (independent, mi_bits)
    where ``independent`` is an exact conditional-distribution equality check
    over all M, and mi_bits the (float) mutual information.

    Gated to tiny instances: q^(n_a * (ell - n_a)) <= 2**16 message blocks.
    """
    ctx = key_coeffs.ctx
    if eve_coeffs.ctx != ctx:
        raise ValueError("field mismatch between key and eavesdropper coefficients")
    n_a = key_coeffs.cols
    if eve_coeffs.cols != n_a:
        raise ValueError("coefficient widths must agree")
    if ell <= n_a:
        raise ValueError(f"packet length {ell} must exceed the packet count {n_a}")
    n_cells = n_a * (ell - n_a)
    total = ctx.q**n_cells
    if total > 2**16:
        raise OverflowError(f"message space {ctx.q}^{n_cells} too large to enumerate")

    counts, y_counts, e_counts = Counter(), Counter(), Counter()
    for values in itertools.product(range(ctx.q), repeat=n_cells):
        m_block = MatrixFq(np.array(values, dtype=np.int64).reshape(n_a, ell - n_a), ctx)
        x_a = np.hstack([np.eye(n_a, dtype=np.int64), m_block.arr])
        y = np.mod(key_coeffs.arr @ x_a, ctx.q).tobytes()
        e = np.mod(eve_coeffs.arr @ x_a, ctx.q).tobytes()
        counts[(y, e)] += 1
        y_counts[y] += 1
        e_counts[e] += 1

    independent = all(c * total == y_counts[y] * e_counts[e] for (y, e), c in counts.items())
    mi = 0.0
    for (y, e), c in counts.items():
        mi += (c / total) * math.log2((c * total) / (y_counts[y] * e_counts[e]))
    return independent, max(mi, 0.0)
