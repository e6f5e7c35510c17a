"""Subspace lattice over F_q^n: canonical subspaces, sum, intersection,
complements, uniform sampling, direct sums, and Grassmannian counting.

A subspace is represented by its unique RREF basis with zero rows dropped, so
equal subspaces compare (and hash) bit-identically.  Every relation to a
subspace reads off ``quotient``, vectors taken modulo its basis: containment
is a zero quotient, and intersection the left kernel of a quotient.  A
product of two RREF bases is RREF, so an intersection (the kernel's RREF
basis times a basis) and a pick (a reduced draw times a basis) need no
elimination of their own.  Uniform picks are drawn as a list
(``random_picks``), whose draws are reduced together and which replays the
generator from a rejected draw, so that a list picks exactly what its picks
drawn one at a time would.  A uniform complement is drawn with no rejection:
it is the graph of a uniform linear map from a fixed complement into the
intersection (``Subspace.complement``).

An external direct sum (``direct_sum``) keeps its parts, and makes its
block-diagonal basis only when that is read.  A quotient modulo it, and a
pick's product of coefficients with its basis, are taken part by part,
since a block-diagonal basis pivots block by block; the arrays are those of
the dense basis.  A session glues its slots this way, so its subspaces stay
N blocks of slot width.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .fieldmath import (
    FieldCtx,
    MatrixFq,
    _mod,
    _mul_mod,
    _wrap,
    block_diag,
    hstack,
    mat_mul,
    random_matrix,
    rank_stack,
    right_kernel,
    rref,
    rref_stack,
    vstack,
    zeros,
)


class Subspace:
    """A subspace of F_q^ambient_dim held as a canonical RREF basis.

    An external direct sum (``direct_sum``) keeps its summands as ``parts``
    (None for any other subspace) and builds its block-diagonal basis only
    when ``basis`` is first read; ``quotient`` and ``random_picks`` work on
    it part by part.
    """

    __slots__ = ("ctx", "ambient_dim", "parts", "_basis")

    def __init__(self, basis: MatrixFq, ambient_dim: int):
        if basis.cols != ambient_dim:
            raise ValueError(f"basis has {basis.cols} columns, ambient dim is {ambient_dim}")
        self.ctx = basis.ctx
        self.ambient_dim = ambient_dim
        self.parts = None
        self._basis = basis

    @property
    def basis(self) -> MatrixFq:
        if self._basis is None:
            self._basis = block_diag([p.basis for p in self.parts])
        return self._basis

    @property
    def dim(self) -> int:
        return self.basis.rows if self.parts is None else sum(p.dim for p in self.parts)

    def contains(self, other: "Subspace") -> bool:
        _check_compatible(self, other)
        return not quotient(other.basis, self).arr.any()

    def __add__(self, other: "Subspace") -> "Subspace":
        _check_compatible(self, other)
        return span_of(vstack([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        """The combinations c @ self.basis that lie in ``other``: c runs over
        the left kernel of self's basis modulo ``other`` (quotient), whose
        RREF basis ``right_kernel`` returns, so that the product is already
        the canonical basis (a product of two RREF bases is RREF)."""
        _check_compatible(self, other)
        coeffs = right_kernel(quotient(self.basis, other).transpose())
        return Subspace(mat_mul(coeffs, self.basis), self.ambient_dim)

    def complement(self, other: "Subspace", rng: np.random.Generator | None = None) -> "Subspace":
        """A subspace U with U <= self, U independent of W = self ∩ other, and
        U + W = self.

        The result is not unique.  With rng=None it is the pivot completion
        C0: the basis rows of self whose pivot columns are not pivot columns
        of W.  With an rng it is uniform over all valid complements, which
        are the graphs of the linear maps from C0 into W: the row spans of
        C0 + X @ W.basis, each for exactly one k x dim W matrix X.  So one
        uniform X gives a uniform complement, with no rank test; when k or
        dim W is 0 the complement is unique and nothing is drawn.
        """
        inter = self.intersect(other)
        k = self.dim - inter.dim
        if k == 0:
            return zero_subspace(self.ambient_dim, self.ctx)
        if inter.dim == 0:
            return self
        # Canonical bases are RREF, so a row's pivot is its first nonzero
        # entry.  Pivots of a contained subspace's RREF are always a subset of
        # the container's pivots, so the completion below is well defined.
        piv_self = np.argmax(self.basis.arr != 0, axis=1)
        piv_inter = np.argmax(inter.basis.arr != 0, axis=1)
        sel = self.basis.arr[~np.isin(piv_self, piv_inter)]
        if rng is None:
            return Subspace(MatrixFq(sel, self.ctx), self.ambient_dim)
        graph = mat_mul(random_matrix(k, inter.dim, self.ctx, rng), inter.basis)
        return span_of(MatrixFq(sel + graph.arr, self.ctx))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, q={self.ctx.q})"


def _check_compatible(a: Subspace, b: Subspace):
    if a.ctx != b.ctx:
        raise ValueError(f"field mismatch: {a.ctx} vs {b.ctx}")
    if a.ambient_dim != b.ambient_dim:
        raise ValueError(f"ambient mismatch: {a.ambient_dim} vs {b.ambient_dim}")


def span_of(m: MatrixFq) -> Subspace:
    """Row span of a matrix as a canonical subspace."""
    red, r, _ = rref(m)
    return Subspace(_wrap(red.arr[:r], m.ctx), m.cols)


def spans_of(mats) -> list[Subspace]:
    """Row span of every matrix in ``mats``, over one field, from one
    ``rref_stack``."""
    mats = list(mats)
    return [Subspace(_wrap(red.arr[:r], m.ctx), m.cols) for m, (red, r, _) in zip(mats, rref_stack(mats))]


def quotient(rows: MatrixFq, sub: Subspace) -> MatrixFq:
    """The rows modulo ``sub``, in coordinates: each row less the combination
    of sub's RREF basis that matches it in the basis's pivot columns, which
    leaves those columns zero, and so dropped.

    Over an RREF basis B with pivot columns P and the other columns F this is
    rows[:, F] - rows[:, P] @ B[:, F], one ``_mul_mod`` product.  A vector
    lies in ``sub`` exactly when its image is zero, so the image has rank
    dim(rowspan(rows) + sub) - dim(sub).
    """
    if rows.ctx != sub.ctx or rows.cols != sub.ambient_dim:
        raise ValueError(f"{rows.cols}-column rows over {rows.ctx} do not live in {sub!r}")
    if sub.parts is not None:
        # A block-diagonal basis pivots, and leaves columns free, block by block.
        blocks = np.split(rows.arr, np.cumsum([p.ambient_dim for p in sub.parts])[:-1], axis=1)
        return hstack([quotient(_wrap(b, sub.ctx), p) for b, p in zip(blocks, sub.parts)])
    if sub.dim == 0:
        return rows
    q, basis = sub.ctx.q, sub.basis.arr
    pivots = np.argmax(basis != 0, axis=1)
    free = np.ones(sub.ambient_dim, dtype=bool)
    free[pivots] = False
    out = rows.arr[:, free]
    out -= _mul_mod(rows.arr[:, pivots], basis[:, free], q)
    _mod(out, q, out=out)
    return _wrap(out, sub.ctx)


def zero_subspace(ambient_dim: int, ctx: FieldCtx) -> Subspace:
    return Subspace(zeros(0, ambient_dim, ctx), ambient_dim)


def full_space(ambient_dim: int, ctx: FieldCtx) -> Subspace:
    return Subspace(MatrixFq(np.eye(ambient_dim, dtype=np.int64), ctx), ambient_dim)


# Rejection draws per pick.  One draw succeeds with probability above
# prod_{i>=1} (1 - 2^-i) > 0.28 for every q, so 1000 draws all fail with
# probability below 1e-140: reaching the bound means a broken rank.
MAX_DRAWS = 1000


def random_picks(requests, rng: np.random.Generator) -> list[Subspace]:
    """For each (sub, dim) in ``requests``, over one field, a uniformly
    random dim-dimensional subspace of ``sub``.

    A pick draws dim x sub.dim coefficient matrices over sub's basis until
    one has full rank, and returns the span of the combination: every valid
    subspace has the same number of spanning matrices, so this is uniform
    (see spanning_matrix_count).  A pick of dimension 0 draws nothing.  A
    full-rank draw reduces to R in RREF, and R @ basis is already in RREF:
    in the basis's pivot columns it equals R, and each row leads there.  A
    pick of all of ``sub`` can only be ``sub``, and returns it: its draws
    are only ranked, for the rejection rule.

    The picks are those of drawing and reducing one request after another,
    to the last byte and the generator's final state, but the pending
    requests draw in rounds: one ``rank_stack`` ranks a round's draws for
    whole picks, and one ``rref_stack`` reduces its draws for partial ones.
    The requests before the first rank-deficient draw are accepted; the
    generator goes back to its state just after that draw, and the next
    round starts from the rejected request.  A round draws while the chance
    that all its draws have full rank is at least 1/2, so that few draws are
    drawn again where rejections are frequent (square draws at q = 2), and a
    round takes every pending request where they are rare.

    Raises:
        ValueError: if some dim lies outside [0, sub.dim].
        RuntimeError: if MAX_DRAWS draws for one pick all fail.
    """
    requests = list(requests)
    for sub, dim in requests:
        if not 0 <= dim <= sub.dim:
            raise ValueError(f"cannot pick dim {dim} inside a dim-{sub.dim} subspace")
    out = [zero_subspace(sub.ambient_dim, sub.ctx) if not dim else None for sub, dim in requests]
    pending = [i for i, (_, dim) in enumerate(requests) if dim]
    misses = [0] * len(requests)
    while pending:
        # after[k]: the generator's state after the k-th draw of this round
        after, draws, chance = [], [], 1.0
        for i in pending:
            if chance < 0.5:
                break
            sub, dim = requests[i]
            if draws:
                after.append(rng.bit_generator.state)
            draws.append(random_matrix(dim, sub.dim, sub.ctx, rng))
            chance *= _full_rank_chance(dim, sub.dim, sub.ctx.q)
        # A whole pick needs only its draw's rank, a partial one its RREF.
        whole = [requests[i][1] == requests[i][0].dim for i in pending[: len(draws)]]
        ranks = iter(rank_stack([d for d, w in zip(draws, whole) if w]))
        reduced = iter(rref_stack([d for d, w in zip(draws, whole) if not w]))
        for k, i in enumerate(pending[: len(draws)]):
            sub, dim = requests[i]
            red, r = (None, next(ranks)) if whole[k] else next(reduced)[:2]
            if r < dim:
                misses[i] += 1
                if misses[i] == MAX_DRAWS:
                    raise RuntimeError(f"no full-rank draw in {MAX_DRAWS} tries")
                if k < len(after):
                    rng.bit_generator.state = after[k]
                pending = pending[k:]
                break
            out[i] = sub if whole[k] else Subspace(_combination(red, sub), sub.ambient_dim)
        else:
            pending = pending[len(draws) :]
    return out


def _combination(coeffs: MatrixFq, sub: Subspace) -> MatrixFq:
    """coeffs @ sub.basis; over a direct sum, one product per part: the
    coefficient columns of its basis rows times its basis."""
    if sub.parts is None:
        return mat_mul(coeffs, sub.basis)
    blocks = np.split(coeffs.arr, np.cumsum([p.dim for p in sub.parts])[:-1], axis=1)
    return hstack([mat_mul(_wrap(b, sub.ctx), p.basis) for b, p in zip(blocks, sub.parts)])


def _full_rank_chance(rows: int, cols: int, q: int) -> float:
    """The probability that a uniform rows x cols matrix over F_q has full
    row rank: prod_{i < rows} (1 - q^(i - cols))."""
    return math.prod(1 - q ** (i - cols) for i in range(rows))


def random_subspace(ambient_dim: int, dim: int, ctx: FieldCtx, rng: np.random.Generator) -> Subspace:
    """Uniformly random dim-dimensional subspace of F_q^ambient_dim."""
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dim must lie in [0, {ambient_dim}], got {dim}")
    return random_picks([(full_space(ambient_dim, ctx), dim)], rng)[0]


def direct_sum(*parts: Subspace) -> Subspace:
    """External direct sum in the summed ambient dimension, which keeps its
    ``parts``; its basis, built when first read, is the block-diagonal
    stacking of theirs, which is already in RREF."""
    if len({p.ctx for p in parts}) != 1:
        raise ValueError(f"a direct sum needs parts over one field, got {[p.ctx for p in parts]}")
    out = object.__new__(Subspace)
    out.ctx, out.ambient_dim = parts[0].ctx, sum(p.ambient_dim for p in parts)
    out.parts, out._basis = tuple(parts), None
    return out


def spanning_matrix_count(n: int, d: int, ctx: FieldCtx) -> int:
    """Number of n-row matrices over F_q whose rows span a fixed d-dim subspace.

    Equals prod_{i=0}^{d-1} (q^n - q^i); independent of the ambient width.
    """
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    q = ctx.q
    out = 1
    for i in range(d):
        out *= q**n - q**i
    return out


def gaussian_binomial(n: int, k: int, ctx: FieldCtx) -> int:
    """Number of k-dimensional subspaces of F_q^n, exact."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    q = ctx.q
    num = den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"Gaussian binomial [{n} choose {k}]_{q} is not integral")
    return quotient


def iter_subspaces(ambient_dim: int, dim: int, ctx: FieldCtx):
    """Yield every dim-dimensional subspace of F_q^ambient_dim once.

    Enumerates RREF bases directly: choose pivot columns, then fill the free
    positions (entries right of each pivot, outside pivot columns) with every
    field value.
    """
    if not 0 <= dim <= ambient_dim:
        raise ValueError(f"dim must lie in [0, {ambient_dim}], got {dim}")
    q = ctx.q
    if dim == 0:
        yield zero_subspace(ambient_dim, ctx)
        return
    for pivots in itertools.combinations(range(ambient_dim), dim):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, ambient_dim)
            if j not in pivot_set
        ]
        base = np.zeros((dim, ambient_dim), dtype=np.int64)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        for values in itertools.product(range(q), repeat=len(free)):
            m = base.copy()
            for (i, j), v in zip(free, values):
                m[i, j] = v
            yield Subspace(MatrixFq(m, ctx), ambient_dim)


def iter_all_subspaces(ambient_dim: int, ctx: FieldCtx, max_dim: int | None = None):
    """Yield every subspace of F_q^ambient_dim with dim <= max_dim."""
    top = ambient_dim if max_dim is None else min(max_dim, ambient_dim)
    for d in range(top + 1):
        yield from iter_subspaces(ambient_dim, d, ctx)


def subspaces_within(s: Subspace, max_dim: int | None = None):
    """Yield every subspace of ``s`` with dim <= max_dim, via its coordinate
    space: by dimension, then in ``iter_subspaces`` order of the coordinate
    bases.  ``coords.basis @ s.basis`` is already the canonical basis, with no
    elimination: a product of two RREF bases is RREF (see ``random_picks``)."""
    top = s.dim if max_dim is None else min(max_dim, s.dim)
    for d in range(top + 1):
        for coords in iter_subspaces(s.dim, d, s.ctx):
            yield Subspace(mat_mul(coords.basis, s.basis), s.ambient_dim)


class SubspaceFamily:
    """Map from nonempty subsets of [1:m] (bitmasks over m <= 16 bits) to subspaces."""

    __slots__ = ("m", "members")

    def __init__(self, m: int, members: dict[int, Subspace]):
        if not 1 <= m <= 16:
            raise ValueError(f"terminal count must lie in [1, 16], got {m}")
        ambients = set()
        ctxs = set()
        for mask, sub in members.items():
            if not 1 <= mask < 2**m:
                raise ValueError(f"subset mask {mask} out of range for m={m}")
            ambients.add(sub.ambient_dim)
            ctxs.add(sub.ctx)
        if len(ambients) > 1 or len(ctxs) > 1:
            raise ValueError("family members must share ambient dimension and field")
        self.m = m
        self.members = dict(members)

    def __getitem__(self, mask: int) -> Subspace:
        return self.members[mask]

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def masks(self) -> list[int]:
        return sorted(self.members)
