"""Exact dense linear algebra over prime fields F_q.

All matrices at play are small and dense (packet counts and packet lengths at
desk scale).  One forward elimination, ``_echelon``, serves them all: ``rank``
counts its pivots, ``rref`` adds a back-substitution pass, ``solve_in_rowspan``
reads a transform off ``[basis | I]`` and ``right_kernel`` reads the RREF.
Everything runs on int64 numpy arrays with multiply-then-reduce arithmetic:
q < 2**31 keeps every product of two reduced scalars inside int64.  All
randomness flows through caller-supplied ``numpy.random.Generator``
instances; nothing touches global RNG state.
"""

from __future__ import annotations

import numpy as np


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (adequate for n < 2**31)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class FieldCtx:
    """Prime-field context: the modulus q shared by all arithmetic."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        q = int(q)
        if not 2 <= q < 2**31:
            raise ValueError(f"field modulus must satisfy 2 <= q < 2**31, got {q}")
        if not is_prime(q):
            raise ValueError(f"field modulus must be prime, got {q}")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.q == self.q

    def __hash__(self):
        return hash(("FieldCtx", self.q))

    def __repr__(self):
        return f"FieldCtx(q={self.q})"


class MatrixFq:
    """Immutable dense matrix over F_q: row-major int64 entries in [0, q).

    Thin wrapper over a read-only numpy array plus its field context, so that
    shape and field mismatches fail loudly instead of silently broadcasting.
    """

    __slots__ = ("ctx", "arr")

    def __init__(self, entries, ctx: FieldCtx):
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(
                f"matrix entries must be 2-D (use zeros() for empty shapes), got ndim={a.ndim}"
            )
        a = np.mod(a, ctx.q)
        a.flags.writeable = False
        self.ctx = ctx
        self.arr = a

    @property
    def rows(self) -> int:
        return self.arr.shape[0]

    @property
    def cols(self) -> int:
        return self.arr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.arr.shape

    def transpose(self) -> "MatrixFq":
        return MatrixFq(self.arr.T, self.ctx)

    def tolist(self) -> list[list[int]]:
        return self.arr.tolist()

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        return mat_mul(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFq)
            and self.ctx == other.ctx
            and self.shape == other.shape
            and np.array_equal(self.arr, other.arr)
        )

    def __hash__(self):
        return hash((self.ctx.q, self.shape, self.arr.tobytes()))

    def __repr__(self):
        return f"MatrixFq({self.arr.tolist()}, q={self.ctx.q})"


def zeros(rows: int, cols: int, ctx: FieldCtx) -> MatrixFq:
    return MatrixFq(np.zeros((rows, cols), dtype=np.int64), ctx)


def identity(n: int, ctx: FieldCtx) -> MatrixFq:
    return MatrixFq(np.eye(n, dtype=np.int64), ctx)


def _check_same_ctx(*mats: MatrixFq) -> FieldCtx:
    ctx = mats[0].ctx
    for m in mats[1:]:
        if m.ctx != ctx:
            raise ValueError(f"field mismatch: {m.ctx} vs {ctx}")
    return ctx


def vstack(mats) -> MatrixFq:
    mats = list(mats)
    ctx = _check_same_ctx(*mats)
    cols = {m.cols for m in mats}
    if len(cols) != 1:
        raise ValueError(f"cannot stack matrices with differing column counts {sorted(cols)}")
    return MatrixFq(np.vstack([m.arr for m in mats]), ctx)


def hstack(mats) -> MatrixFq:
    mats = list(mats)
    ctx = _check_same_ctx(*mats)
    rws = {m.rows for m in mats}
    if len(rws) != 1:
        raise ValueError(f"cannot stack matrices with differing row counts {sorted(rws)}")
    return MatrixFq(np.hstack([m.arr for m in mats]), ctx)


def block_diag(mats) -> MatrixFq:
    """Block-diagonal stacking; empty blocks contribute their shape only."""
    mats = list(mats)
    ctx = _check_same_ctx(*mats)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in mats:
        out[r : r + m.rows, c : c + m.cols] = m.arr
        r += m.rows
        c += m.cols
    return MatrixFq(out, ctx)


def mat_mul(a: MatrixFq, b: MatrixFq) -> MatrixFq:
    """Exact product a @ b modulo q.

    Raises:
        ValueError: On inner-dimension or field-context mismatch.
    """
    _check_same_ctx(a, b)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})")
    q = a.ctx.q
    k = a.cols
    if k == 0:
        return zeros(a.rows, b.cols, a.ctx)
    # Accumulated dot products must stay inside int64.
    if k * (q - 1) * (q - 1) < 2**63:
        return MatrixFq(np.mod(a.arr @ b.arr, q), a.ctx)
    chunk = max(1, (2**62) // ((q - 1) * (q - 1)))
    acc = np.zeros((a.rows, b.cols), dtype=np.int64)
    for j in range(0, k, chunk):
        acc = np.mod(acc + a.arr[:, j : j + chunk] @ b.arr[j : j + chunk, :], q)
    return MatrixFq(acc, a.ctx)


def random_matrix(rows: int, cols: int, ctx: FieldCtx, rng: np.random.Generator) -> MatrixFq:
    """Matrix with i.i.d. entries uniform on [0, q), drawn from the given rng."""
    return MatrixFq(rng.integers(0, ctx.q, size=(rows, cols), dtype=np.int64), ctx)


def _echelon(a: np.ndarray, q: int, limit: int | None = None) -> list[int]:
    """In-place forward elimination to normalized row echelon form; returns
    the pivot columns in order.

    Pivots are searched in the first ``limit`` columns (all by default) while
    row operations span the full width, for augmented systems ``[basis | I]``.
    The pivot of each column is the first nonzero entry at or below the current
    row, swapped into place; each pivot row is scaled to a leading 1 and
    cleared from the rows below it only.  Those rows are reduced lazily: an
    update subtracts products of two reduced scalars, each at most (q-1)^2, so
    ``room`` updates fit in int64 between full reductions.  The pivot column
    and row are reduced before use, and the whole array on return.
    """
    room = (2**63 - 1) // ((q - 1) * (q - 1))
    pivots: list[int] = []
    r = pending = 0
    for c in range(a.shape[1] if limit is None else limit):
        if r == a.shape[0]:
            break
        col = np.mod(a[r:, c], q)
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
            col[[0, p - r]] = col[[p - r, 0]]
        a[r] = np.mod(np.mod(a[r], q) * pow(int(col[0]), -1, q), q)
        if nz.size > 1:
            if pending == room:
                np.mod(a[r + 1 :], q, out=a[r + 1 :])
                pending = 0
            a[r + 1 :, c:] -= np.outer(col[1:], a[r, c:])
            pending += 1
        pivots.append(c)
        r += 1
    np.mod(a, q, out=a)
    return pivots


def rref(m: MatrixFq) -> tuple[MatrixFq, int, list[int]]:
    """Reduced row echelon form over F_q.

    Returns:
        (R, rank, pivot_cols) where R is the unique RREF with the same row
        span as ``m``, rank is the number of nonzero rows of R, and
        pivot_cols lists the pivot column indices in order.
    """
    q = m.ctx.q
    a = m.arr.copy()
    pivots = _echelon(a, q)
    # Back-substitution, last pivot first: row i is already clear of every
    # later pivot column when it clears its own column from the rows above.
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        if np.any(a[:i, c]):
            a[:i, c:] -= np.outer(a[:i, c], a[i, c:])
            np.mod(a[:i, c:], q, out=a[:i, c:])
    return MatrixFq(a, m.ctx), len(pivots), pivots


def rank(m: MatrixFq) -> int:
    """Rank of ``m`` over F_q: the pivot count of a forward elimination."""
    return len(_echelon(m.arr.copy(), m.ctx.q))


def solve_in_rowspan(target: MatrixFq, basis: MatrixFq) -> MatrixFq | None:
    """Express every row of ``target`` as a combination of the rows of ``basis``.

    Returns C with C @ basis == target when all target rows lie in the row
    span of ``basis``, otherwise None (not-representable is a normal result,
    not an error).

    When the basis rows are dependent C is not unique.  The pivot policy of
    the elimination (the first nonzero entry at or below the current row,
    swapped into place) fixes which basis rows become pivots; those rows are
    independent and span the basis, and the returned C is the unique one
    supported on them.  Gauss-Jordan elimination with the same policy picks
    the same rows, hence the same C.
    """
    _check_same_ctx(target, basis)
    if target.cols != basis.cols:
        raise ValueError(f"column mismatch: target has {target.cols}, basis has {basis.cols}")
    q = target.ctx.q
    b = basis.rows
    if target.rows == 0:
        return zeros(0, b, target.ctx)
    if b == 0:
        return None if np.any(target.arr) else zeros(target.rows, 0, target.ctx)
    # Eliminate [basis | I] with pivots restricted to the basis columns, so
    # the right block records the transform T with E = T @ basis.
    aug = np.hstack([basis.arr, np.eye(b, dtype=np.int64)])
    pivots = _echelon(aug, q, limit=basis.cols)
    r = len(pivots)
    ech = aug[:r, : basis.cols]
    transform = aug[:r, basis.cols :]
    # Reduce target rows against E in pivot order, recording the combination
    # used; E's rows are zero below each pivot, so a cleared column stays clear.
    resid = target.arr.copy()
    coeff_over_ech = np.zeros((target.rows, r), dtype=np.int64)
    for i, pc in enumerate(pivots):
        c = resid[:, pc].copy()
        coeff_over_ech[:, i] = c
        if np.any(c):
            resid -= np.outer(c, ech[i])
            np.mod(resid, q, out=resid)
    if np.any(resid):
        return None
    return mat_mul(MatrixFq(coeff_over_ech, target.ctx), MatrixFq(transform, target.ctx))


def right_kernel(m: MatrixFq) -> MatrixFq:
    """Basis (as rows) of the null space {x : m @ x = 0}."""
    red, r, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = np.zeros((len(free), m.cols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = np.mod(-red.arr[:r, free].T, m.ctx.q)
    return MatrixFq(out, m.ctx)
