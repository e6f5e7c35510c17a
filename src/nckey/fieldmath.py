"""Exact dense linear algebra over prime fields F_q.

All matrices at play are small and dense (packet counts and packet lengths at
desk scale).  One elimination, ``_echelon``, serves them all, over a stack of
equal-shape matrices (a 2-D matrix is a stack of one): ``rank`` and
``rank_stack`` count the pivots of its forward pass, which works on one
copy of a read-only matrix or stack and neither reduces nor writes back the
forms it throws away, ``rref`` and ``rref_stack`` take the reduced
form, ``right_kernel`` reads the null space's RREF basis off the rref of
the matrix with its columns reversed, and ``solve_in_rowspan`` reads every
basic solution off the rref of ``[basis | J]`` (``RowReduced``, or
``RowReduced.stack`` for a list), which a caller can keep for many targets.
Matrices are int64 numpy arrays with entries in [0, q), q < 2**31, so every
product of two reduced scalars fits int64.  Arithmetic is exact integer
arithmetic reduced mod q, in number formats chosen from q and the shape
alone:

* Products (``mat_mul``, and ``_echelon``'s panel products) all go through
  ``_mul_mod``: float64 BLAS, whose integers are exact below 2**53.  A
  k-term product is one BLAS call when k (q-1)**2 < 2**53; above that one
  factor is split into b-bit limbs, b the widest with
  k (2**b - 1)(q - 1) < 2**53 (two 16-bit limbs at k = 64 and q = 2**31 - 1),
  stacked into one operand, and the limb blocks are recombined in int64
  with one reduction per limb: (acc mod q) 2**b plus the next limb
  product stays below 2**54.  The split falls on the thinner factor: a
  tall left factor times a thin right one is taken transposed.
* ``_echelon`` takes one Gauss-Jordan pass over a stack at every width:
  its rank-1 update per pivot clears the pivot column below and, for a
  reduced form, above, in every member whose pivot columns agree so far.
  While more than two ``_PANEL`` panels of columns are left, the pivots
  update one panel of columns at a time, and one product per panel
  carries its row operations to the columns right of it.  The updates run
  in int32 while a scaled pivot row fits it, (q - 1)**2 < 2**31 (q up to
  46337), and in int64 otherwise.  Where fewer than a panel's worth of
  updates would fit between reductions, the pivot row and the multipliers
  are centered in [-(q - 1)/2, (q - 1)/2] (the balanced representation
  of FFLAS-FFPACK), which quadruples that room: 8 updates at q = 32749
  and at q = 2**31 - 1 instead of 2 (``_update_format``, from q alone;
  q = 101 keeps uncentered updates, 214,748 of them).  Each format is
  reduced before pending updates pass its bound.
* Every reduction of a block goes through ``_mod``, x - q floor(x / q) in
  slabs of at most ``_PANEL`` rows: numpy's ``floor_divide`` by a scalar
  runs through libdivide, while its ``mod`` divides entry by entry.  Only
  the pivot column and pivot row, a few hundred entries, keep ``np.mod``.
  A stacked pivot scales its members' pivot rows with one modular inverse
  for the whole stack (``_inverses``).

Every format gives the same pivots and the same bytes.  All randomness flows
through caller-supplied ``numpy.random.Generator`` instances; nothing touches
global RNG state.
"""

from __future__ import annotations

import numpy as np


# The smallest strong pseudoprime to all of the bases 2, 3, 5 and 7.
_MILLER_RABIN_LIMIT = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test on bases 2, 3, 5 and 7.

    Exact for every n below 3,215,031,751, the smallest strong pseudoprime
    to all four bases, so for every field modulus q < 2**31.

    Raises:
        ValueError: If n >= 3,215,031,751, where these bases can be fooled.
    """
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MILLER_RABIN_LIMIT}, got {n}")
    if n < 2:
        return False
    bases = (2, 3, 5, 7)
    if any(n % a == 0 for a in bases):
        return n in bases
    # n - 1 = d 2^s with d odd: n is a strong probable prime to base a when
    # a^d = 1, or a^(d 2^r) = -1 for some r < s.
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
        return _wrap(self.arr.T, self.ctx)

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


def _wrap(a: np.ndarray, ctx: FieldCtx) -> MatrixFq:
    """MatrixFq over an int64 2-D array that is already reduced mod q and
    that no caller writes to again (a kernel output), made read-only without
    the public constructor's np.mod.  A view of a larger buffer is copied, so
    that it does not keep that buffer alive."""
    if a.base is not None and a.base.nbytes > a.nbytes:
        a = a.copy()
    a.flags.writeable = False
    out = object.__new__(MatrixFq)
    out.ctx, out.arr = ctx, a
    return out


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
    return _wrap(np.vstack([m.arr for m in mats]), ctx)


def hstack(mats) -> MatrixFq:
    mats = list(mats)
    ctx = _check_same_ctx(*mats)
    rws = {m.rows for m in mats}
    if len(rws) != 1:
        raise ValueError(f"cannot stack matrices with differing row counts {sorted(rws)}")
    return _wrap(np.hstack([m.arr for m in mats]), ctx)


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
    return _wrap(out, ctx)


def mat_mul(a: MatrixFq, b: MatrixFq) -> MatrixFq:
    """Exact product a @ b modulo q, through ``_mul_mod``'s float64 products.

    Raises:
        ValueError: On inner-dimension or field-context mismatch.
    """
    _check_same_ctx(a, b)
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})")
    return _wrap(_mul_mod(a.arr, b.arr, a.ctx.q), a.ctx)


def random_matrix(rows: int, cols: int, ctx: FieldCtx, rng: np.random.Generator) -> MatrixFq:
    """Matrix with i.i.d. entries uniform on [0, q), drawn from the given rng."""
    return _wrap(rng.integers(0, ctx.q, size=(rows, cols), dtype=np.int64), ctx)


# Column-panel width of the blocked elimination in _echelon.
_PANEL = 64


def _mod(x: np.ndarray, q: int, out: np.ndarray | None = None) -> np.ndarray:
    """x mod q for an integer block x (two or more axes), into ``out`` (a
    new array of x's dtype when None), as x - q floor(x / q): numpy divides
    by a scalar through libdivide in ``floor_divide`` but not in ``mod``.
    Equal to ``np.mod`` at every value of x's dtype: where q floor(x / q)
    wraps around, the subtraction wraps back, and the result lies in [0, q),
    which ``out``'s dtype holds.  The quotient is taken in ``out`` itself
    when ``out`` has x's dtype and does not overlap x; otherwise (in place,
    or into a narrower dtype) in a temporary of at most ``_PANEL`` rows, a
    slab at a time."""
    if out is None:
        out = np.empty_like(x)
    direct = out.dtype == x.dtype and not np.may_share_memory(x, out)
    for i in range(0, x.shape[-2], _PANEL):
        slab, dst = x[..., i : i + _PANEL, :], out[..., i : i + _PANEL, :]
        t = np.floor_divide(slab, q, out=dst if direct else None)
        t *= q
        np.subtract(slab, t, out=dst, casting="unsafe")
    return out


def _inverses(xs: list[int], q: int) -> list[int]:
    """[pow(x, -1, q) for x in xs], nonzero residues xs, with one ``pow``
    (Montgomery's simultaneous inversion): the prefix products, the inverse
    of the last, and a backward pass that peels one factor per step."""
    prefix, acc = [], 1
    for x in xs:
        acc = acc * x % q
        prefix.append(acc)
    inv, out = pow(acc, -1, q), [0] * len(xs)
    for i in range(len(xs) - 1, 0, -1):
        out[i], inv = inv * prefix[i - 1] % q, inv * xs[i] % q
    out[0] = inv
    return out


def _limbs(k: int, largest: int, q: int) -> tuple[int, int]:
    """(limbs, b): how many b-bit limbs a left factor whose largest entry is
    ``largest`` takes in a k-term float64 product, b the widest with
    k (2^b - 1)(q - 1) < 2^53; one limb when k largest (q - 1) < 2^53."""
    top = (2**53 - 1) // (k * (q - 1))
    b = (top + 1).bit_length() - 1
    return (1 if top >= largest else -(-largest.bit_length() // b)), b


def _mul_mod(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """x @ y mod q for int64 matrices with entries in [0, q), as a new int64
    matrix, exact through float64 BLAS products; stacks (B, rows, inner) @
    (B, inner, cols) multiply member by member.

    A dot product of k terms of at most a (q-1) each, a being x's largest
    entry, is exact in float64 while k a (q-1) < 2^53, and is then one
    product (at every q when x is a 0/1 combination code; where
    k (q-1)^2 < 2^53, q alone settles it and x's largest entry is not
    read).  Otherwise x is split into b-bit limbs (``_limbs``; two 16-bit
    limbs at k = 64 and q = 2^31 - 1), stacked into one operand so that
    each product is still one BLAS call.  The limb products p_s are
    recombined Horner-style, a slab of ``_PANEL`` rows at a time: each
    slab is cast to int64 once, and acc = (acc mod q) 2^b + p_s stays
    below 2^54, so no limb product needs a reduction of its own and L limbs
    take L reductions (``_mod``), the last into the product's own buffer.
    k is taken in chunks of at most 2^16 - 1 terms, which keeps b at 6
    bits or more for every q < 2^31; a product of one chunk has no other
    output.

    When x takes limbs and y^T would stack fewer limb rows (limbs times y's
    columns against limbs times x's rows), the product is (y^T x^T)^T, so
    that the limb split and the residue passes run on the thinner factor.
    """
    rows, (inner, cols) = x.shape[-2], y.shape[-2:]
    if not inner:
        return np.zeros((*x.shape[:-2], rows, cols), dtype=np.int64)
    k = min(inner, 2**16 - 1)
    largest = q - 1 if k * (q - 1) ** 2 < 2**53 else int(x.max(initial=0))
    split = _limbs(k, largest, q)[0]
    if split > 1 and _limbs(k, int(y.max(initial=0)), q)[0] * cols < split * rows:
        return np.ascontiguousarray(_mul_mod(y.swapaxes(-1, -2), x.swapaxes(-1, -2), q).swapaxes(-1, -2))
    out = None
    for j in range(0, inner, 2**16 - 1):
        part, rhs = x[..., j : j + 2**16 - 1], y[..., j : j + 2**16 - 1, :].astype(np.float64)
        limbs, b = _limbs(part.shape[-1], largest, q)
        if limbs > 1:
            part = np.concatenate([(part >> (b * s)) & (2**b - 1) for s in reversed(range(limbs))], axis=-2)
        prod = part.astype(np.float64) @ rhs
        acc = prod.view(np.int64)[..., :rows, :]
        for i in range(0, rows, _PANEL):
            # The slab's rows of the first limb block, read before dst
            # overwrites them; the other blocks are only read.
            end = min(i + _PANEL, rows)
            dst, t = acc[..., i:end, :], prod[..., i:end, :].astype(np.int64)
            for s in range(1, limbs):
                _mod(t, q, out=dst)
                np.copyto(t, prod[..., s * rows + i : s * rows + end, :], casting="unsafe")
                dst <<= b
                t += dst
            if out is not None:
                t += out[..., i:end, :]
            _mod(t, q, out=dst)
        out = acc
    return out


def _echelon(a: np.ndarray, q: int, full: bool = False) -> list[list[int]]:
    """In-place elimination of a stack a[0], a[1], ... of equal-shape
    matrices, ``a`` an int64 array (B, rows, cols); returns each member's
    pivot columns in order.  With ``full`` every member becomes its unique
    RREF, otherwise a normalized row echelon form (leading 1s, cleared
    below only), which is all ``rank`` reads.

    One Gauss-Jordan pass over the columns: each pivot column is cleared
    from the rows below its pivot, and with ``full`` from the rows above
    too, in one rank-1 update.  The members run in lockstep, one update for
    all, while their pivot columns agree: the pivot of a column is each
    member's first nonzero entry at or below the current row, swapped into
    place by fancy indexing and scaled to 1 by its inverse.  Where some
    members have a pivot in a column and others do not, the stack splits
    into those two groups (a copy of each), which go on alone, and each
    group is written back when it runs out of rows or columns.  A group of
    one member (a 2-D matrix is a stack of one, which never splits) takes
    the same steps on its 2-D view, one axis fewer, so that a single matrix
    does not pay for the stack's indexing.

    The columns are taken in panels.  While more than two ``_PANEL`` panels
    are left, the pivot loop runs on a copy of the next ``_PANEL`` columns,
    from the panel's first pivot row down (every row with ``full``), plus
    one tracking column per pivot, which records the panel's row operations
    in terms of its k pivot rows as they stood when it began (A12, right of
    the panel).  At its end (``_trail``) each row's trailing columns gain
    its tracking row times A12, and the pivot rows, whose tracking rows
    include themselves, take that product alone: one exact product for the
    whole group.  A group that splits off inside a panel closes the panel
    first and starts a new one.  The last one or two panels' worth of
    columns, and so every stack at most two panels wide, are one panel
    worked on in the stack itself, with no tracking columns and no product.
    There each update spans the panel's rows from its first column, one
    contiguous run per member when that is column 0: the pivot row, zero
    mod q left of the pivot column, is exactly zero there once reduced, so
    those columns do not move.  A panel copy updates from the pivot column.

    Updates are reduced lazily, ``room`` of them between reductions
    (``_update_format``, from q alone).  They run on an int32 copy of the
    stack while a scaled pivot row fits int32 (q up to 46337), and on the
    int64 stack itself otherwise, or on an int64 copy when it is read-only,
    which is not written back.  Where an uncentered update, a product of
    two residues of up to (q-1)^2, leaves room for fewer than a panel's
    worth, the pivot row and the multipliers are centered in [-h, h],
    h = (q-1)/2, and an update moves an entry by at most h^2 either way:
    room 214,748 uncentered at q = 101, 8 centered at q = 32749 and at
    q = 2^31 - 1, 4 at q = 46337.  The pivot column is read reduced
    (``np.mod``, centered as x + h mod q - h), and the pivot row is reduced,
    scaled and reduced again in a contiguous copy, as they are short; every
    block is reduced by ``_mod``: the live block's rows, the pivot row
    among them, before the pivot row is taken when ``room`` updates are
    pending, a panel's copy when it is taken and written back, A12 and the
    tracking columns before their product, and the whole group on its
    return, when it is written back to a writable ``a``.  Every read
    reduces, so entries stored negative or above q change no value.  The
    trailing columns only gain reduced products, so they stay below q times
    the panel count plus one until a panel reads them (below 2^31 for any
    stack of fewer than 46,000 rows at q = 46337); a centered group whose
    trailing columns have gained a product reduces its rows before its
    next update, as the room counts from entries below q.  The
    members' pivot rows are scaled by their heads' inverses, all taken with
    one ``pow`` (``_inverses``).
    """
    batch, rows, width = a.shape
    word, room, center = _update_format(q)
    # The lazy count of a group whose trailing columns have just gained a
    # panel's product: centered updates would add to entries above q.
    fresh, h = (room if center else 0), (q - 1) // 2
    keep = a.flags.writeable

    def residues(x: np.ndarray) -> np.ndarray:
        """x mod q as a new array, centered in [-h, h] when ``center``."""
        if not center:
            return np.mod(x, q)
        t = x + h
        np.mod(t, q, out=t)
        t -= h
        return t

    out: list[list[int]] = [[] for _ in range(batch)]
    todo = [(np.arange(batch), a if word is np.int64 and keep else a.astype(word), [], 0, 0)]
    while todo:
        idx, g, pivots, c, lazy = todo.pop()
        r, c1, blk = len(pivots), c, None
        while c < width and r < rows:
            if c == c1:
                if blk is not None:
                    _trail(g, blk, q, r0, r, c0, c1)
                    lazy = fresh
                c0, r0, top = c, r, 0 if full else r
                c1, blk, end = width, None, None
                if width - c > 2 * _PANEL:
                    c1 = c + _PANEL
                    blk = np.zeros((len(idx), rows - top, _PANEL + min(_PANEL, rows - r)), word)
                    _mod(g[:, top:, c0:c1], q, out=blk[..., :_PANEL])
                    lazy = 0
                # The block the pivot loop works on, and its offsets in g.
                b, dr, dc = (g, 0, 0) if blk is None else (blk, top, c0)
                v = b[0] if len(idx) == 1 else b
            i, j = r - dr, c - dc
            lo = 0 if full else i
            col = residues(v[..., lo:, j])
            if np.count_nonzero(col[..., i - lo]) < len(idx):
                has = np.logical_or.reduce(col[..., i - lo :], axis=-1)
                found = np.count_nonzero(has)
                if not found:
                    c += 1
                    continue
                if found < len(idx):
                    rest = g[~has]
                    if blk is not None:
                        _trail(rest, blk[~has], q, r0, r, c0, c1)
                    todo.append((idx[~has], rest, list(pivots), c + 1, fresh if blk is not None else lazy))
                    idx, g, col = idx[has], g[has], col[has]
                    blk = None if blk is None else blk[has]
                    b = g if blk is None else blk
                    v = b[0] if len(idx) == 1 else b
                    col = col[0] if v.ndim == 2 else col
                # The swap, in the block and in g's columns right of it.
                p = i + (col[..., i - lo :] != 0).argmax(axis=-1)
                if v.ndim == 2:
                    v[[i, p], j:] = v[[p, i], j:]
                    if blk is not None:
                        g[0, [r, p + dr], c1:] = g[0, [p + dr, r], c1:]
                else:
                    k = np.arange(len(idx))
                    v[k, p, j:], v[:, i, j:] = v[:, i, j:], v[k, p, j:]
                    if blk is not None:
                        g[k, p + dr, c1:], g[:, r, c1:] = g[:, r, c1:], g[k, p + dr, c1:]
                col = residues(v[..., lo:, j])
            if blk is not None:
                # The pivot row's own tracking entry; later ones are still zero.
                end = _PANEL + r - r0 + 1
                v[..., i, end - 1] = 1
            heads = col[..., i - lo]
            if lazy == room:
                # Whole rows, one contiguous run per member rather than a
                # short run per row; their columns left of j are done and
                # are only read reduced.  The pivot row is reduced here too,
                # before it is centered.
                _mod(v[..., lo:, :], q, out=v[..., lo:, :])
                lazy = 0
            # In the stack itself the update spans the block from its first
            # column, one contiguous run per member: the pivot row is zero
            # mod q left of j, and exactly zero once reduced.  The row is
            # scaled in a contiguous copy, which the update reads.
            first = j if blk is not None else c0
            row = np.mod(v[..., i, first:end], q)
            if v.ndim == 2:
                row *= pow(int(heads), -1, q)
            else:
                row *= np.array(_inverses(heads.tolist(), q), dtype=word)[:, None]
            if center:
                row += h
                np.mod(row, q, out=row)
                row -= h
            else:
                np.mod(row, q, out=row)
            v[..., i, first:end] = row
            # The multipliers: col less the pivot row's entry.
            if full:
                col[..., i] = 0
            else:
                col, lo = col[..., 1:], i + 1
            if np.count_nonzero(col):
                live = v[..., lo:, first:end]
                live -= col[..., :, None] * row[..., None, :]
                lazy += 1
            pivots.append(c)
            r, c = r + 1, c + 1
        if blk is not None:
            _trail(g, blk, q, r0, r, c0, c1)
        if keep:
            _mod(g, q, out=g)
            if g is not a:
                a[idx] = g
        for i in idx:
            out[i] = list(pivots)
    return out


def _trail(g: np.ndarray, blk: np.ndarray, q: int, r0: int, r: int, c0: int, c1: int) -> None:
    """Closes one of ``_echelon``'s panels, columns c0:c1 with pivot rows
    r0:r, on its stack ``g``: writes the panel block ``blk`` back into g,
    reduced, and adds its tracking rows times A12, g's pivot rows right of
    the panel, to those rows' trailing columns, in one product
    (``_mul_mod``); the pivot rows take the product alone."""
    top = g.shape[1] - blk.shape[1]
    _mod(blk[..., : c1 - c0], q, out=g[:, top:, c0:c1])
    if r > r0:
        a12 = _mod(g[:, r0:r, c1:], q)
        g[:, r0:r, c1:] = 0
        g[:, top:, c1:] += _mul_mod(_mod(blk[..., c1 - c0 : c1 - c0 + r - r0], q), a12, q)


def _update_format(q: int) -> tuple[type, int, bool]:
    """(word, room, center): the integer format of ``_echelon``'s updates,
    how many rank-1 updates fit between reductions, and whether the pivot
    row and the multipliers are centered, all from q alone.

    int32 while a scaled pivot row, up to (q-1)^2, fits it (prime q up to
    46337), int64 otherwise.  Uncentered, an update subtracts a product of
    two residues, at most (q-1)^2, from entries that start in [0, q).
    Where that leaves room for fewer than a default panel's worth of
    updates (prime q from 5801 in int32 and from 379,625,083 in int64), the
    pivot row and the multipliers are taken in [-h, h], h = (q-1)/2, the
    balanced representation of FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM
    TOMS 35(3), 2008).  An update then moves an entry by at most h^2 either
    way, from [-h, q) after a reduction, and a column read adds h, so room
    updates fit while q + h + room h^2 <= 2^31 (or 2^63): 8 at q = 32749
    and at q = 2^31 - 1, 4 at q = 46337, where the uncentered room is 2, 1
    and 2."""
    word, top = (np.int32, 2**31) if (q - 1) ** 2 < 2**31 else (np.int64, 2**63)
    room = (top - q) // ((q - 1) * (q - 1))
    if room >= 64:  # the default _PANEL: centering would not pay
        return word, room, False
    h = (q - 1) // 2
    return word, (top - q - h) // (h * h), True


def _by_shape(mats: list[MatrixFq], q: int, full: bool) -> list[tuple[np.ndarray, list[int]]]:
    """``_echelon`` of each matrix, one stack per shape: its form and pivot
    columns, in the order of ``mats``."""
    out: list = [None] * len(mats)
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(mats):
        shapes.setdefault(m.shape, []).append(i)
    for idx in shapes.values():
        a = np.stack([mats[i].arr for i in idx])
        # A forward form is thrown away: its stack need not be kept.
        a.flags.writeable = full
        for i, red, pivots in zip(idx, a, _echelon(a, q, full)):
            out[i] = (red, pivots)
    return out


def _rrefs(mats: list[MatrixFq], ctx: FieldCtx) -> list[tuple[MatrixFq, int, list[int]]]:
    """``rref`` of each matrix, one ``_echelon`` stack per shape."""
    return [(_wrap(red, ctx), len(pivots), pivots) for red, pivots in _by_shape(mats, ctx.q, True)]


def rref(m: MatrixFq) -> tuple[MatrixFq, int, list[int]]:
    """Reduced row echelon form over F_q.

    Returns:
        (R, rank, pivot_cols) where R is the unique RREF with the same row
        span as ``m``, rank is the number of nonzero rows of R, and
        pivot_cols lists the pivot column indices in order.
    """
    return _rrefs([m], m.ctx)[0]


def rref_stack(mats) -> list[tuple[MatrixFq, int, list[int]]]:
    """``rref`` of every matrix in ``mats``, over one field: the matrices of
    each shape are eliminated together, as one stack.

    Raises:
        ValueError: On a field-context mismatch.
    """
    mats = list(mats)
    return _rrefs(mats, _check_same_ctx(*mats)) if mats else []


def rank(m: MatrixFq) -> int:
    """Rank of ``m`` over F_q: the pivot count of a forward elimination, on
    one copy of m's read-only array."""
    return len(_echelon(m.arr[None], m.ctx.q)[0])


def rank_stack(mats) -> list[int]:
    """``rank`` of every matrix in ``mats``, over one field: the matrices of
    each shape take one forward elimination, as one read-only stack, whose
    forms are neither reduced nor written back."""
    mats = list(mats)
    return [len(pivots) for _, pivots in _by_shape(mats, _check_same_ctx(*mats).q, False)] if mats else []


class RowReduced(MatrixFq):
    """A matrix F with its row reduction, which ``solve_in_rowspan`` reuses.
    One rref of [F | J], J the anti-identity, has rows [R | S J] pivoting in
    F's columns: R = RREF(F) and S @ F == R.  Its other rows, F's left kernel
    reversed, pivot on F's rows that depend on earlier ones, so S is zero
    there: the basic solution of X @ F == R (row rank profiles: Jeannerod,
    Pernet and Storjohann, J. Symbolic Comput. 2013).  ``RowReduced.stack``
    reduces a list of matrices with one ``rref_stack``."""

    __slots__ = ("echelon", "pivots", "transform")

    def __init__(self, f: MatrixFq, reduced: tuple[MatrixFq, int, list[int]] | None = None):
        """``reduced``, when given, must be the rref of [f | J] (``stack``)."""
        red, _, pivots = reduced or rref(_anti_augmented(f))
        r = sum(p < f.cols for p in pivots)
        self.ctx, self.arr, self.pivots = f.ctx, f.arr, pivots[:r]
        self.echelon = _wrap(red.arr[:r, : f.cols], f.ctx)
        self.transform = _wrap(red.arr[:r, f.cols :][:, ::-1], f.ctx)

    @classmethod
    def stack(cls, fs) -> list["RowReduced"]:
        """RowReduced of every matrix in ``fs``, over one field."""
        fs = list(fs)
        return [cls(f, red) for f, red in zip(fs, rref_stack(map(_anti_augmented, fs)))]


def _anti_augmented(f: MatrixFq) -> MatrixFq:
    """[f | J], J the anti-identity of f's row count."""
    return _wrap(np.hstack([f.arr, np.eye(f.rows, dtype=np.int64)[::-1]]), f.ctx)


def solve_in_rowspan(target: MatrixFq, basis: MatrixFq) -> MatrixFq | None:
    """Express every row of ``target`` as a combination of the rows of ``basis``.

    Returns C with C @ basis == target when all target rows lie in the row
    span of ``basis``, otherwise None (not-representable is a normal result,
    not an error).

    When the basis rows are dependent C is not unique; the one returned is
    the basic solution, supported on the earliest independent basis rows
    (each row independent of the rows before it), which span the basis.
    Over a block-diagonal basis that is the hstack of the per-block basic
    solutions.  It is the target's pivot columns times the basis's transform
    S (RowReduced), once they give its other columns too (a zero quotient);
    a RowReduced basis is not eliminated again.
    """
    _check_same_ctx(target, basis)
    if target.cols != basis.cols:
        raise ValueError(f"column mismatch: target has {target.cols}, basis has {basis.cols}")
    basis = basis if isinstance(basis, RowReduced) else RowReduced(basis)
    pivots, k = basis.pivots, basis.cols - len(basis.pivots)
    rest = np.hstack([np.delete(basis.echelon.arr, pivots, axis=1), basis.transform.arr])
    prod = _mul_mod(target.arr[:, pivots], rest, basis.ctx.q)
    inside = np.array_equal(prod[:, :k], np.delete(target.arr, pivots, axis=1))
    return _wrap(prod[:, k:], basis.ctx) if inside else None


def right_kernel(m: MatrixFq) -> MatrixFq:
    """The null space {x : m @ x = 0} as its RREF basis (rows), from one rref.

    The rref is taken of m with its columns reversed.  There each free
    column f gives the kernel vector that is 1 at f, zero at the other free
    columns and nonzero elsewhere only in pivot columns left of f.  Reversed
    back, with the rows in reverse order, each vector leads with the 1 at its
    free column, and the other vectors are zero there: the reduced basis.
    """
    red, r, pivots = rref(_wrap(m.arr[:, ::-1], m.ctx))
    free = [c for c in range(m.cols) if c not in pivots]
    out = np.zeros((len(free), m.cols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = _mod(-red.arr[:r, free].T, m.ctx.q)
    return _wrap(out[::-1, ::-1].copy(), m.ctx)
