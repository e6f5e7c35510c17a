"""Reference oracles that only the tests call, so that no kernel is
checked against itself.

The kernel references are Gauss-Jordan elimination (``reference_eliminate``)
and what it gives plainly: the RREF (``reference_rref``), a row span's
canonical basis and its rank (``reference_span``, ``reference_rank``), the
null space's RREF basis (``reference_kernel``), the basic solution of a
row-span system (``reference_solve``) and the Zassenhaus intersection
(``reference_intersect``).  Every ``fieldmath`` and ``subspaces`` fast path
is checked against them.  Built on them are the combination code one row at
a time, the omniscient exclusive subspaces, the rank-additivity leakage
certificate and its exhaustive check, and ``reference_session``, a whole
session built the slow, obvious way at session width.  Exact laws come from
a generator stand-in that serves every draw (``DrawSequence``, ``draw_law``)
and the meet law in plain ints (``gaussian``, ``meet_count``, ``dims_law``).

From ``nckey`` this module takes only what must match, and no kernel: the
draws (``random_matrix``, ``make_source_matrix``, ``broadcast_slot``),
``plan_dimensions``, the result dataclasses (``AuditReport``, ``KeyShare``,
``SessionResult``, ``SessionTranscript``, ``SlotRecord``), the constants
``MAX_DRAWS``, ``MAX_EXTRACTION_TRIES`` and ``MAX_ENUMERATED_SUBSETS``, and
the types ``MatrixFq``, ``Subspace`` and ``SubspaceFamily``.  Only
``build_exclusive_subspaces`` calls the subspace operations, through the
methods of the subspaces it is given."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from nckey.agreement import (
    MAX_ENUMERATED_SUBSETS,
    MAX_EXTRACTION_TRIES,
    AuditReport,
    KeyShare,
    SessionResult,
    SessionTranscript,
    SlotRecord,
    plan_dimensions,
)
from nckey.channel import broadcast_slot, make_source_matrix
from nckey.fieldmath import MatrixFq, random_matrix
from nckey.subspaces import MAX_DRAWS, Subspace, SubspaceFamily


def reference_eliminate(arr: np.ndarray, q: int, pivot_col_limit: int | None = None):
    """In-place Gauss-Jordan reduction; returns pivot column list.

    The reference for the forward-only kernel: each pivot clears its column
    in every other row and the whole array is reduced after every update.
    Pivot search can be limited to the first ``pivot_col_limit`` columns while
    row operations still apply to the full width (for augmented systems).
    """
    rows, cols = arr.shape
    limit = cols if pivot_col_limit is None else pivot_col_limit
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        if r == rows:
            break
        nz = np.nonzero(arr[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            arr[[r, p]] = arr[[p, r]]
        inv = pow(int(arr[r, c]), -1, q)
        arr[r] = np.mod(arr[r] * inv, q)
        col = arr[:, c].copy()
        col[r] = 0
        if np.any(col):
            arr -= np.outer(col, arr[r])
            np.mod(arr, q, out=arr)
        pivots.append(c)
        r += 1
    return pivots


def reference_rref(m: MatrixFq):
    a = m.arr.copy()
    pivots = reference_eliminate(a, m.ctx.q)
    return MatrixFq(a, m.ctx), len(pivots), pivots


def reference_solve(target: MatrixFq, basis: MatrixFq):
    """The basic solution C of C @ basis == target, or None outside the row
    span: zero except on the earliest independent basis rows, where it is
    the unique Gauss-Jordan solution.

    Those rows each raise the rank of the rows before them; Gauss-Jordan on
    basis^T counts that rank column by column, so they are its pivots.
    """
    ctx = target.ctx
    kept = reference_rref(basis.transpose())[2]
    aug = np.hstack([basis.arr[kept].T, target.arr.T])
    reference_eliminate(aug, ctx.q, pivot_col_limit=len(kept))
    if np.any(aug[len(kept) :, len(kept) :]):
        return None
    out = np.zeros((target.rows, basis.rows), dtype=np.int64)
    out[:, kept] = aug[: len(kept), len(kept) :].T
    return MatrixFq(out, ctx)


def reference_span(a: np.ndarray, q: int) -> np.ndarray:
    """The canonical basis of a's row span: its RREF, zero rows dropped."""
    a = a.copy()
    return a[: len(reference_eliminate(a, q))]


def reference_rank(a: np.ndarray, q: int) -> int:
    return len(reference_span(a, q))


def reference_intersect(spans, q: int) -> np.ndarray:
    """Zassenhaus, pair by pair: in the RREF of [[a, a], [b, 0]], the rows
    zero in their left half span a ∩ b in their right half."""
    out, n = spans[0], spans[0].shape[1]
    for b in spans[1:]:
        red = reference_span(np.block([[out, out], [b, np.zeros_like(b)]]), q)
        out = reference_span(red[~red[:, :n].any(axis=1), n:], q)
    return out


def reference_kernel(m: MatrixFq) -> MatrixFq:
    """The null space's RREF basis: the basis read off the Gauss-Jordan RREF,
    one row per free column, 1 there and minus the RREF's free column at
    the pivots, itself reduced by Gauss-Jordan."""
    red, r, pivots = reference_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = np.zeros((len(free), m.cols), dtype=np.int64)
    for i, f in enumerate(free):
        out[i, f] = 1
        for row, c in enumerate(pivots):
            out[i, c] = -red.arr[row, f]
    return reference_rref(MatrixFq(out, m.ctx))[0]


class Refused(Exception):
    """A draw that a ``DrawSequence`` does not serve."""


class DrawSequence:
    """A generator stand-in that serves the given draws, in turn, to
    ``integers(0, q, size, dtype)`` calls, and refuses a draw past them or a
    replay (``bit_generator.state`` set back).  So a rejection sampler raises
    ``Refused`` on a rejected draw, and its outputs over every accepted
    sequence, which are its draws conditioned on acceptance, give its law
    exactly (``draw_law``)."""

    def __init__(self, q: int, draws):
        self.q, self.draws, self.served, self.bit_generator = q, list(draws), 0, self

    def _replay(self, _):
        raise Refused("a rejected draw is replayed")

    state = property(lambda self: self.served, _replay)

    def integers(self, low, high, size, dtype):
        if (low, high) != (0, self.q):
            raise ValueError(f"a draw from [{low}, {high}) where [0, {self.q}) is served")
        if self.served == len(self.draws):
            raise Refused(f"a draw past the {len(self.draws)} given")
        self.served += 1
        return np.array(self.draws[self.served - 1], dtype=dtype).reshape(size)


def draw_law(sample, q: int, sizes) -> Counter:
    """How many sequences of draws, of the given entry counts with entries in
    [0, q), make ``sample(rng)`` give each output: the sequences it refuses
    are left out, and an accepted one must take every draw."""
    law = Counter()
    for values in itertools.product(range(q), repeat=sum(sizes)):
        rng = DrawSequence(q, np.split(np.array(values, dtype=np.int64), np.cumsum(sizes)[:-1]))
        try:
            out = sample(rng)
        except Refused:
            continue
        if rng.served != len(sizes):
            raise ValueError(f"an accepted sequence took {rng.served} of {len(sizes)} draws")
        law[out] += 1
    return law


@functools.cache
def gaussian(n: int, k: int, q: int) -> int:
    """The number of k-dimensional subspaces of F_q^n; 0 unless 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    return math.prod(q**n - q**i for i in range(k)) // math.prod(q**k - q**i for i in range(k))


def meet_count(n: int, d1: int, d2: int, j: int, q: int) -> int:
    """How many d2-subspaces of F_q^n meet a fixed d1-subspace A in exactly j
    dimensions: G(d1, j) q^((d1 - j)(d2 - j)) G(n - d1, d2 - j).  The meet J
    is one of G(d1, j) subspaces of A, and modulo J the subspace misses A/J:
    it is the graph of one of q^((d1 - j)(d2 - j)) maps into A/J from one of
    G(n - d1, d2 - j) subspaces of a complement of A."""
    if not 0 <= j <= min(d1, d2):
        return 0
    return gaussian(d1, j, q) * q ** ((d1 - j) * (d2 - j)) * gaussian(n - d1, d2 - j, q)


def dims_law(dims, n: int, q: int, law=None) -> Counter:
    """The law of (dim of the sum Y, dim of the intersection X) of independent
    uniform subspaces of F_q^n of the given dimensions, as counts over their
    choices, joined to those of ``law`` (by default a fixed subspace of the
    first dimension: any gives the same law).  A uniform d-subspace C meets
    Y in y and X in x dimensions for meet_count(b, a, y, x)
    meet_count(n - y, b - y, d - y, 0) of its choices, b = dim Y and
    a = dim X: Z = C ∩ Y meets X in x, and modulo Z, C misses Y."""
    if law is None:
        law, dims = Counter({(dims[0], dims[0]): 1}), dims[1:]
    for d in dims:
        step = Counter()
        for (b, a), weight in law.items():
            for y, x in itertools.product(range(d + 1), repeat=2):
                count = meet_count(b, a, y, x, q) * meet_count(n - y, b - y, d - y, 0, q)
                if count:
                    step[b + d - y, x] += weight * count
        law = step
    return law


def _product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q in exact integers: int64 while no dot product can
    overflow it, Python ints otherwise."""
    if a.shape[1] * (q - 1) ** 2 >= 2**63:
        a, b = a.astype(object), b.astype(object)
    return (a @ b % q).astype(np.int64)


def _block_diag(blocks) -> np.ndarray:
    blocks = list(blocks)
    out = np.zeros((sum(len(b) for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _members(mask: int) -> list[int]:
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


def reference_combination_code(labels, k: int, m: int, q: int):
    """The combination code one row at a time, each row as the docstring of
    ``agreement._combination_code`` states it, on each terminal's dense
    span: the first unit vector outside the span of every member of the row's
    subset still short of rank k, or else the first short member's first
    unit vector outside its span plus each further short member's times the
    first lambda that keeps the row outside every span checked so far (0
    when none does).  A short member keeps a row outside its span.  Returns
    the code and each terminal's kept rows."""
    code = np.zeros((len(labels), k), dtype=np.int64)
    kept = [[] for _ in range(m)]
    forms = [np.zeros((0, k), dtype=np.int64) for _ in range(m)]
    units = np.eye(k, dtype=np.int64)

    def outside(r, v):
        return reference_rank(np.vstack([forms[r], v]), q) > len(forms[r])

    for i, mask in enumerate(labels):
        short = [r for r in _members(mask) if len(kept[r]) < k]
        # In an RREF basis the combination giving a vector is its entries at
        # the pivots, so e_j lies in the span only as a basis row, one whose
        # only nonzero entry is its leading 1.
        inside = [set(np.argmax(forms[r][np.count_nonzero(forms[r], axis=1) == 1], axis=1).tolist()) for r in short]
        free = [j for j in range(k) if not any(j in s for s in inside)]
        if free:
            v = units[free[0]]
        else:
            firsts = [min(set(range(k)) - s) for s in inside]
            v = units[firsts[0]]
            for s in range(1, len(short)):
                u = units[firsts[s]]
                fits = (lam for lam in range(q) if all(outside(r, (v + lam * u) % q) for r in short[: s + 1]))
                v = (v + next(fits, 0) * u) % q
        code[i] = v
        for r in short:
            if outside(r, v):
                kept[r].append(i)
                forms[r] = reference_span(np.vstack([forms[r], v]), q)
    return code, kept


def _pick(basis: np.ndarray, dim: int, ctx, rng) -> np.ndarray:
    """A uniform dim-dimensional subspace of basis's span: a dim x rows draw,
    drawn again until it has full rank, times the basis."""
    if not dim:
        return np.zeros((0, basis.shape[1]), dtype=np.int64)
    for _ in range(MAX_DRAWS):
        draw = random_matrix(dim, len(basis), ctx, rng).arr
        if reference_rank(draw, ctx.q) == dim:
            return reference_span(_product(draw, basis, ctx.q), ctx.q)
    raise RuntimeError(f"no full-rank draw in {MAX_DRAWS} tries")


def _extract(glued: dict, counts: dict, ctx, rng) -> dict:
    """The nonempty picks of counts[J] rows in each glued subspace (all of
    it at its dimension), drawn in mask order until of full joint rank.  A
    first failure among at most 7 allocated subsets names the first
    selection, by size then lexicographically, over its stacked rank."""
    allocated = [mask for mask in glued if counts[mask]]
    for attempt in range(MAX_EXTRACTION_TRIES):
        picks = {mask: b if counts[mask] == len(b) else _pick(b, counts[mask], ctx, rng) for mask, b in glued.items()}
        if reference_rank(np.vstack(list(picks.values())), ctx.q) == sum(counts.values()):
            return {mask: b for mask, b in picks.items() if len(b)}
        if attempt == 0 and len(allocated) <= MAX_ENUMERATED_SUBSETS:
            for size in range(1, len(allocated) + 1):
                for sel in itertools.combinations(allocated, size):
                    need = sum(counts[mask] for mask in sel)
                    cap = reference_rank(np.vstack([glued[mask] for mask in sel]), ctx.q)
                    if need > cap:
                        raise RuntimeError(
                            f"allocation infeasible: selection {sel} needs {need} but only {cap} is available"
                        )
    raise RuntimeError(f"no valid extraction found in {MAX_EXTRACTION_TRIES} tries")


def reference_session(params, n_slots: int, alloc, rng: np.random.Generator) -> SessionResult:
    """``run_session`` built the slow, obvious way, at session width, with
    the same draws in the same order: ``rng.spawn(3)`` into message, channel
    and protocol streams; the messages, each slot's broadcast, the exclusive
    picks slot by slot and the extraction's partial picks, in mask order,
    and the final key.  Spans and intersections are Gauss-Jordan RREFs, the
    slots are glued by block-diagonal bases, disclosures and decodes are
    basic solutions, keys and copies exact products, and the certificate is
    rank additivity on packets at width N * ell."""
    ctx, q, m, n_a = params.ctx, params.ctx.q, params.m, params.n_a
    width, masks, plan = params.ell - n_a, range(1, 2**m), plan_dimensions(params)
    counts = {mask: math.floor(n_slots * alloc[mask]) for mask in masks}
    key_blocks = min(sum(counts[mask] for mask in masks if mask >> r & 1) for r in range(m))
    msg_rng, chan_rng, proto_rng = rng.spawn(3)
    messages = [random_matrix(n_a, width, ctx, msg_rng) for _ in range(n_slots)]
    sources = [make_source_matrix(b, params) for b in messages]
    slots = tuple(SlotRecord(b, x, broadcast_slot(x, params, chan_rng)) for b, x in zip(messages, sources))
    withheld = KeyShare(terminal_final=(None,) * m)

    def degenerate(*reasons, transcript=SessionTranscript(params, slots), flags=(None, None, None)):
        return SessionResult(transcript, withheld, AuditReport(True, reasons, *flags, Fraction(0), 0))

    if not n_slots:
        unaudited = AuditReport(False, (), None, None, None, Fraction(0), 0)
        return SessionResult(SessionTranscript(params, slots), withheld, unaudited)

    # Each subset's common subspace per slot, then its exclusive pick.
    spans = [[reference_span(f.arr, q) for f in rec.obs.transfers] for rec in slots]
    commons = [{mask: reference_intersect([s[r] for r in _members(mask)], q) for mask in masks} for s in spans]
    bad = [
        f"slot {t}: subset {mask} common dim {len(common[mask])} != planned {plan.inter_dims[mask]}"
        for t, common in enumerate(commons)
        for mask in masks
        if len(common[mask]) != plan.inter_dims[mask]
    ]
    if bad:
        return degenerate(*bad)
    exclusive = [{mask: _pick(c[mask], plan.exclusive_dims[mask], ctx, proto_rng) for mask in masks} for c in commons]
    try:
        picks = _extract({mask: _block_diag(ex[mask] for ex in exclusive) for mask in masks}, counts, ctx, proto_rng)
    except RuntimeError as exc:
        return degenerate(f"extraction failed: {exc}")

    # Disclosures over each member's block-diagonal transfers, and the keys.
    transfers = [_block_diag(rec.obs.transfers[r].arr for rec in slots) for r in range(m)]
    disclosures = {}
    for mask, basis in picks.items():
        for r in _members(mask):
            disclosures[(mask, r)] = reference_solve(MatrixFq(basis, ctx), MatrixFq(transfers[r], ctx))
            if disclosures[(mask, r)] is None:
                return degenerate(f"subset {mask} basis not in terminal {r} span")
    m_stack = np.vstack([b.arr for b in messages])
    subset_keys = {mask: MatrixFq(_product(basis, m_stack, q), ctx) for mask, basis in picks.items()}
    copies = {
        (mask, r): MatrixFq(_product(w.arr, _product(transfers[r], m_stack, q), q), ctx)
        for (mask, r), w in disclosures.items()
    }

    # The final key through the combination code, padded.
    final = random_matrix(key_blocks, width, ctx, msg_rng) if key_blocks else None
    code = ciphers = None
    decoded = [None] * m
    if final is not None:
        labels = [mask for mask, basis in picks.items() for _ in basis]
        code = reference_combination_code(labels, key_blocks, m, q)[0]
        ciphers = (_product(code, final.arr, q) + np.vstack([k.arr for k in subset_keys.values()])) % q
        rows = [[i for i, mask in enumerate(labels) if mask >> r & 1] for r in range(m)]
        if any(reference_rank(code[own], q) < key_blocks for own in rows):
            return degenerate("no decodable combination code found")
        for r, own in enumerate(rows):
            pads = np.vstack([copies[(mask, r)].arr for mask in picks if mask >> r & 1])
            sent = MatrixFq((ciphers[own] - pads) % q, ctx)
            key = reference_solve(sent.transpose(), MatrixFq(code[own], ctx).transpose())
            if key is None:
                return degenerate(f"terminal {r} could not decode the combination code")
            decoded[r] = key.transpose()
        code, ciphers = MatrixFq(code, ctx), MatrixFq(ciphers, ctx)

    # Agreement, and the certificate: independent key rows whose packets meet
    # the eavesdropper's packets only in zero (rank additivity), over the
    # whole session.
    transcript = SessionTranscript(params, slots, disclosures, code, ciphers)
    key_rows = np.vstack([np.zeros((0, n_slots * n_a), dtype=np.int64), *picks.values()])
    packets = _block_diag(x.arr for x in sources)
    eve = MatrixFq(_product(_block_diag(rec.obs.eve_transfer.arr for rec in slots), packets, q), ctx)
    key_packets = MatrixFq(_product(key_rows, packets, q), ctx)
    cert = reference_rank(key_rows, q) == len(key_rows) and certify_zero_leakage(key_packets, eve)
    flags = (all(copies[(mask, r)] == subset_keys[mask] for mask, r in copies), all(k == final for k in decoded), cert)
    if not cert:
        return degenerate("leakage certificate failed, keys withheld", transcript=transcript, flags=flags)
    keys = KeyShare(subset_keys, copies, final, tuple(decoded))
    return SessionResult(transcript, keys, AuditReport(False, (), *flags, Fraction(key_blocks, n_slots), key_blocks))


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
    for mask in range(1, 2**m):
        common = functools.reduce(Subspace.intersect, map(received.__getitem__, _members(mask)))
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
    q = key_vectors.ctx.q
    stacked = np.vstack([key_vectors.arr, eve_matrix.arr])
    return reference_rank(stacked, q) == reference_rank(key_vectors.arr, q) + reference_rank(eve_matrix.arr, q)


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
