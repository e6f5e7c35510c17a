"""Multi-terminal secret-key agreement over the non-coherent broadcast channel.

The protocol, per session of N slots; run_session calls one stage per step:

1. _broadcast: the source broadcasts [I | M[t]] with M[t] uniform; every
   legitimate terminal publishes its transfer matrix, so the source learns
   each terminal's received subspace in source coordinates (dimension n_a).
2. _exclusive_picks: each subset's common subspace must have its
   generic-position dimension (plan_dimensions); then for each nonempty
   subset J the source picks, uniformly inside the common subspace, an
   "exclusive" subspace of the planned dimension.  Only test oracles that can
   see the eavesdropper's subspace build it by explicit complement
   subtraction (build_exclusive_subspaces).
3. Per-subset key shares are allocated, before the session, by a max-min LP
   over feasibility constraints: the total share of any collection of subsets
   is capped by the dimension those subsets' exclusive subspaces add beyond
   the eavesdropper's view (solve_allocation_lp).  Constraints are cap tables
   {selection: cap}.  On planned dimensions the cap of a selection S is
   min(sum_S excl_J, n_a - n_e), a polymatroid rank (Edmonds 1970), so the
   singleton caps plus the full-collection budget imply every other cap and
   planning works for any m (DimensionPlan.caps).  Actual subspaces need every
   selection, so their table is limited to 7 subsets (m <= 3); so is the
   session audit, which sums one table per slot, and hence run_session.
4. _extract: slots are glued by direct sums; floor(N * share) basis vectors
   per subset are extracted so that everything is mutually independent
   (extract_secure_subspaces: the picks' joint rank is their own feasibility
   certificate, for any m).  _disclosures: coefficients published over the
   public channel, solved one slot block at a time, let each member terminal
   reconstruct its subset keys exactly (_keys).
5. _multicast: a final common key is delivered to all terminals by
   one-time-padding a linear combination code over the subset key blocks.
6. _audit: agreement, feasibility inheritance, and the zero-leakage
   certificate against the eavesdropper's complete view, in coefficient
   space (width N * n_a, not N * ell).

A degenerate session (a generic-position event failed, probability O(1/q),
or a step found no solution) has its keys withheld: the stage raises
_Degenerate with its reasons, and run_session catches it in one place.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction

import numpy as np

from .channel import ChannelParams, SlotObservation, broadcast_slot, make_source_matrix
from .fieldmath import (
    FieldCtx,
    MatrixFq,
    _solve_unique,
    block_diag,
    hstack,
    mat_mul,
    random_matrix,
    rank,
    solve_in_rowspan,
    vstack,
    zeros,
)
from .simplex import maximize
from .subspaces import Subspace, SubspaceFamily, direct_sum, random_inside, span_of

# Largest family whose 2^k - 1 selections are enumerated for actual subspaces.
MAX_ENUMERATED_SUBSETS = 7


def _pos(x: int) -> int:
    return x if x > 0 else 0


def subset_masks(m: int) -> list[int]:
    """All nonempty subsets of the m terminals as bitmasks (bit i = terminal i)."""
    return list(range(1, 2**m))


def mask_members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class SubsetAllocation:
    """Per-subset key-share allocation, in units of (ell - n_a) log q per slot.

    Shares are nonnegative rationals keyed by subset bitmask; missing subsets
    get zero.  Feasibility against a family of exclusive subspaces is checked
    by check_allocation_feasible, never assumed.
    """

    __slots__ = ("m", "shares")

    def __init__(self, m: int, shares):
        if not 1 <= m <= 16:
            raise ValueError(f"terminal count must lie in [1, 16], got {m}")
        out: dict[int, Fraction] = {mask: Fraction(0) for mask in subset_masks(m)}
        for mask, value in dict(shares).items():
            mask = int(mask)
            if mask not in out:
                raise ValueError(f"subset mask {mask} out of range for m={m}")
            value = Fraction(value)
            if value < 0:
                raise ValueError(f"share for subset {mask} is negative: {value}")
            out[mask] = value
        self.m = m
        self.shares = out

    def __getitem__(self, mask: int) -> Fraction:
        return self.shares[mask]

    def items(self):
        return sorted(self.shares.items())

    def floor_scaled(self, n_slots: int) -> dict[int, int]:
        """Integral per-session counts: floor(N * share) for each subset."""
        return {mask: int(n_slots * v // 1) for mask, v in self.shares.items()}

    def terminal_total(self, terminal: int) -> Fraction:
        return sum(
            (v for mask, v in self.shares.items() if mask >> terminal & 1), Fraction(0)
        )

    def min_terminal_total(self) -> Fraction:
        return min(self.terminal_total(r) for r in range(self.m))

    def __repr__(self):
        return f"SubsetAllocation(m={self.m}, {dict(self.items())})"


@dataclass(frozen=True)
class FeasibilityResult:
    ok: bool
    witness: tuple[int, ...] | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    def __bool__(self):
        return self.ok


def _as_allocation(alloc, m: int) -> SubsetAllocation:
    """Accept a SubsetAllocation or a plain mask -> number mapping."""
    return alloc if isinstance(alloc, SubsetAllocation) else SubsetAllocation(m, alloc)


def _cap(subs, base: Subspace | None) -> int:
    """Dimension the subspaces ``subs`` add to ``base`` (to nothing when
    ``base`` is None): one forward-only rank of their stacked bases."""
    bases = [s.basis for s in subs] + ([] if base is None else [base.basis])
    return rank(vstack(bases)) - (0 if base is None else base.dim)


def _actual_caps(family: SubspaceFamily, base: Subspace | None = None) -> dict[tuple[int, ...], int]:
    """Cap table of the actual subspaces: for every nonempty selection of the
    family's subsets (by size, then lexicographically), the dimension its
    members add to ``base`` (to nothing when ``base`` is None).

    Raises:
        ValueError: for more than 7 subsets (m > 3), where the 2^k - 1
            selections are too many to enumerate.
    """
    masks = family.masks()
    if len(masks) > MAX_ENUMERATED_SUBSETS:
        raise ValueError(
            f"actual-subspace constraints are enumerated only up to "
            f"{MAX_ENUMERATED_SUBSETS} subsets (m <= 3), got {len(masks)}"
        )
    return {
        sel: _cap([family[mask] for mask in sel], base)
        for k in range(1, len(masks) + 1)
        for sel in itertools.combinations(masks, k)
    }


def _check_against(shares, caps: dict[tuple[int, ...], int]) -> FeasibilityResult:
    """First selection, in table order, whose shares (indexed by mask) exceed its cap."""
    for sel, cap in caps.items():
        lhs = sum((shares[mask] for mask in sel), Fraction(0))
        if lhs > cap:
            return FeasibilityResult(False, sel, lhs, Fraction(cap))
    return FeasibilityResult(True)


def check_allocation_feasible(alloc, family: SubspaceFamily, eve: Subspace) -> FeasibilityResult:
    """Verify every selection constraint against the actual subspaces:
    sum of shares over a selection <= dim(sum of its exclusive subspaces
    + eavesdropper subspace) - dim(eavesdropper subspace).

    ``alloc`` may be a SubsetAllocation or a plain mask -> number mapping.
    """
    alloc = _as_allocation(alloc, family.m)
    _check_shares_covered(alloc, family)
    return _check_against(alloc, _actual_caps(family, eve))


def _check_shares_covered(alloc: SubsetAllocation, family: SubspaceFamily):
    """A positive share on a subset the family does not carry would escape
    every constraint; refuse it outright."""
    positive = {mask for mask, v in alloc.shares.items() if v > 0}
    missing = positive - set(family.masks())
    if missing:
        raise ValueError(f"shares assigned to subsets absent from the family: {sorted(missing)}")


@dataclass(frozen=True)
class DimensionPlan:
    """Generic-position dimension predictions computed from counts alone.

    terminal_dims[i] is the expected dimension of terminal i's received
    subspace, inter_dims[mask] the expected dimension of a subset's common
    subspace, and exclusive_dims[mask] the expected dimension of the part
    exclusive to that subset (inside nobody else's view, nor the
    eavesdropper's).
    """

    n_a: int
    terminal_dims: tuple[int, ...]
    eve_dim: int
    inter_dims: dict[int, int]
    exclusive_dims: dict[int, int]

    @property
    def m(self) -> int:
        return len(self.terminal_dims)

    def rhs(self, selection) -> int:
        total = sum(self.exclusive_dims[mask] for mask in selection)
        return min(total + self.eve_dim, self.n_a) - self.eve_dim

    @property
    def caps(self) -> dict[tuple[int, ...], int]:
        """Cap table in polymatroid form: rhs(S) = min(sum_S excl_J, n_a - eve_dim),
        so the singleton caps plus the full-collection budget imply the cap of
        every other selection (shares are nonnegative)."""
        masks = tuple(subset_masks(self.m))
        caps = {(mask,): self.rhs((mask,)) for mask in masks}
        caps[masks] = self.rhs(masks)
        return caps


def plan_from_dims(n_a: int, dims, eve_dim: int) -> DimensionPlan:
    """Iterated generic-position arithmetic on raw subspace dimensions."""
    d = tuple(min(int(x), n_a) for x in dims)
    d_e = min(int(eve_dim), n_a)
    m = len(d)
    inter: dict[int, int] = {}
    excl: dict[int, int] = {}
    for mask in subset_masks(m):
        members = mask_members(mask)
        d_j = _pos(sum(d[i] for i in members) - (len(members) - 1) * n_a)
        inter[mask] = d_j
        overlap = sum(_pos(d[i] + d_j - n_a) for i in range(m) if i not in members)
        overlap += _pos(d_e + d_j - n_a)
        excl[mask] = _pos(d_j - overlap)
    return DimensionPlan(n_a, d, d_e, inter, excl)


def plan_dimensions(params: ChannelParams) -> DimensionPlan:
    """Expected exclusive-subspace dimensions for every subset, from counts only."""
    return plan_from_dims(params.n_a, params.n, params.n_e)


def check_allocation_feasible_planned(alloc, plan: DimensionPlan) -> FeasibilityResult:
    """Exact check against the planned dimensions; a violated constraint's
    witness is a singleton or the full collection."""
    return _check_against(_as_allocation(alloc, plan.m), plan.caps)


def build_exclusive_subspaces(
    received, eve: Subspace, rng: np.random.Generator | None = None
) -> SubspaceFamily:
    """For each nonempty subset J, subtract from the subset's common subspace
    everything it shares with non-members and with the eavesdropper.

    This is the omniscient construction (it consumes the eavesdropper's
    subspace), used by test oracles and audits; the protocol itself plans
    dimensions and samples uniformly instead.
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


def _common_subspace(received, mask: int) -> Subspace:
    """A subset's common subspace: its members' received subspaces intersected
    in member order."""
    return functools.reduce(Subspace.intersect, (received[i] for i in mask_members(mask)))


def _solve_maxmin(m: int, caps: dict[tuple[int, ...], int]) -> tuple[SubsetAllocation, Fraction]:
    """Epigraph form: maximize t subject to t <= per-terminal share totals and
    the selection caps; exact rational optimum.  Only subsets that appear in
    some selection get a share variable; the others get zero."""
    masks = sorted({mask for sel in caps for mask in sel})
    nvar = len(masks) + 1  # shares then t
    col = {mask: j for j, mask in enumerate(masks)}
    c = [Fraction(0)] * nvar
    c[-1] = Fraction(1)
    rows = []
    b = []
    for r in range(m):
        row = [Fraction(0)] * nvar
        row[-1] = Fraction(1)
        for mask in masks:
            if mask >> r & 1:
                row[col[mask]] = Fraction(-1)
        rows.append(row)
        b.append(Fraction(0))
    for sel, cap in sorted(caps.items()):
        row = [Fraction(0)] * nvar
        for mask in sel:
            row[col[mask]] = Fraction(1)
        rows.append(row)
        b.append(Fraction(cap))
    res = maximize(c, rows, b)
    # Exact optimality certificate: dual feasibility plus strong duality.
    dual_feasible = all(y >= 0 for y in res.dual) and all(
        sum(rows[i][j] * res.dual[i] for i in range(len(rows))) >= c[j] for j in range(nvar)
    )
    if not dual_feasible or sum(bi * yi for bi, yi in zip(b, res.dual)) != res.value:
        raise RuntimeError("allocation LP solution failed its optimality certificate")
    alloc = SubsetAllocation(m, {mask: res.x[col[mask]] for mask in masks})
    return alloc, res.value


def solve_allocation_lp(family: SubspaceFamily, eve: Subspace) -> tuple[SubsetAllocation, Fraction]:
    """Optimal subset allocation for actual subspaces; m <= 3 (constraint count
    is 2^(2^m - 1) - 1).  Returns (allocation, min-terminal value)."""
    return _solve_maxmin(family.m, _actual_caps(family, eve))


def solve_allocation_lp_planned(plan: DimensionPlan) -> tuple[SubsetAllocation, Fraction]:
    """Optimal allocation against generic-position planned dimensions, any m."""
    return _solve_maxmin(plan.m, plan.caps)


class InfeasibleAllocationError(ValueError):
    def __init__(self, result: FeasibilityResult):
        self.witness = result.witness
        super().__init__(
            f"allocation infeasible: selection {result.witness} needs {result.lhs} "
            f"but only {result.rhs} is available"
        )


def extract_secure_subspaces(
    family: SubspaceFamily,
    counts: dict[int, int],
    eve,
    rng: np.random.Generator,
    max_tries: int = 500,
) -> dict[int, Subspace]:
    """Pick counts[J] dimensions inside each exclusive subspace so that all
    picks are mutually independent.

    With ``eve`` a Subspace (test mode) the picks are additionally certified
    independent of the eavesdropper's subspace, exactly.  With ``eve`` None
    (the realistic mode: only the eavesdropper's dimension is known) only
    mutual independence is certified here; independence from the eavesdropper
    then holds with probability 1 - O(1/q) and is checked by the session audit.

    Independent picks certify every selection constraint at once, and
    feasible counts always admit them (Rado's theorem, matroid union), so the
    cap table (_actual_caps) is consulted only after an impossible or failed
    pick, to tell bad luck from infeasible counts.

    Raises:
        InfeasibleAllocationError: if the requested counts violate the
            verifiable feasibility constraints (with a witness selection).
        RuntimeError: if no valid pick is found within max_tries.
    """
    alloc = _as_allocation(counts, family.m)
    _check_shares_covered(alloc, family)
    masks = family.masks()
    counts = {mask: int(alloc[mask]) for mask in masks}
    base = eve if isinstance(eve, Subspace) else None
    if any(counts[mask] > family[mask].dim for mask in masks):
        # An impossible pick violates its singleton cap, and singletons lead
        # the table order, so the first violated singleton is the witness.
        singletons = {(mask,): _cap([family[mask]], base) for mask in masks}
        raise InfeasibleAllocationError(_check_against(counts, singletons))

    want = sum(counts.values()) + (0 if base is None else base.dim)
    for attempt in range(max_tries):
        picks = {mask: random_inside(family[mask], counts[mask], rng) for mask in masks}
        bases = [picks[mask].basis for mask in masks if counts[mask] > 0]
        if base is not None:
            bases.append(base.basis)
        if not bases or rank(vstack(bases)) == want:
            return picks
        if attempt == 0 and len(masks) <= MAX_ENUMERATED_SUBSETS:
            feas = _check_against(counts, _actual_caps(family, base))
            if not feas.ok:
                raise InfeasibleAllocationError(feas)
    raise RuntimeError(f"no valid extraction found in {max_tries} tries")


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


# --------------------------------------------------------------------------
# Session protocol
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SlotRecord:
    message: MatrixFq
    source: MatrixFq
    obs: SlotObservation


@dataclass(frozen=True)
class SessionTranscript:
    """Everything a session emitted.  Public messages (terminal transfer
    matrices, coefficient disclosures, the combination code and its padded
    ciphers) are exactly what the eavesdropper also receives."""

    params: ChannelParams
    n_slots: int
    slots: tuple[SlotRecord, ...]
    disclosures: dict[tuple[int, int], MatrixFq] = field(default_factory=dict)
    multicast_code: MatrixFq | None = None
    ciphers: MatrixFq | None = None


@dataclass(frozen=True)
class KeyShare:
    subset_keys: dict[int, MatrixFq] = field(default_factory=dict)
    terminal_subset_keys: dict[tuple[int, int], MatrixFq] = field(default_factory=dict)
    final_key: MatrixFq | None = None
    terminal_final: tuple = ()


@dataclass(frozen=True)
class AuditReport:
    degenerate: bool
    reasons: tuple[str, ...]
    subset_agreement: bool | None
    final_agreement: bool | None
    leakage_certificate: bool | None
    slotwise_feasible: bool | None
    scaled_feasible: bool | None
    achieved_per_slot: Fraction
    key_blocks: int


@dataclass(frozen=True)
class SessionResult:
    transcript: SessionTranscript
    keys: KeyShare
    audit: AuditReport

    def to_json_dict(self) -> dict:
        return _session_to_json(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SessionResult":
        return _session_from_json(doc)


def _vandermonde(rows: int, cols: int, ctx: FieldCtx) -> MatrixFq:
    """rows x cols matrix with row j = (j^0, ..., j^(cols-1)); any ``cols``
    rows are linearly independent when all row indices are distinct (requires
    rows <= q)."""
    out, j = np.ones((rows, cols), dtype=np.int64), np.arange(rows)
    for i in range(1, cols):
        out[:, i] = out[:, i - 1] * j % ctx.q
    return MatrixFq(out, ctx)


def _disclose(target: MatrixFq, transfers: list[MatrixFq], dim: int) -> MatrixFq | None:
    """C with C @ block_diag(transfers) == target, solved one slot block at a
    time (None when some block is not representable).

    C @ block_diag(F_t) = B exactly when C_t @ F_t is B's slot-t block.  If
    some F_t has dependent rows C is not unique; ``solve_in_rowspan`` returns
    the C supported on the basis rows its pivot policy makes pivots.  Over the
    whole block-diagonal matrix that policy reaches slot t's rows behind the
    rows that earlier slots left without a pivot (zero in the basis columns),
    so solving behind that many zero rows and dropping their coefficients
    reproduces its choice exactly.  ``dim`` is dim span F_t, in every slot.
    """
    ctx, width = target.ctx, transfers[0].cols
    blocks = []
    for t, f in enumerate(transfers):
        lead = t * (f.rows - dim)
        part = MatrixFq(target.arr[:, t * width : (t + 1) * width], ctx)
        w = solve_in_rowspan(part, vstack([zeros(lead, width, ctx), f]))
        if w is None:
            return None
        blocks.append(MatrixFq(w.arr[:, lead:], ctx))
    return hstack(blocks)


def _terminal_subset_keys(
    params: ChannelParams, slots, disclosures: dict[tuple[int, int], MatrixFq]
) -> dict[tuple[int, int], MatrixFq]:
    """Terminal r's copy of a subset key is sum_t w_t F_{r,t} M_t: its
    disclosure times the stacked message columns of its received packets."""
    m_parts = {
        r: vstack([MatrixFq(rec.obs.received[r].arr[:, params.n_a :], params.ctx) for rec in slots])
        for r in sorted({r for _, r in disclosures})
    }
    return {(mask, r): mat_mul(w, m_parts[r]) for (mask, r), w in disclosures.items()}


def _unaudited(reasons: tuple[str, ...] = ()) -> AuditReport:
    """Report of a session that ended before its audit: an empty session, or
    a degenerate one with its reasons."""
    return AuditReport(bool(reasons), reasons, None, None, None, None, None, Fraction(0), 0)


class _Degenerate(Exception):
    """Raised by a session stage to end the session degenerate and without
    keys; ``audit`` is its report (by default one holding only the reasons)."""

    def __init__(self, reasons: tuple[str, ...], audit: AuditReport | None = None):
        super().__init__(*reasons)
        self.audit = audit or _unaudited(reasons)


def _check_replay(name: str, value: MatrixFq, shape: tuple[int, int], ctx: FieldCtx):
    if value.ctx != ctx or value.shape != shape:
        raise ValueError(f"{name} must be {shape} over {ctx}, got {value.shape} over {value.ctx}")


def _broadcast(params: ChannelParams, messages, rng) -> tuple[SlotRecord, ...]:
    """Step 1: the source broadcasts [I | M_t] in every slot t."""
    sources = [make_source_matrix(m_block, params) for m_block in messages]
    return tuple(SlotRecord(b, x, broadcast_slot(x, params, rng)) for b, x in zip(messages, sources))


def _exclusive_picks(slots, plan: DimensionPlan, rng) -> list[dict[int, Subspace]]:
    """Step 2: per slot, a uniform pick of each subset's planned exclusive
    dimension inside its common subspace.

    Source-side view: received subspaces in source coordinates come from the
    published transfer matrices ([I | M] has full rank, so the coefficient
    map is faithful); actual packets are never published.  Every common
    subspace off its planned dimension is reported before any pick is drawn.
    """
    masks = subset_masks(plan.m)
    commons, reasons = [], []
    for t, rec in enumerate(slots):
        received = [span_of(f) for f in rec.obs.transfers]
        common = {mask: _common_subspace(received, mask) for mask in masks}
        reasons += [
            f"slot {t}: subset {mask} common dim {sub.dim} != planned {plan.inter_dims[mask]}"
            for mask, sub in common.items()
            if sub.dim != plan.inter_dims[mask]
        ]
        commons.append(common)
    if reasons:
        raise _Degenerate(tuple(reasons))
    return [
        {mask: random_inside(common[mask], plan.exclusive_dims[mask], rng) for mask in masks}
        for common in commons
    ]


def _extract(exclusive, counts: dict[int, int], m: int, rng) -> dict[int, Subspace]:
    """Step 4: glue the slots by direct sums (session coordinate space of dim
    N * n_a) and extract counts[J] mutually independent dimensions per
    subset; returns the nonempty picks in mask order."""
    glued = {mask: direct_sum(*(ex[mask] for ex in exclusive)) for mask in exclusive[0]}
    try:
        picks = extract_secure_subspaces(SubspaceFamily(m, glued), counts, None, rng)
    except (InfeasibleAllocationError, RuntimeError) as exc:
        raise _Degenerate((f"extraction failed: {exc}",)) from exc
    return {mask: pick for mask, pick in picks.items() if pick.dim}


def _disclosures(
    slots, picks: dict[int, Subspace], plan: DimensionPlan
) -> dict[tuple[int, int], MatrixFq]:
    """Step 4, public part: coefficients expressing each subset's extracted
    basis over every member terminal's received rows, slot by slot.

    All of a terminal's subsets share its slot bases, so their bases are
    solved stacked, one elimination per slot, and split by rows (each row of
    C depends on its own target row alone).  On failure the first failing
    (subset, member) is reported, in the order subsets then members.
    """
    solved, failed = {}, []
    for r in range(plan.m):
        mine = [mask for mask in picks if mask >> r & 1]
        if not mine:
            continue
        # Past the common-dim check every F_r,t spans the planned dimension.
        views = ([rec.obs.transfers[r] for rec in slots], plan.inter_dims[1 << r])
        w = _disclose(vstack([picks[mask].basis for mask in mine]), *views)
        if w is None:
            failed += [(mask, r) for mask in mine if _disclose(picks[mask].basis, *views) is None]
            continue
        parts = np.split(w.arr, np.cumsum([picks[mask].dim for mask in mine])[:-1])
        solved.update({(mask, r): MatrixFq(part, w.ctx) for mask, part in zip(mine, parts)})
    if failed:
        mask, r = min(failed)
        raise _Degenerate((f"subset {mask} basis not in terminal {r} span",))
    return {(mask, r): solved[(mask, r)] for mask in picks for r in mask_members(mask)}


def _keys(params: ChannelParams, slots, picks: dict[int, Subspace], disclosures) -> KeyShare:
    """Key symbols, one (ell - n_a)-symbol block per extracted basis vector,
    and each member terminal's copy; no final key yet."""
    m_stack = vstack([rec.message for rec in slots])
    subset_keys = {mask: mat_mul(pick.basis, m_stack) for mask, pick in picks.items()}
    return KeyShare(subset_keys, _terminal_subset_keys(params, slots, disclosures))


def _multicast(picks: dict[int, Subspace], keys: KeyShare, final: MatrixFq | None, m: int, rng):
    """Step 5: one-time-pad a linear combination code over the subset key
    blocks so every terminal decodes ``final``, of min_r sum_{J containing r}
    counts[J] blocks (None when that is zero).  Returns the code, the ciphers
    and ``keys`` with the final key and each terminal's decoding.
    """
    if final is None:
        return None, None, replace(keys, terminal_final=(None,) * m)
    ctx, key_blocks = final.ctx, final.rows
    # Pad row i is a key block of subset labels[i] (subset keys in mask order).
    labels = [mask for mask, pick in picks.items() for _ in range(pick.dim)]
    rows_for = [[i for i, mask in enumerate(labels) if mask >> r & 1] for r in range(m)]
    if len(labels) <= ctx.q:
        code = _vandermonde(len(labels), key_blocks, ctx)
    else:
        for _ in range(200):
            code = random_matrix(len(labels), key_blocks, ctx, rng)
            if all(rank(MatrixFq(code.arr[rows], ctx)) == key_blocks for rows in rows_for):
                break
        else:
            raise _Degenerate(("no decodable combination code found",))
    pads = vstack(list(keys.subset_keys.values()))
    ciphers = MatrixFq(np.mod(mat_mul(code, final).arr + pads.arr, ctx.q), ctx)
    decoded = []
    for r, rows in enumerate(rows_for):
        pads_r = vstack([keys.terminal_subset_keys[(mask, r)] for mask in picks if mask >> r & 1])
        rhs_r = MatrixFq(np.mod(ciphers.arr[rows] - pads_r.arr, ctx.q), ctx)
        # sub_code has full column rank (Vandermonde rows or a
        # rank-checked search), so the decoded key is unique.
        sol = _solve_unique(MatrixFq(code.arr[rows], ctx), rhs_r)
        if sol is None:
            raise _Degenerate((f"terminal {r} could not decode the combination code",))
        decoded.append(sol)
    return code, ciphers, replace(keys, final_key=final, terminal_final=tuple(decoded))


def _audit(alloc: SubsetAllocation, counts, slots, exclusive, picks, keys: KeyShare) -> AuditReport:
    """Audit (harness-side omniscience): agreement, feasibility inheritance,
    and the zero-leakage certificate against the eavesdropper's full view.
    A failed certificate withholds the keys: its report is raised."""
    # One cap table per slot; the session's table is their sum, because the
    # session family and the eavesdropper's session view are direct sums.
    tables = [
        _actual_caps(SubspaceFamily(alloc.m, ex), span_of(rec.obs.eve_transfer))
        for ex, rec in zip(exclusive, slots)
    ]
    session_caps = {sel: sum(caps[sel] for caps in tables) for sel in tables[0]}
    # Certified in coefficient space: the packets are these coefficients times
    # block_diag([I | M_t]), which has full row rank and so keeps every rank.
    cert = not picks or certify_zero_leakage(
        vstack([pick.basis for pick in picks.values()]),
        block_diag([rec.obs.eve_transfer for rec in slots]),
    )
    key_blocks = 0 if keys.final_key is None or not cert else keys.final_key.rows
    audit = AuditReport(
        degenerate=not cert,
        reasons=() if cert else ("leakage certificate failed, keys withheld",),
        subset_agreement=all(
            k == keys.subset_keys[mask] for (mask, _), k in keys.terminal_subset_keys.items()
        ),
        final_agreement=all(k == keys.final_key for k in keys.terminal_final),
        leakage_certificate=cert,
        slotwise_feasible=all(_check_against(alloc, caps).ok for caps in tables),
        scaled_feasible=_check_against(counts, session_caps).ok,
        achieved_per_slot=Fraction(key_blocks, len(slots)),
        key_blocks=key_blocks,
    )
    if not cert:
        raise _Degenerate(audit.reasons, audit)
    return audit


def run_session(
    params: ChannelParams,
    n_slots: int,
    alloc: SubsetAllocation,
    rng: np.random.Generator,
    *,
    messages: list[MatrixFq] | None = None,
    final_key: MatrixFq | None = None,
) -> SessionResult:
    """Run one full key-agreement session.

    The allocation must be feasible for the planned dimensions
    (plan_dimensions); infeasible requests are refused with a witness.
    ``messages`` and ``final_key`` are replay hooks: they override the
    source's secret draws while the channel and protocol randomness streams
    stay on the same seeded path (used by exhaustive leakage audits).

    Returns a SessionResult whose audit flags degenerate sessions (a
    generic-position dimension event failed, probability O(1/q)); degenerate
    sessions carry an empty KeyShare.

    Raises:
        ValueError: before any draw, for m > 3 (the audit's cap tables), or
            for replayed messages or a final key of the wrong shape or field.
    """
    if alloc.m != params.m:
        raise ValueError(f"allocation is for m={alloc.m}, channel has m={params.m}")
    if 2**params.m - 1 > MAX_ENUMERATED_SUBSETS:
        raise ValueError(
            f"sessions are audited only up to {MAX_ENUMERATED_SUBSETS} subsets (m <= 3), "
            f"got m={params.m}"
        )
    if n_slots < 0:
        raise ValueError("slot count must be nonnegative")
    ctx, m, width = params.ctx, params.m, params.ell - params.n_a
    if messages is not None:
        if len(messages) != n_slots:
            raise ValueError(f"need {n_slots} message blocks, got {len(messages)}")
        for t, m_block in enumerate(messages):
            _check_replay(f"message block {t}", m_block, (params.n_a, width), ctx)
    plan = plan_dimensions(params)
    feas = check_allocation_feasible_planned(alloc, plan)
    if not feas.ok:
        raise InfeasibleAllocationError(feas)
    counts = alloc.floor_scaled(n_slots)
    key_blocks = min(sum(c for mask, c in counts.items() if mask >> r & 1) for r in range(m))
    if final_key is not None:
        _check_replay("final key", final_key, (key_blocks, width), ctx)

    msg_rng, chan_rng, proto_rng = rng.spawn(3)
    if messages is None:
        messages = [random_matrix(params.n_a, width, ctx, msg_rng) for _ in range(n_slots)]
    slots = _broadcast(params, messages, chan_rng)
    transcript = SessionTranscript(params, n_slots, slots)
    withheld = KeyShare(terminal_final=(None,) * m)
    if n_slots == 0:
        return SessionResult(transcript, withheld, _unaudited())
    try:
        exclusive = _exclusive_picks(slots, plan, proto_rng)
        picks = _extract(exclusive, counts, m, proto_rng)
        disclosures = _disclosures(slots, picks, plan)
        keys = _keys(params, slots, picks, disclosures)
        if key_blocks and final_key is None:
            final_key = random_matrix(key_blocks, width, ctx, msg_rng)
        final = final_key if key_blocks else None
        code, ciphers, keys = _multicast(picks, keys, final, m, proto_rng)
        transcript = SessionTranscript(params, n_slots, slots, disclosures, code, ciphers)
        audit = _audit(alloc, counts, slots, exclusive, picks, keys)
    except _Degenerate as exc:
        return SessionResult(transcript, withheld, exc.audit)
    return SessionResult(transcript, keys, audit)


# --------------------------------------------------------------------------
# Transcript serialization (versioned JSON for replay and comparison)
# --------------------------------------------------------------------------

SCHEMA_VERSION = 1


def _mat(m: MatrixFq | None):
    if m is None:
        return None
    return {"rows": m.rows, "cols": m.cols, "entries": m.tolist()}


def _unmat(doc, ctx: FieldCtx) -> MatrixFq | None:
    if doc is None:
        return None
    arr = np.array(doc["entries"], dtype=np.int64).reshape(doc["rows"], doc["cols"])
    return MatrixFq(arr, ctx)


def _session_to_json(result: SessionResult) -> dict:
    p = result.transcript.params
    tr = result.transcript
    audit = result.audit
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {"q": p.ctx.q, "ell": p.ell, "na": p.n_a, "n": list(p.n), "ne": p.n_e},
        "slots": [
            {
                "message": _mat(rec.message),
                "source": _mat(rec.source),
                "transfers": [_mat(f) for f in rec.obs.transfers],
                "received": [_mat(x) for x in rec.obs.received],
                "eve_transfer": _mat(rec.obs.eve_transfer),
                "eve_received": _mat(rec.obs.eve_received),
            }
            for rec in tr.slots
        ],
        "public_messages": {
            "transfers": [[_mat(f) for f in rec.obs.transfers] for rec in tr.slots],
            "disclosures": [
                {"subset": mask, "terminal": r, "coeffs": _mat(w)}
                for (mask, r), w in sorted(tr.disclosures.items())
            ],
            "multicast_code": _mat(tr.multicast_code),
            "ciphers": _mat(tr.ciphers),
        },
        "keys": {
            "subset_keys": {str(mask): _mat(k) for mask, k in sorted(result.keys.subset_keys.items())},
            "final_key": _mat(result.keys.final_key),
            "terminal_final": [_mat(k) for k in result.keys.terminal_final],
        },
        "audit": {
            **asdict(audit),
            "reasons": list(audit.reasons),
            "achieved_per_slot": str(audit.achieved_per_slot),
        },
    }


def _session_from_json(doc: dict) -> SessionResult:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported transcript schema {doc.get('schema_version')}")
    pd = doc["params"]
    ctx = FieldCtx(pd["q"])
    params = ChannelParams(ctx, pd["ell"], pd["na"], tuple(pd["n"]), pd["ne"])
    slots = []
    for s in doc["slots"]:
        obs = SlotObservation(
            tuple(_unmat(f, ctx) for f in s["transfers"]),
            tuple(_unmat(x, ctx) for x in s["received"]),
            _unmat(s["eve_transfer"], ctx),
            _unmat(s["eve_received"], ctx),
        )
        slots.append(SlotRecord(_unmat(s["message"], ctx), _unmat(s["source"], ctx), obs))
    pub = doc["public_messages"]
    disclosures = {
        (d["subset"], d["terminal"]): _unmat(d["coeffs"], ctx) for d in pub["disclosures"]
    }
    code, ciphers = (_unmat(pub[name], ctx) for name in ("multicast_code", "ciphers"))
    transcript = SessionTranscript(params, len(slots), tuple(slots), disclosures, code, ciphers)
    kd = doc["keys"]
    ad = {f.name: doc["audit"][f.name] for f in fields(AuditReport)}
    keys = KeyShare(
        {int(mask): _unmat(k, ctx) for mask, k in kd["subset_keys"].items()},
        {} if ad["degenerate"] else _terminal_subset_keys(params, slots, disclosures),
        _unmat(kd["final_key"], ctx),
        tuple(_unmat(k, ctx) for k in kd["terminal_final"]),
    )
    ad.update(reasons=tuple(ad["reasons"]), achieved_per_slot=Fraction(ad["achieved_per_slot"]))
    return SessionResult(transcript, keys, AuditReport(**ad))


def save_session(result: SessionResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result.to_json_dict(), fh, sort_keys=True, indent=1)


def load_session(path) -> SessionResult:
    with open(path) as fh:
        return SessionResult.from_json_dict(json.load(fh))
