"""Multi-terminal secret-key agreement over the non-coherent broadcast channel.

The protocol, per session of N slots; run_session calls one stage per step:

1. _broadcast: the source broadcasts [I | M[t]] with M[t] uniform; every
   legitimate terminal publishes its transfer matrix, so the source learns
   each terminal's received subspace in source coordinates (dimension n_a).
2. _exclusive_picks: each subset's common subspace, from one rref per slot
   and terminal of [F | J] (RowReduced), must have its generic-position
   dimension (plan_dimensions).  These rrefs draw nothing, so all slots'
   are one stacked elimination per terminal shape (RowReduced.stack); the
   intersections run slot by slot, one elimination each.  Then for each
   nonempty subset J the source picks, uniformly inside the common
   subspace, an "exclusive" subspace of the planned dimension.  All slots'
   picks are one list (random_picks): their draws are ranked (whole picks)
   or reduced (partial ones) together, and
   a rank-deficient draw replays the generator from just after it, so every
   pick is the one that drawing slot by slot gives.  The omniscient
   construction by complement subtraction, which needs the eavesdropper's
   subspace, is a test reference (tests/references.py).
3. Per-subset key shares are allocated, before the session, by a max-min LP
   over feasibility constraints: the total share of any collection of subsets
   is capped by the dimension those subsets' exclusive subspaces add beyond
   the eavesdropper's view (solve_allocation_lp).  Constraints are cap tables
   {selection: cap}.  On planned dimensions the cap of a selection S is
   min(sum_S excl_J, n_a - n_e), a polymatroid rank (Edmonds 1970), so the
   singleton caps plus the full-collection budget imply every other cap and
   planning works for any m (DimensionPlan.caps).  Checks against actual
   subspaces rank each selection (_cap) of the subsets with a positive
   share (_allocated), at most 7.  A session builds this table only when
   its first picks fail the joint rank: extraction (step 4) then looks for
   a violated selection to report as its witness (all 4 golden extraction
   failures end so, e.g. "selection (2, 3) needs 5 but only 4 is
   available").  Otherwise steps 4 and 6 certify the counts.
4. _extract: slots are glued by direct sums, which keep their slot parts;
   floor(N * share) basis vectors per subset are extracted so that
   everything is mutually independent (extract_secure_subspaces: the
   picks' joint rank is their own feasibility certificate, for any m; each
   attempt's picks are one random_picks list, whose products run slot part
   by slot part).  When the glued subspaces themselves are independent
   (_cap, slot by slot: against the zero subspace, each slot's parts
   modulo its widest part, one stacked rank of at most n_a rows), the
   picks need no joint rank.  A whole pick is its glued subspace, so it
   keeps its parts too.
   _disclosures: coefficients published over the public channel, one
   product per slot block with step 2's transforms (a whole pick's parts,
   or a partial pick's column blocks), let each member terminal
   reconstruct its subset keys exactly (_keys).  The keys and the
   terminals' copies are products per slot too (_slot_products), so no
   session product is wider than one slot.
5. _multicast: a final common key is delivered to all terminals by
   one-time-padding a linear combination code over the subset key blocks.
   The code is built deterministically, row by row, so that each terminal's
   rows have full column rank (_combination_code); at m <= 2 every row is a
   unit vector and a terminal decodes by selection, and otherwise by the
   row-span solve of its kept rows.  A code row has at most m nonzeros, and
   the ciphers and each decode check multiply through them (_code_product),
   at m <= 2 a gather.  The pads are certified (step 6), so the code does
   not bear on secrecy.
6. _audit: agreement and the zero-leakage certificate against the
   eavesdropper's complete view, in coefficient space (width N * n_a, not
   N * ell): the key vectors, which extraction made independent, leak
   nothing exactly when they keep full row rank modulo the direct sum of the
   eavesdropper's slot subspaces (_cap), and that rank also proves the
   counts feasible.  Whole picks, direct sums too, are ranked slot by slot,
   so only the partial picks' rows are ranked at session width.  The
   eavesdropper's slot spans, and then the per-slot sums E_t + L_t, are
   each one stacked elimination over all slots (spans_of).

A degenerate session (a generic-position event failed, probability O(1/q),
or a step found no solution) has its keys withheld: the stage raises
_Degenerate with its reasons, and run_session catches it in one place.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction

import numpy as np

from .channel import ChannelParams, SlotObservation, broadcast_slot, make_source_matrix, observe
from .fieldmath import (
    FieldCtx,
    MatrixFq,
    RowReduced,
    _wrap,
    mat_mul,
    random_matrix,
    rank,
    rank_stack,
    solve_in_rowspan,
    vstack,
)
from .simplex import maximize
from .subspaces import Subspace, SubspaceFamily, direct_sum, quotient, random_picks, spans_of, zero_subspace

# Largest family whose 2^k - 1 selections are enumerated for actual subspaces.
MAX_ENUMERATED_SUBSETS = 7
# Pick draws per extraction before it gives up (extract_secure_subspaces).
MAX_EXTRACTION_TRIES = 500


def _pos(x: int) -> int:
    return x if x > 0 else 0


def subset_masks(m: int) -> list[int]:
    """All nonempty subsets of the m terminals as bitmasks (bit i = terminal i)."""
    return list(range(1, 2**m))


def mask_members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class SubsetAllocation:
    """Per-subset key-share allocation, in units of (ell - n_a) log q per slot.

    Shares are nonnegative rationals keyed by subset bitmask, an integer
    (not a bool, and not a string, which has more than one spelling of a
    mask); missing subsets get zero.  Feasibility against a family of
    exclusive subspaces is checked by check_allocation_feasible, never
    assumed.
    """

    __slots__ = ("m", "shares")

    def __init__(self, m: int, shares):
        if not 1 <= m <= 16:
            raise ValueError(f"terminal count must lie in [1, 16], got {m}")
        out: dict[int, Fraction] = {mask: Fraction(0) for mask in subset_masks(m)}
        for mask, value in dict(shares).items():
            if isinstance(mask, bool) or not isinstance(mask, (int, np.integer)):
                raise TypeError(f"subset mask must be an integer, got {mask!r}")
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


def _cap(subs, base: Subspace) -> int:
    """Dimension the subspaces ``subs`` add to ``base``: the rank of their
    stacked bases modulo ``base``.

    Direct sums over base's slot layout are local, and every other subspace
    is dense.  A sum of direct sums is the direct sum of its slot sums, so
    local subspaces are ranked slot by slot.  With local subspaces only,
    each slot's parts modulo base's part (quotient) are ranked, all slots'
    in one ``rank_stack``.  Over a zero base part the slot's widest part
    (the first of the widest) is the base instead: it adds its own
    dimension, and the other parts add their rank modulo it, which is
    exact for any number of parts, as every part is an RREF basis; a slot
    with no other part adds its widest part's dimension alone.  With dense
    ones too, each slot's sum, base's part plus the local parts, comes from
    one ``spans_of`` (a slot with nothing more keeps base's part), and the
    dense bases add their rank modulo the direct sum of those sums.
    """
    subs, extra = list(subs), 0
    widths = lambda s: s.parts and tuple(p.ambient_dim for p in s.parts)
    layout = widths(base)
    local, dense = [], []
    for s in subs:
        (local if layout and widths(s) == layout else dense).append(s)
    if local:
        slots, bases = list(zip(*(s.parts for s in local))), list(base.parts)
        live = [t for t, parts in enumerate(slots) if any(p.dim for p in parts)]
        if not dense:
            rest = []
            for t in live:
                parts, own = list(slots[t]), bases[t]
                if not own.dim:
                    own = parts.pop(max(range(len(parts)), key=lambda k: parts[k].dim))
                    extra += own.dim
                if any(p.dim for p in parts):
                    rest.append(quotient(vstack([p.basis for p in parts]), own))
            return extra + sum(rank_stack(rest))
        for t, grown in zip(live, spans_of(vstack([bases[t].basis, *(p.basis for p in slots[t])]) for t in live)):
            extra += grown.dim - bases[t].dim
            bases[t] = grown
        base = direct_sum(*bases)
    return extra + (rank(quotient(vstack([s.basis for s in dense]), base)) if dense else 0)


def _zero_like(sub: Subspace) -> Subspace:
    """The zero subspace in ``sub``'s layout: a direct sum of zero parts over
    its slots when it is a direct sum, one zero subspace otherwise."""
    if sub.parts is None:
        return zero_subspace(sub.ambient_dim, sub.ctx)
    return direct_sum(*(zero_subspace(p.ambient_dim, p.ctx) for p in sub.parts))


def _actual_caps(family: SubspaceFamily, base: Subspace) -> dict[tuple[int, ...], int]:
    """Cap table of the actual subspaces: for every nonempty selection of the
    family's subsets (by size, then lexicographically), the dimension its
    members add to ``base``, one _cap each.

    Raises:
        ValueError: for more than 7 members, where the 2^k - 1 selections are
            too many to enumerate.
    """
    masks = family.masks()
    if len(masks) > MAX_ENUMERATED_SUBSETS:
        raise ValueError(
            f"actual-subspace constraints are enumerated only up to "
            f"{MAX_ENUMERATED_SUBSETS} subsets, got {len(masks)}"
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
    return _check_against(alloc, _actual_caps(_allocated(alloc, family), eve))


def _allocated(alloc: SubsetAllocation, members) -> SubspaceFamily:
    """The ``members`` with a positive share (caps are monotone, so a zero share
    adds no constraint); a positive share on an absent subset is refused."""
    positive = [mask for mask, v in alloc.items() if v > 0]
    missing = sorted(set(positive) - set(members))
    if missing:
        raise ValueError(f"shares assigned to subsets absent from the family: {missing}")
    return SubspaceFamily(alloc.m, {mask: members[mask] for mask in positive})


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
    """Optimal subset allocation for actual subspaces; the LP sees every member,
    so at most 7.  Returns (allocation, min-terminal value)."""
    return _solve_maxmin(family.m, _actual_caps(family, eve))


def solve_allocation_lp_planned(plan: DimensionPlan) -> tuple[SubsetAllocation, Fraction]:
    """Optimal allocation against generic-position planned dimensions, any m."""
    return _solve_maxmin(plan.m, plan.caps)


class InfeasibleAllocationError(ValueError):
    """A violated selection constraint: ``witness`` needs ``lhs`` but only
    ``rhs`` is available (FeasibilityResult)."""

    def __init__(self, result: FeasibilityResult):
        self.witness, self.lhs, self.rhs = result.witness, result.lhs, result.rhs
        super().__init__(
            f"allocation infeasible: selection {result.witness} needs {result.lhs} "
            f"but only {result.rhs} is available"
        )


def extract_secure_subspaces(
    family: SubspaceFamily,
    counts: dict[int, int],
    eve: Subspace | None,
    rng: np.random.Generator,
) -> dict[int, Subspace]:
    """Pick counts[J] dimensions inside each exclusive subspace so that all
    picks are mutually independent.

    Both modes take one acceptance test: the picks add their total dimension
    to ``eve``'s subspace, or, when ``eve`` is None, to the zero subspace in
    the layout of the family's members (_cap).  With
    ``eve`` a Subspace (test mode) that certifies them independent of each
    other and of the eavesdropper's subspace, exactly.  With ``eve`` None
    (the realistic mode: only its dimension is known) it certifies mutual
    independence only; independence from the eavesdropper then holds with
    probability 1 - O(1/q) and is checked by the session audit.  The
    members with a positive count take the test first (slot by slot for a
    session's glued subspaces, where against the zero subspace each slot's
    other parts are ranked modulo its widest: at the paper shape an
    N x 30 x 30 stack of quotients, not N x 60 x 60): if they pass, any
    picks inside them do, so the first picks are accepted as the test would
    accept them, with the same draws.

    A member counted whole is its only pick of that dimension, taken with no
    draw; each attempt picks inside the other members in one random_picks
    list, in mask order.  Independent picks certify every selection
    constraint at once, and feasible counts always admit them (Rado's
    theorem, matroid union), so the cap table of at most 7 positive counts
    (_actual_caps) is built only after a failed first pick, to tell bad luck
    from infeasible counts.

    Raises:
        TypeError: if ``eve`` is neither None nor a Subspace.
        ValueError: if a count is not a nonnegative integer.
        InfeasibleAllocationError: if the requested counts violate the
            verifiable feasibility constraints (with a witness selection).
        RuntimeError: if no valid pick is found in MAX_EXTRACTION_TRIES draws.
    """
    if eve is not None and not isinstance(eve, Subspace):
        raise TypeError(f"eve must be None or a Subspace, got {type(eve).__name__}")
    alloc = _as_allocation(counts, family.m)
    if any(v.denominator != 1 for _, v in alloc.items()):
        raise ValueError(f"counts must be nonnegative integers, got {dict(alloc.items())}")
    allocated = _allocated(alloc, family)
    masks = family.masks()
    counts = {mask: int(alloc[mask]) for mask in masks}
    base = eve if eve is not None or not masks else _zero_like(family[masks[0]])
    if any(counts[mask] > family[mask].dim for mask in masks):
        # An impossible pick violates its singleton cap, and singletons lead
        # the table order, so the first violated singleton is the witness.
        singletons = {(mask,): _cap([family[mask]], base) for mask in masks}
        raise InfeasibleAllocationError(_check_against(counts, singletons))

    want = sum(counts.values())
    partial = [mask for mask in masks if counts[mask] != family[mask].dim]
    members = [allocated[mask] for mask in allocated]
    independent = not want or _cap(members, base) == sum(s.dim for s in members)
    for attempt in range(MAX_EXTRACTION_TRIES):
        drawn = dict(zip(partial, random_picks([(family[mask], counts[mask]) for mask in partial], rng)))
        picks = {mask: drawn.get(mask, family[mask]) for mask in masks}
        if independent or _cap([picks[mask] for mask in allocated], base) == want:
            return picks
        if attempt == 0 and len(allocated) <= MAX_ENUMERATED_SUBSETS:
            feas = _check_against(counts, _actual_caps(allocated, base))
            if not feas.ok:
                raise InfeasibleAllocationError(feas)
    raise RuntimeError(f"no valid extraction found in {MAX_EXTRACTION_TRIES} tries")


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
    ciphers) are exactly what the eavesdropper also receives.  The JSON form
    (schema 3) stores each slot's message and transfers only; load rebuilds
    its source [I | M] and received packets F @ [I | M] (observe)."""

    params: ChannelParams
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
    achieved_per_slot: Fraction
    key_blocks: int


@dataclass(frozen=True)
class SessionResult:
    transcript: SessionTranscript
    keys: KeyShare
    audit: AuditReport

    def to_json_dict(self) -> dict:
        tr, p, audit = self.transcript, self.transcript.params, self.audit
        return {
            "schema_version": SCHEMA_VERSION,
            "params": {"q": p.ctx.q, "ell": p.ell, "na": p.n_a, "n": list(p.n), "ne": p.n_e},
            "slots": [
                {
                    "message": _mat(rec.message),
                    "transfers": [_mat(f) for f in rec.obs.transfers],
                    "eve_transfer": _mat(rec.obs.eve_transfer),
                }
                for rec in tr.slots
            ],
            "public_messages": {
                "disclosures": [
                    {"subset": mask, "terminal": r, "coeffs": _mat(w)}
                    for (mask, r), w in sorted(tr.disclosures.items())
                ],
                "multicast_code": _mat(tr.multicast_code),
                "ciphers": _mat(tr.ciphers),
            },
            "keys": {
                "subset_keys": {str(mask): _mat(k) for mask, k in sorted(self.keys.subset_keys.items())},
                "final_key": _mat(self.keys.final_key),
                "terminal_final": [_mat(k) for k in self.keys.terminal_final],
            },
            "audit": {
                **asdict(audit),
                "reasons": list(audit.reasons),
                "achieved_per_slot": str(audit.achieved_per_slot),
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SessionResult":
        """Load a schema-3 document, rebuilding each slot's source and received
        packets; ValueError on another schema, non-int params, a count, shape,
        entry, subset or terminal out of range, a subset key mask not written
        as its decimal int, a repeated disclosure or a disclosed subset short
        of a member, or an audit off its keys: a non-degenerate one must
        carry a true certificate, the disclosures of exactly the subsets that
        ship keys, and the agreement of the rebuilt terminal copies with the
        subset and final keys; a code and ciphers not both null or not of one
        row per disclosed key row, or, with a final key, ciphers other than
        code @ final key + the subset keys stacked in mask order; a code other
        than the combination code that the disclosed subsets' row counts
        rebuild (_combination_code, with k = min_r sum_{J containing r}
        rows_J); and a missing field, or one of the wrong JSON type, anywhere
        else."""
        try:
            if doc.get("schema_version") != SCHEMA_VERSION:
                raise ValueError(f"unsupported transcript schema {doc.get('schema_version')}")
            pd = doc["params"]
            scalars = [pd[name] for name in ("q", "ell", "na", "ne")]
            if not isinstance(pd["n"], list) or any(type(x) is not int for x in scalars + pd["n"]):
                raise ValueError(f"params must be plain ints, got {pd}")
            ctx = FieldCtx(pd["q"])
            params = ChannelParams(ctx, pd["ell"], pd["na"], tuple(pd["n"]), pd["ne"])
            want = [(n_r, params.n_a) for n_r in (*params.n, params.n_e)]
            slots = []
            for t, s in enumerate(doc["slots"]):
                fs = [_unmat(f, ctx) for f in (*s["transfers"], s["eve_transfer"])]
                if [f.shape for f in fs] != want:
                    raise ValueError(f"slot {t}: transfer shapes {[f.shape for f in fs]}, need {want}")
                message = _unmat(s["message"], ctx)
                source = make_source_matrix(message, params)
                slots.append(SlotRecord(message, source, observe(source, fs[:-1], fs[-1])))
            pub = doc["public_messages"]
            disclosures = {
                (d["subset"], d["terminal"]): _unmat(d["coeffs"], ctx) for d in pub["disclosures"]
            }
            if not all(
                _is_mask(mask, params.m) and type(r) is int and r in mask_members(mask) for mask, r in disclosures
            ):
                raise ValueError("a disclosure's subset is out of range or lacks its terminal")
            if len(disclosures) != len(pub["disclosures"]) or set(disclosures) != {
                (mask, r) for mask, _ in disclosures for r in mask_members(mask)
            }:
                raise ValueError("a disclosure is repeated, or a disclosed subset lacks a member's")
            if any(w.cols != len(slots) * params.n[r] for (_, r), w in disclosures.items()):
                raise ValueError("a disclosure's width does not match its terminal's received rows")
            code, ciphers = (_unmat(pub[name], ctx) for name in ("multicast_code", "ciphers"))
            transcript = SessionTranscript(params, tuple(slots), disclosures, code, ciphers)
            kd = doc["keys"]
            if not set(kd["subset_keys"]) <= {str(mask) for mask in subset_masks(params.m)}:
                raise ValueError(f"subset key masks {sorted(kd['subset_keys'])} out of range or not canonical")
            if len(kd["terminal_final"]) != params.m:
                raise ValueError(f"need {params.m} terminal final keys, got {len(kd['terminal_final'])}")
            ad = {f.name: doc["audit"][f.name] for f in fields(AuditReport)}
            keys = KeyShare(
                {int(mask): _unmat(k, ctx) for mask, k in kd["subset_keys"].items()},
                {} if ad["degenerate"] else _terminal_subset_keys(params, slots, disclosures),
                _unmat(kd["final_key"], ctx),
                tuple(_unmat(k, ctx) for k in kd["terminal_final"]),
            )
            key_blocks = 0 if keys.final_key is None else keys.final_key.rows
            flags = [ad["subset_agreement"], ad["final_agreement"], ad["leakage_certificate"]]
            # A non-degenerate audit ran on the keys it ships with (none for an
            # empty session): its agreement flags must be theirs, it passed the
            # certificate, since a failed one withholds the keys, and it disclosed
            # exactly the subsets whose keys it ships.
            audited = [*_agreement(keys), True]
            shipped = {mask for mask, _ in disclosures} == set(keys.subset_keys)
            if not (
                all(flag is None or type(flag) is bool for flag in flags)
                and (ad["degenerate"] or shipped and flags == (audited if slots else [None] * 3))
                and isinstance(ad["reasons"], list) and all(type(r) is str for r in ad["reasons"])
                and ad["degenerate"] is bool(ad["reasons"])
                and (not ad["degenerate"] or keys == KeyShare(terminal_final=(None,) * params.m))
                and type(ad["key_blocks"]) is int and ad["key_blocks"] == key_blocks
                and ad["achieved_per_slot"] == str(Fraction(key_blocks, len(slots)) if slots else 0)
            ):
                raise ValueError(f"audit block {doc['audit']} disagrees with the keys it ships with")
            # The code has one row per disclosed key row, and the ciphers are
            # the final key through the code padded with the subset keys.
            rows = {mask: w.rows for (mask, _), w in disclosures.items()}
            disclosed = sum(rows.values())
            if (code is None) != (ciphers is None) or code is not None and not code.rows == ciphers.rows == disclosed:
                raise ValueError(f"the code and the ciphers need one row per disclosed key row ({disclosed}) or none")
            final = keys.final_key
            if final is not None:
                pads = vstack(keys.subset_keys[mask] for mask in sorted(keys.subset_keys)) if keys.subset_keys else None
                if not (
                    code is not None and code.cols == final.rows and pads is not None
                    and pads.shape == ciphers.shape == (code.rows, final.cols)
                    and _ciphers(code, final, pads) == ciphers
                ):
                    raise ValueError("the ciphers are not the code times the final key padded with the subset keys")
            # The code is a function of the disclosed subsets' row counts.
            if code is not None:
                labels = [mask for mask in sorted(rows) for _ in range(rows[mask])]
                k = min(sum(n for mask, n in rows.items() if mask >> r & 1) for r in range(params.m))
                if not k or not np.array_equal(code.arr, _combination_code(labels, k, params.m, ctx.q)[0]):
                    raise ValueError("the code is not the combination code of the disclosed subsets' rows")
            ad.update(reasons=tuple(ad["reasons"]), achieved_per_slot=Fraction(ad["achieved_per_slot"]))
            return cls(transcript, keys, AuditReport(**ad))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed transcript: {type(exc).__name__} {exc}") from exc


def _slot_products(x: MatrixFq, ys: list[MatrixFq]) -> MatrixFq:
    """sum_t X_t @ ys[t], X_t the t-th of len(ys) equal column blocks of x:
    one product per slot, of X_t's nonzero rows only (a whole pick's part,
    or the rows a disclosure gives it), so that no product is wider than a
    slot."""
    q, out = x.ctx.q, np.zeros((x.rows, ys[0].cols), dtype=np.int64)
    for block, y in zip(np.split(x.arr, len(ys), axis=1), ys):
        rows = np.flatnonzero(block.any(axis=1))
        if rows.size:
            out[rows] = (out[rows] + mat_mul(_wrap(block[rows], x.ctx), y).arr) % q
    return _wrap(out, x.ctx)


def _terminal_subset_keys(
    params: ChannelParams, slots, disclosures: dict[tuple[int, int], MatrixFq]
) -> dict[tuple[int, int], MatrixFq]:
    """Terminal r's copy of a subset key is sum_t w_t F_{r,t} M_t: its
    disclosure's slot blocks times the message columns of its received
    packets, slot by slot (_slot_products)."""
    m_parts = {
        r: [_wrap(rec.obs.received[r].arr[:, params.n_a :], params.ctx) for rec in slots]
        for r in sorted({r for _, r in disclosures})
    }
    return {(mask, r): _slot_products(w, m_parts[r]) for (mask, r), w in disclosures.items()}


def _unaudited(reasons: tuple[str, ...] = ()) -> AuditReport:
    """Report of a session that ended before its audit: an empty session, or
    a degenerate one with its reasons."""
    return AuditReport(bool(reasons), reasons, None, None, None, Fraction(0), 0)


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


def _exclusive_picks(received, plan: DimensionPlan, rng) -> list[dict[int, Subspace]]:
    """Step 2: per slot, a uniform pick of each subset's planned exclusive
    dimension inside its common subspace.

    Source-side view: received subspaces in source coordinates are the RREFs
    of the published transfers (RowReduced), [I | M] having full rank; actual
    packets are never published.  Every common subspace off its planned
    dimension is reported before any pick is drawn.  The picks of all slots
    are one random_picks list, slot by slot and in mask order within a slot,
    which draws as picking them one at a time in that order would.
    """
    masks = subset_masks(plan.m)
    commons, reasons = [], []
    for t, slot in enumerate(received):
        spans = [Subspace(f.echelon, f.cols) for f in slot]
        common = {mask: _common_subspace(spans, mask) for mask in masks}
        reasons += [
            f"slot {t}: subset {mask} common dim {sub.dim} != planned {plan.inter_dims[mask]}"
            for mask, sub in common.items()
            if sub.dim != plan.inter_dims[mask]
        ]
        commons.append(common)
    if reasons:
        raise _Degenerate(tuple(reasons))
    requests = [(common[mask], plan.exclusive_dims[mask]) for common in commons for mask in masks]
    picks = iter(random_picks(requests, rng))
    return [{mask: next(picks) for mask in masks} for _ in commons]


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


def _slot_blocks(pick: Subspace, n_slots: int) -> list[tuple[slice, MatrixFq]]:
    """Per slot t, the rows of ``pick``'s basis B that may be nonzero in slot
    block t, and that block B_t on them: a whole pick's parts, each on its
    own rows, or every row of a partial pick's column blocks."""
    if pick.parts is None:
        return [(slice(None), _wrap(b, pick.ctx)) for b in np.split(pick.basis.arr, n_slots, axis=1)]
    ends = np.cumsum([p.dim for p in pick.parts])
    return [(slice(end - p.dim, end), p.basis) for end, p in zip(ends, pick.parts)]


def _disclosures(received, picks: dict[int, Subspace]) -> dict[tuple[int, int], MatrixFq]:
    """Step 4, public part: coefficients C expressing each subset's extracted
    basis B over every member terminal r's received rows: C @ block_diag(F_t)
    == B exactly when C_t @ F_t == B_t, so each slot block's rows
    (_slot_blocks) take one product with step 2's reduction of F_t
    (solve_in_rowspan on RowReduced), for the basic solution, which is zero
    on a zero row; the other rows stay zero.  F_t is public, so any valid C
    shows the eavesdropper the same B.  The first failing (subset, member)
    is reported, subsets first.
    """
    out = {}
    for mask, pick in picks.items():
        blocks = _slot_blocks(pick, len(received))
        for r in mask_members(mask):
            w = np.zeros((pick.dim, len(received) * received[0][r].rows), dtype=np.int64)
            for (rows, b), slot, part in zip(blocks, received, np.split(w, len(received), axis=1)):
                c = solve_in_rowspan(b, slot[r])
                if c is None:
                    raise _Degenerate((f"subset {mask} basis not in terminal {r} span",))
                part[rows] = c.arr
            out[(mask, r)] = _wrap(w, pick.ctx)
    return out


def _keys(params: ChannelParams, slots, picks: dict[int, Subspace], disclosures) -> KeyShare:
    """Key symbols, one (ell - n_a)-symbol block per extracted basis vector,
    B @ (the stacked messages M_t), slot by slot: a whole pick's one part by
    M_t at a time, a partial pick's column blocks by _slot_products; and
    each member terminal's copy.  No final key yet."""
    messages = [rec.message for rec in slots]
    subset_keys = {
        mask: _slot_products(pick.basis, messages)
        if pick.parts is None
        else vstack([mat_mul(p.basis, message) for p, message in zip(pick.parts, messages)])
        for mask, pick in picks.items()
    }
    return KeyShare(subset_keys, _terminal_subset_keys(params, slots, disclosures))


class _Receiver:
    """One terminal's code rows while the code is built: the pivots of their
    reduced echelon form and the code rows kept (those that raised the
    rank), and, once a row is not a unit vector, that form.  While every
    kept row is a unit vector, the form is those unit vectors."""

    def __init__(self, k: int, q: int):
        self.q, self.pivots, self.kept = q, [], []
        self.units = np.zeros(k, dtype=bool)
        self.basis = None

    def inside(self) -> np.ndarray:
        """Which unit vectors lie in the span (a row of the form equal to e_j)."""
        if self.basis is None:
            return self.units
        out = np.zeros_like(self.units)
        single = np.count_nonzero(self.basis, axis=1) == 1
        out[np.array(self.pivots)[single]] = True
        return out

    def unit_residue(self, j: int) -> np.ndarray:
        """e_j less its part on the pivots: zero exactly when e_j is in the
        span.  That part is the row of the form with pivot j, if any."""
        out = np.zeros(len(self.units), dtype=np.int64)
        out[j] = 1
        if self.basis is None:
            out[j] = not self.units[j]
        elif j in self.pivots:
            out = (out - self.basis[self.pivots.index(j)]) % self.q
        return out

    def take_units(self, cols: list[int], rows: list[int]) -> None:
        """Keep code rows ``rows``, the unit vectors e_j for j in ``cols``,
        which lie outside the span, one at a time."""
        if self.basis is None:
            self.units[cols] = True
            self.pivots += cols
            self.kept += rows
        else:
            for j, row in zip(cols, rows):
                self.take(self.unit_residue(j), row)

    def take(self, w: np.ndarray, row: int) -> None:
        """Keep code row ``row``, whose residue w (the row less its part on
        the pivots) is nonzero."""
        q, p = self.q, int(np.flatnonzero(w)[0])
        if self.basis is None:
            n = len(self.pivots)
            self.basis = np.zeros((n, len(w)), dtype=np.int64)
            self.basis[np.arange(n), self.pivots] = 1
        # The new row of the form is w scaled to a leading 1; column p is
        # then cleared from the other rows.
        w = w * pow(int(w[p]), q - 2, q) % q
        self.basis = np.vstack([(self.basis - self.basis[:, p : p + 1] * w) % q, w])
        self.pivots.append(p)
        self.kept.append(row)

    def decode(self, code: MatrixFq, sent: MatrixFq, rows: list[int]) -> MatrixFq:
        """The key X with (kept code rows) @ X == their rows of ``sent``, this
        terminal's ciphers less its pads on its code rows ``rows``: while
        every kept row is a unit vector a selection in pivot order, and
        otherwise C^T for the C with C @ (kept rows)^T == (their rows)^T
        (solve_in_rowspan), unique as the kept rows are k x k of full rank."""
        part = sent.arr[np.searchsorted(rows, self.kept)]
        if self.basis is not None:
            return solve_in_rowspan(_wrap(part.T, code.ctx), _wrap(code.arr[self.kept].T, code.ctx)).transpose()
        out = np.empty_like(part)
        out[self.pivots] = part
        return _wrap(out, code.ctx)


def _combination_code(labels: list[int], k: int, m: int, q: int):
    """The combination code, one row per pad block of subset ``labels[i]``,
    built row by row (linear information flow: Jaggi, Sanders, Chou, Effros,
    Egner, Jain and Tolhuizen, IEEE Trans. IT 2005), and every terminal's
    _Receiver.

    A row must leave the span of every member of its subset still short of
    rank k.  It takes the first unit vector that does.  Failing that, it
    starts at the first short member's first unit vector outside its span,
    and adds each further short member's such vector u_s times the first
    lambda = 0, 1, ... that keeps it outside every span checked so far: a
    span excludes at most one lambda, so q > |J| suffices.  A row with no
    short member is e_0.  At m <= 2 unit vectors always suffice: the private
    rows take prefixes of the coordinates, and the common rows the next free
    ones.

    While every short member of a subset holds unit rows only, the rows
    built one at a time would take the next free unit vectors in turn, so
    the subset's next rows take them as one block, as many as the run of
    its label and the free vectors allow.  A short member's missing rank
    bounds the free vectors, since its span holds its unit rows only, so
    no member fills up inside a block.
    """
    receivers = [_Receiver(k, q) for _ in range(m)]
    code = np.zeros((len(labels), k), dtype=np.int64)
    i = 0
    while i < len(labels):
        mask = labels[i]
        short = [receivers[r] for r in mask_members(mask) if len(receivers[r].pivots) < k]
        insides = [rec.inside() for rec in short]
        free = ~np.logical_or.reduce(insides) if short else np.ones(k, dtype=bool)
        if free.any():
            run = 1
            if all(rec.basis is None for rec in short):
                while i + run < len(labels) and labels[i + run] == mask:
                    run += 1
                run = min(run, np.count_nonzero(free))
            cols = np.flatnonzero(free)[:run].tolist() if short else [0] * run
            rows = list(range(i, i + run))
            code[rows, cols] = 1
            for rec in short:
                rec.take_units(cols, rows)
            i += run
            continue
        # u_s: the first unit vector outside short member s's span.  The
        # residues of v on the short members' spans are linear in v, so they
        # follow v from those of the u_s.
        firsts = [int(np.argmin(inside)) for inside in insides]
        v = np.zeros(k, dtype=np.int64)
        v[firsts[0]] = 1
        res = [rec.unit_residue(firsts[0]) for rec in short]
        for s in range(1, len(short)):
            du = [rec.unit_residue(firsts[s]) for rec in short]
            checked = list(zip(res[: s + 1], du))
            outside = (lam for lam in range(q) if all(((w + lam * d) % q).any() for w, d in checked))
            lam = next(outside, 0)
            v[firsts[s]] = (v[firsts[s]] + lam) % q
            res = [(w + lam * d) % q for w, d in zip(res, du)]
        code[i] = v
        for rec, w in zip(short, res):
            if w.any():
                rec.take(w, i)
        i += 1
    return code, receivers


def _multicast(picks: dict[int, Subspace], keys: KeyShare, final: MatrixFq | None, m: int):
    """Step 5: one-time-pad a linear combination code over the subset key
    blocks so every terminal decodes ``final``, of min_r sum_{J containing r}
    counts[J] blocks (None when that is zero).  Returns the code, the ciphers
    and ``keys`` with the final key and each terminal's decoding.

    The code is deterministic (_combination_code): each terminal's rows have
    full column rank, and it decodes its ciphers less its pads on the rows it
    kept, which must then reproduce all its ciphers.  At m <= 2 every row is
    a unit vector, so decoding is a selection; otherwise each terminal
    solves for the key through the row span of its kept rows, transposed.
    The ciphers and the checks multiply through the code's nonzeros
    (_code_product), so at m <= 2 they are gathers and take no product.
    The code does not bear on secrecy: the pads are certified uniform and
    independent of the eavesdropper's view (_audit), so the ciphers are
    independent of the final key for any code.
    """
    if final is None:
        return None, None, replace(keys, terminal_final=(None,) * m)
    ctx, key_blocks = final.ctx, final.rows
    # Pad row i is a key block of subset labels[i] (subset keys in mask order).
    labels = [mask for mask, pick in picks.items() for _ in range(pick.dim)]
    code, receivers = _combination_code(labels, key_blocks, m, ctx.q)
    if any(len(rec.pivots) < key_blocks for rec in receivers):
        raise _Degenerate(("no decodable combination code found",))
    code = _wrap(code, ctx)
    ciphers = _ciphers(code, final, vstack(list(keys.subset_keys.values())))
    decoded = []
    for r, rec in enumerate(receivers):
        rows = [i for i, mask in enumerate(labels) if mask >> r & 1]
        pads_r = vstack([keys.terminal_subset_keys[(mask, r)] for mask in picks if mask >> r & 1])
        sent = _wrap((ciphers.arr[rows] - pads_r.arr) % ctx.q, ctx)
        key = rec.decode(code, sent, rows)
        if _code_product(code.arr[rows], key) != sent:
            raise _Degenerate((f"terminal {r} could not decode the combination code",))
        decoded.append(key)
    return code, ciphers, replace(keys, final_key=final, terminal_final=tuple(decoded))


def _code_product(code: np.ndarray, x: MatrixFq) -> MatrixFq:
    """code @ x through the code's nonzeros, at most m per row
    (_combination_code): row i is the sum of code[i, j] x[j] over its
    nonzero columns j, mod q.  At m <= 2 every row is a unit vector, so
    this is a gather of x's rows."""
    q, (rows, cols) = x.ctx.q, np.nonzero(code)
    out = np.zeros((len(code), x.cols), dtype=np.int64)
    np.add.at(out, rows, code[rows, cols, None] * x.arr[cols] % q)
    return _wrap(out % q, x.ctx)


def _ciphers(code: MatrixFq, final: MatrixFq, pads: MatrixFq) -> MatrixFq:
    """code @ final + pads (_code_product), the pads being the subset keys
    stacked in mask order."""
    return _wrap((_code_product(code.arr, final).arr + pads.arr) % final.ctx.q, final.ctx)


def _agreement(keys: KeyShare) -> tuple[bool, bool]:
    """Subset agreement (every terminal's copy equals its subset key) and final
    agreement (every terminal's decoding equals the final key)."""
    return (
        all(k == keys.subset_keys.get(mask) for (mask, _), k in keys.terminal_subset_keys.items()),
        all(k == keys.final_key for k in keys.terminal_final),
    )


def _audit(slots, picks: dict[int, Subspace], keys: KeyShare) -> AuditReport:
    """Audit (harness-side omniscience): subset and final agreement, and the
    zero-leakage certificate: the picks add their whole dimension to the
    direct sum E of the eavesdropper's slot subspaces (_cap).  That holds
    exactly when the key rows K have full row rank and meet span E only in
    zero: rank [K; block_diag(E_t)] = rows(K) + dim E.  A failed one
    withholds the keys and raises its report.  A passing one proves
    feasibility: each pick lies in its glued exclusive subspace and K keeps
    full rank modulo E, so sum_S counts = rank(K_S mod E) <=
    dim(sum_S glued_J + E) - dim E.
    """
    eves = spans_of(rec.obs.eve_transfer for rec in slots)
    # Certified in coefficient space: the packets are these coefficients times
    # block_diag([I | M_t]), which has full row rank and so keeps every rank.
    cert = _cap(picks.values(), direct_sum(*eves)) == sum(pick.dim for pick in picks.values())
    key_blocks = 0 if keys.final_key is None or not cert else keys.final_key.rows
    subset_agreement, final_agreement = _agreement(keys)
    audit = AuditReport(
        degenerate=not cert,
        reasons=() if cert else ("leakage certificate failed, keys withheld",),
        subset_agreement=subset_agreement,
        final_agreement=final_agreement,
        leakage_certificate=cert,
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
        ValueError: before any draw, for a wrong terminal or slot count, or for
            replayed messages or a final key of the wrong shape or field.
    """
    if alloc.m != params.m:
        raise ValueError(f"allocation is for m={alloc.m}, channel has m={params.m}")
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
    transcript = SessionTranscript(params, slots)
    withheld = KeyShare(terminal_final=(None,) * m)
    if n_slots == 0:
        return SessionResult(transcript, withheld, _unaudited())
    try:
        reduced = RowReduced.stack(f for rec in slots for f in rec.obs.transfers)
        received = [reduced[t * m : (t + 1) * m] for t in range(n_slots)]
        exclusive = _exclusive_picks(received, plan, proto_rng)
        picks = _extract(exclusive, counts, m, proto_rng)
        disclosures = _disclosures(received, picks)
        keys = _keys(params, slots, picks, disclosures)
        if key_blocks and final_key is None:
            final_key = random_matrix(key_blocks, width, ctx, msg_rng)
        final = final_key if key_blocks else None
        code, ciphers, keys = _multicast(picks, keys, final, m)
        transcript = SessionTranscript(params, slots, disclosures, code, ciphers)
        audit = _audit(slots, picks, keys)
    except _Degenerate as exc:
        return SessionResult(transcript, withheld, exc.audit)
    return SessionResult(transcript, keys, audit)


# --------------------------------------------------------------------------
# Transcript serialization (versioned JSON for replay and comparison)
# --------------------------------------------------------------------------

SCHEMA_VERSION = 3


def _mat(m: MatrixFq | None):
    return None if m is None else {"rows": m.rows, "cols": m.cols, "entries": m.tolist()}


def _unmat(doc, ctx: FieldCtx) -> MatrixFq | None:
    """ValueError unless ``doc`` is a {rows, cols, entries} object whose
    entries are nested lists of exactly the declared shape holding ints (not
    bools) in [0, q)."""
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise ValueError(f"a matrix must be a {{rows, cols, entries}} object, got {type(doc).__name__}")
    rows, cols, entries = (doc.get(key) for key in ("rows", "cols", "entries"))
    if not (
        all(type(n) is int and n >= 0 for n in (rows, cols))
        and isinstance(entries, list)
        and len(entries) == rows
        and all(isinstance(row, list) and len(row) == cols for row in entries)
        and all(type(x) is int and 0 <= x < ctx.q for row in entries for x in row)
    ):
        raise ValueError(f"matrix entries are not {rows} x {cols} ints in [0, {ctx.q})")
    return MatrixFq(np.array(entries, dtype=np.int64).reshape(rows, cols), ctx)


def _is_mask(mask, m: int) -> bool:
    return type(mask) is int and 1 <= mask < 2**m


def save_session(result: SessionResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result.to_json_dict(), fh, sort_keys=True, separators=(",", ":"))


def load_session(path) -> SessionResult:
    with open(path) as fh:
        return SessionResult.from_json_dict(json.load(fh))
