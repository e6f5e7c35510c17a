"""Output checks that do not rely on the program's own audit.

Every check returns a ``Verdict``: ``program_ok`` is what nckey itself
reported (its audit flags, or an artifact it emitted without error), and
``problems`` lists what the benchmark found wrong.  An operation succeeds only
when both agree it is fine; one the program reported as fine but that fails a
check is a silent error, which makes the whole run incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


@dataclass
class Verdict:
    program_ok: bool = True
    problems: list[str] = field(default_factory=list)
    degenerate: bool = False
    verified_blocks: int = 0

    @property
    def ok(self) -> bool:
        return self.program_ok and not self.problems and not self.degenerate

    @property
    def failed(self) -> bool:
        return not self.degenerate and not self.ok

    @property
    def silent(self) -> bool:
        return self.program_ok and bool(self.problems)


def _members(mask: int, m: int) -> list[int]:
    return [r for r in range(m) if mask >> r & 1]


def _same(a, b) -> bool:
    return a is not None and b is not None and a.shape == b.shape and np.array_equal(a.arr, b.arr)


def mulmod(a, b, q: int):
    """Exact (a @ b) mod q for int64 arrays with entries in [0, q), q < 2**31.

    Independent of nckey: a is split into 15- and 16-bit limbs so that every
    partial dot product of up to 2**15 terms stays inside int64.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = 2**15
    for j in range(0, a.shape[1], step):
        a_j, b_j = a[:, j : j + step], b[j : j + step]
        hi = np.mod((a_j >> 15) @ b_j, q)
        out = np.mod(out + hi * 2**15 + (a_j & 0x7FFF) @ b_j, q)
    return out


def row_reduce(a, q: int) -> tuple[np.ndarray, list[int]]:
    """Nonzero rows of the reduced row echelon form of ``a`` over F_q, and
    the pivot columns.  Plain Gauss-Jordan, independent of nckey; every
    product of two entries stays below q**2 < 2**62."""
    r = np.mod(np.array(a, dtype=np.int64), q)
    pivots: list[int] = []
    for col in range(r.shape[1]):
        row = len(pivots)
        if row == r.shape[0]:
            break
        nz = np.flatnonzero(r[row:, col])
        if nz.size == 0:
            continue
        r[[row, row + nz[0]]] = r[[row + nz[0], row]]
        r[row] = r[row] * pow(int(r[row, col]), -1, q) % q
        factors = r[:, col].copy()
        factors[row] = 0
        r = np.mod(r - np.outer(factors, r[row]) % q, q)
        pivots.append(col)
    return r[: len(pivots)], pivots


def common_dim(spanning, q: int) -> int:
    """Dimension of the intersection of the row spaces of the matrices in
    ``spanning``: left kernels of stacked bases, one subspace at a time."""
    inter, _ = row_reduce(spanning[0], q)
    for other in spanning[1:]:
        basis, _ = row_reduce(other, q)
        if inter.shape[0] == 0:
            return 0
        stacked = np.vstack([inter, basis])
        red, pivots = row_reduce(stacked.T, q)
        free = [c for c in range(stacked.shape[0]) if c not in pivots]
        kernel = np.zeros((len(free), stacked.shape[0]), dtype=np.int64)
        for i, f in enumerate(free):
            kernel[i, f] = 1
            for j, p in enumerate(pivots):
                kernel[i, p] = -red[j, f] % q
        inter, _ = row_reduce(mulmod(kernel[:, : inter.shape[0]], inter, q), q)
    return inter.shape[0]


GENERIC_EVENT = re.compile(r"slot (\d+): subset (\d+) common dim (\d+) != planned (\d+)")
LEAK_EVENT = "leakage certificate failed, keys withheld"


def _block_diag(blocks) -> np.ndarray:
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def leak_problems(transcript) -> list[str]:
    """Why a failed leakage certificate is not a genuine event; empty when
    it is.  Each subset's extracted basis is rebuilt from the public
    disclosures (coefficients over a member's received rows), every member
    must give the same basis, and the key packets it selects must share a
    nonzero vector with the eavesdropper's packets."""
    q = transcript.params.ctx.q
    slots = transcript.slots
    bases: dict[int, np.ndarray] = {}
    for (mask, r), w in transcript.disclosures.items():
        basis = mulmod(w.arr, _block_diag([s.obs.transfers[r].arr for s in slots]), q)
        if bases.setdefault(mask, basis).shape != basis.shape or (bases[mask] != basis).any():
            return [f"subset {mask}: disclosures of its members give different bases"]
    if not bases:
        return ["no key vectors disclosed"]
    key = mulmod(np.vstack(list(bases.values())), _block_diag([s.source.arr for s in slots]), q)
    eve = _block_diag([s.obs.eve_received.arr for s in slots])

    def rank(a):
        return row_reduce(a, q)[0].shape[0]

    if rank(np.vstack([key, eve])) == rank(key) + rank(eve):
        return ["the key packets are independent of the eavesdropper's"]
    return []


def degenerate_problems(result) -> list[str]:
    """Why a session flagged degenerate is not a genuine generic-position
    event; empty when it is.

    nckey also flags a session degenerate when extraction, a disclosure or
    the combination code fails, which are defects.  Two reasons are
    accepted, each only when the benchmark confirms it with its own
    elimination over F_q: "common dim X != planned Y", when the slot's
    subset has dimension X and generic-position arithmetic gives Y != X;
    and a failed leakage certificate, when the disclosed key packets do
    meet the eavesdropper's (uniform picks that ignore the eavesdropper hit
    its view with probability O(1/q)).
    """
    params = result.transcript.params
    m, q = len(params.n), params.ctx.q
    inter, _ = generic_dims(params.n_a, params.n, params.n_e)
    if not result.audit.reasons:
        return ["degenerate without a reason"]
    problems = []
    for reason in result.audit.reasons:
        if reason == LEAK_EVENT:
            problems += [f"{reason}, but {p}" for p in leak_problems(result.transcript)]
            continue
        event = GENERIC_EVENT.fullmatch(reason)
        if event is None:
            problems.append(f"bailed out: {reason}")
            continue
        t, mask, got, planned = map(int, event.groups())
        if not (0 <= t < len(result.transcript.slots) and mask in inter):
            problems.append(f"no such slot or subset: {reason}")
            continue
        transfers = result.transcript.slots[t].obs.transfers
        dim = common_dim([transfers[r].arr for r in _members(mask, m)], q)
        if planned != inter[mask] or dim != got or dim == planned:
            problems.append(f"{reason}, but the dimension is {dim} and generic is {inter[mask]}")
    return problems


def check_session(result, shares: dict[int, Fraction], m: int, n_slots: int) -> Verdict:
    """Agreement, certificate and key size of one audited session.

    ``shares`` is the allocation the session ran with (mask -> share per slot).
    A session nckey flagged degenerate counts as degenerate only when the
    benchmark confirms every reason it gave (see ``degenerate_problems``);
    any other bail-out is a failed operation.
    """
    audit, keys = result.audit, result.keys
    if audit.degenerate:
        problems = degenerate_problems(result)
        if keys.final_key is not None or keys.subset_keys:
            problems.append("degenerate session released keys")
        return Verdict(program_ok=False, problems=problems) if problems else Verdict(degenerate=True)
    v = Verdict(
        program_ok=bool(audit.subset_agreement and audit.final_agreement and audit.leakage_certificate)
    )
    counts = {mask: math.floor(n_slots * Fraction(s)) for mask, s in shares.items()}
    key_blocks = min(sum(c for mask, c in counts.items() if mask >> r & 1) for r in range(m))
    if audit.key_blocks != key_blocks:
        v.problems.append(f"key_blocks {audit.key_blocks} != recomputed {key_blocks}")
    if audit.leakage_certificate is not True:
        v.problems.append("no leakage certificate")
    for mask, c in counts.items():
        if c == 0:
            continue
        ref = keys.subset_keys.get(mask)
        if ref is None or ref.rows != c:
            v.problems.append(f"subset {mask}: expected {c} key blocks")
            continue
        for r in _members(mask, m):
            if not _same(keys.terminal_subset_keys.get((mask, r)), ref):
                v.problems.append(f"subset {mask}: terminal {r} key differs")
    if key_blocks > 0:
        final = keys.final_key
        if final is None or final.rows != key_blocks:
            v.problems.append(f"final key should have {key_blocks} blocks")
        for r in range(m):
            if not _same(keys.terminal_final[r] if r < len(keys.terminal_final) else None, final):
                v.problems.append(f"terminal {r} final key differs")
    if not v.problems and v.program_ok:
        v.verified_blocks = key_blocks
    return v


# --------------------------------------------------------------------------
# Reference rate formulas (the paper's cut bound and the planned LP)
# --------------------------------------------------------------------------


def cut_upper(n_a: int, n: list[int], n_e: int, ell: int) -> int:
    """min_i (min[n_a, n_i+n_e] - n_e)^+ (ell - min[n_a, n_i+n_e])."""
    terms = []
    for n_i in n:
        cut = min(n_a, n_i + n_e)
        terms.append(max(cut - n_e, 0) * (ell - cut))
    return min(terms)


def generic_dims(n_a: int, n, n_e: int) -> tuple[dict[int, int], dict[int, int]]:
    """Common and exclusive dimension per subset mask under generic position."""
    m = len(n)
    d = [min(x, n_a) for x in n]
    d_e = min(n_e, n_a)
    inter, excl = {}, {}
    for mask in range(1, 2**m):
        members = _members(mask, m)
        d_j = max(sum(d[i] for i in members) - (len(members) - 1) * n_a, 0)
        overlap = sum(max(d[i] + d_j - n_a, 0) for i in range(m) if i not in members)
        overlap += max(d_e + d_j - n_a, 0)
        inter[mask] = d_j
        excl[mask] = max(d_j - overlap, 0)
    return inter, excl


def planned_caps(n_a: int, n: list[int], n_e: int) -> dict[tuple[int, ...], int]:
    """Selection caps from generic-position dimension arithmetic: for every
    nonempty collection S of subsets, min(sum_S excl + d_e, n_a) - d_e."""
    _, excl = generic_dims(n_a, n, n_e)
    d_e = min(n_e, n_a)
    masks = sorted(excl)
    caps = {}
    for k in range(1, len(masks) + 1):
        for sel in itertools.combinations(masks, k):
            caps[sel] = min(sum(excl[s] for s in sel) + d_e, n_a) - d_e
    return caps


def lp_reference(n_a: int, n: list[int], n_e: int) -> float:
    """Max-min share per slot (units of (ell - n_a) log q) by scipy's HiGHS."""
    m = len(n)
    masks = list(range(1, 2**m))
    nvar = len(masks) + 1
    a_ub, b_ub = [], []
    for r in range(m):
        row = [0.0] * nvar
        row[-1] = 1.0
        for j, mask in enumerate(masks):
            if mask >> r & 1:
                row[j] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
    for sel, cap in planned_caps(n_a, n, n_e).items():
        row = [0.0] * nvar
        for mask in sel:
            row[masks.index(mask)] = 1.0
        a_ub.append(row)
        b_ub.append(float(cap))
    c = [0.0] * len(masks) + [-1.0]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * nvar, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun


# --------------------------------------------------------------------------
# CLI artifacts
# --------------------------------------------------------------------------


def parse_csv(text: str) -> tuple[list[dict], dict | None]:
    """Rows and the optional summary of an ``nckey`` CSV artifact."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError("missing artifact header")
    summary = None
    if lines[-1].startswith("# summary "):
        summary = json.loads(lines[-1][len("# summary ") :])
        lines = lines[:-1]
    if len(lines) < 2:
        return [], summary
    cols = lines[1].split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[2:]], summary


def check_bounds(text: str, golden: bytes | None = None, expect_rows: int | None = None) -> Verdict:
    """Every row: upper equals the cut formula, lower <= upper, and for more
    than one terminal lower matches the scipy LP reference within 1e-9."""
    v = Verdict()
    if golden is not None and text.encode() != golden:
        v.problems.append("artifact differs from the golden file")
    rows, _ = parse_csv(text)
    if expect_rows is not None and len(rows) != expect_rows:
        v.problems.append(f"{len(rows)} rows, expected {expect_rows}")
    refs: dict[tuple, float] = {}
    for row in rows:
        n_a, ell, n_e = int(row["na"]), int(row["ell"]), int(row["ne"])
        n = [int(x) for x in row["n"].split(";")]
        scale = Fraction(1) if row["normalization"] == "absolute" else Fraction(1, ell - n_a)
        upper, lower = Fraction(row["upper_coeff"]), Fraction(row["lower_coeff"])
        if upper != cut_upper(n_a, n, n_e, ell) * scale:
            v.problems.append(f"ne={n_e} {row['normalization']}: upper {upper} != cut formula")
        if lower > upper:
            v.problems.append(f"ne={n_e} {row['normalization']}: lower {lower} > upper {upper}")
        if len(n) > 1:
            key = (n_a, tuple(n), n_e)
            if key not in refs:
                refs[key] = lp_reference(n_a, n, n_e)
            want = refs[key] * (ell - n_a) * float(scale)
            if abs(float(lower) - want) > 1e-9 * max(1.0, abs(want)):
                v.problems.append(f"ne={n_e} {row['normalization']}: lower {lower} != LP {want}")
    return v


def check_oracle(text: str, expect_rows: int) -> Verdict:
    v = Verdict()
    rows, _ = parse_csv(text)
    if len(rows) != expect_rows:
        v.problems.append(f"{len(rows)} oracle rows, expected {expect_rows}")
    for row in rows:
        for col in ("cmi_nats", "cmi_per_logq"):
            x = float(row[col])
            if not math.isfinite(x) or x < 0:
                v.problems.append(f"q={row['q']} dim={row['input_dim']}: {col}={x}")
    return v


def check_simulate(text: str, trials: int) -> tuple[Verdict, list[int]]:
    """The summary must report full agreement and certification over the
    non-degenerate sessions; the program's own per-session flags decide.
    Also returns the degenerate sessions, whose reasons the artifact does
    not carry: the caller re-runs them and confirms each one."""
    rows, summary = parse_csv(text)
    if summary is None or summary.get("trials") != trials or len(rows) != trials:
        return Verdict(problems=["simulate artifact lacks its summary or rows"]), []
    degenerate = [i for i, row in enumerate(rows) if row["degenerate"] == "true"]
    if summary["agreement_rate"] is None:
        return Verdict(degenerate=True), degenerate
    ok = summary["agreement_rate"] == 1.0 and summary["certificate_rate"] == 1.0
    v = Verdict(program_ok=ok)
    if not ok:
        v.problems.append(
            f"agreement_rate={summary['agreement_rate']} certificate_rate={summary['certificate_rate']}"
        )
    return v, degenerate
