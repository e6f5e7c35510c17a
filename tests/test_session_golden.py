"""Golden digests of seeded sessions.

For the same parameters, allocation and seed, a session's transcript, keys
and audit must stay byte-identical.  Each digest is a sha256 over the
session's ``to_json_dict()`` plus every terminal's reconstructed subset keys.
The cases cover the README shape, an m=3 shape, a large prime, a shape with
more key rows than field elements, a shape with more received packets than
source packets (n_r > n_a, where disclosures are not unique), q=2, 3 and
7 shapes whose seeds hit every reason a session bails out for, and the
paper's shape at N=16, whose eliminations are wider than two column panels.

A second digest set, ``session_protocol_digests.json``, hashes only the
protocol's outputs as int64 arrays with their shapes (messages, transfers,
disclosures, code, ciphers and keys) plus the audit verdicts, so that a change
of the transcript format regenerates the first set and leaves it untouched.
Every session is also reloaded from its JSON, which stores no source or
received packets, and must give the same protocol digest and packets.

The digests fix bytes; ``reference_session`` (``tests/references.py``)
fixes what they mean.  Built the slow, obvious way with the same draws, it
must give the same JSON and terminal subset keys on every golden session
outside the three paper16 cases and on small random shapes (below), and on
eight allocated subsets at m = 4 (``test_agreement.py``).  Regenerated
digests must first pass those reference-session tests.

Regenerate (only for an intended, documented output change) with
``PYTHONPATH=src python tests/test_session_golden.py > tests/data/session_digests.json``
or, for the protocol digests,
``PYTHONPATH=src python tests/test_session_golden.py --protocol > tests/data/session_protocol_digests.json``.
"""

import ast
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckey.agreement import plan_dimensions, run_session, solve_allocation_lp_planned
from nckey.channel import ChannelParams
from nckey.fieldmath import FieldCtx
from references import reference_session

DATA = Path(__file__).parent / "data" / "session_digests.json"
PROTOCOL_DATA = Path(__file__).parent / "data" / "session_protocol_digests.json"

# name -> (q, ell, n_a, n, n_e, slots, seeds)
CASES = {
    "readme": (101, 10, 6, (4, 4), 2, 4, range(10)),
    "m3": (101, 9, 6, (4, 4, 4), 2, 3, range(4)),
    "q2": (2, 6, 4, (3, 3), 1, 2, range(50)),
    "q3": (3, 6, 4, (3, 3), 1, 2, range(32)),
    "q3-m3": (3, 9, 6, (4, 4, 4), 2, 2, range(12)),
    "q7": (7, 12, 8, (5, 5), 2, 3, range(6)),
    # 120 extracted rows > q: the combination code has more rows than field elements
    "wide": (101, 70, 60, (15, 15), 20, 4, range(2)),
    "bigq": (2**31 - 1, 10, 6, (4, 4), 2, 3, range(3)),
    # n_r > n_a: disclosures are not unique, so they pin which solution is chosen
    "tall": (3, 8, 4, (6, 5), 1, 2, range(32)),
    # the paper shape at N=16, at a small, a large and the smallest prime:
    # eliminations wider than two column panels (in each, a stack of the
    # extraction's two 120 x 240 RREFs and a 240 x 240 certificate rank; at
    # q=2 also a 240 x 480 joint rank)
    "paper16": (101, 70, 60, (45, 45), 15, 16, range(1)),
    "paper16-bigq": (2**31 - 1, 70, 60, (45, 45), 15, 16, range(1)),
    "paper16-q2": (2, 70, 60, (45, 45), 15, 16, range(1)),
}

BAIL_KINDS = ("common dim", "extraction failed", "leakage certificate")


def _session_doc(result) -> dict:
    doc = result.to_json_dict()
    doc["terminal_subset_keys"] = {
        f"{mask},{r}": k.tolist() for (mask, r), k in sorted(result.keys.terminal_subset_keys.items())
    }
    return doc


def _outcome(result) -> str:
    if not result.audit.degenerate:
        return "ok"
    return next(kind for kind in BAIL_KINDS if kind in result.audit.reasons[0])


def _protocol_digest(result) -> str:
    """sha256 over the session's protocol outputs as little-endian int64
    arrays with their shapes, and its outcome, certificate, key blocks and
    achieved rate; no part of ``to_json_dict()`` enters it."""
    tr, keys, audit = result.transcript, result.keys, result.audit
    h = hashlib.sha256()

    def feed(label: str, entries) -> None:
        # entries: (index tuple of a fixed length per label, matrix or None)
        h.update(np.array([len(label), len(entries)], "<i8").tobytes() + label.encode())
        for index, mat in entries:
            shape = (-1, -1) if mat is None else mat.shape
            h.update(np.array([*index, *shape], "<i8").tobytes())
            if mat is not None:
                h.update(mat.arr.astype("<i8").tobytes())

    slots = list(enumerate(tr.slots))
    feed("messages", [((t,), rec.message) for t, rec in slots])
    feed("transfers", [((t, r), f) for t, rec in slots for r, f in enumerate(rec.obs.transfers)])
    feed("eve_transfers", [((t,), rec.obs.eve_transfer) for t, rec in slots])
    feed("disclosures", [(key, w) for key, w in sorted(tr.disclosures.items())])
    feed("code", [((), tr.multicast_code)])
    feed("ciphers", [((), tr.ciphers)])
    feed("subset_keys", [((mask,), k) for mask, k in sorted(keys.subset_keys.items())])
    feed("final_key", [((), keys.final_key)])
    feed("terminal_final", [((r,), k) for r, k in enumerate(keys.terminal_final)])
    feed("terminal_subset_keys", [(key, k) for key, k in sorted(keys.terminal_subset_keys.items())])
    verdicts = [_outcome(result), audit.leakage_certificate, audit.key_blocks, str(audit.achieved_per_slot)]
    h.update(json.dumps(verdicts).encode())
    return h.hexdigest()


def run_sessions() -> list:
    """(case name, seed, SessionResult) for every golden session."""
    out = []
    for name, (q, ell, n_a, n, n_e, slots, seeds) in CASES.items():
        params = ChannelParams(FieldCtx(q), ell, n_a, n, n_e)
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(params))
        for seed in seeds:
            out.append((name, str(seed), run_session(params, slots, alloc, np.random.default_rng(seed))))
    return out


def _session_json(result) -> str:
    return json.dumps(_session_doc(result), sort_keys=True)


def format_digests(sessions) -> dict:
    out = {}
    for name, seed, result in sessions:
        text = _session_json(result)
        out.setdefault(name, {})[seed] = [_outcome(result), hashlib.sha256(text.encode()).hexdigest()]
    return out


def protocol_digests(sessions) -> dict:
    out = {}
    for name, seed, result in sessions:
        out.setdefault(name, {})[seed] = _protocol_digest(result)
    return out


@pytest.fixture(scope="module")
def sessions():
    return run_sessions()


def test_session_digests_match_golden(sessions):
    want = json.loads(DATA.read_text())
    got = format_digests(sessions)
    assert got == want
    outcomes = {kind for runs in got.values() for kind, _ in runs.values()}
    assert outcomes == {"ok", *BAIL_KINDS}
    for name in ("q2", "q3"):
        assert {kind for kind, _ in got[name].values()} == {"ok", *BAIL_KINDS}


def test_session_protocol_digests_match_golden(sessions):
    want = json.loads(PROTOCOL_DATA.read_text())
    assert protocol_digests(sessions) == want
    assert sum(len(runs) for runs in want.values()) == 154


def test_golden_sessions_reload_exactly(sessions):
    want = json.loads(PROTOCOL_DATA.read_text())
    for name, seed, result in sessions:
        back = type(result).from_json_dict(json.loads(json.dumps(result.to_json_dict())))
        assert _protocol_digest(back) == want[name][seed], (name, seed)
        assert len(back.transcript.slots) == len(result.transcript.slots)
        for rec, old in zip(back.transcript.slots, result.transcript.slots):
            assert rec.source == old.source
            assert rec.obs.received == old.obs.received
            assert rec.obs.eve_received == old.obs.eve_received


def test_golden_sessions_equal_the_reference_session(sessions):
    # the paper16 shapes are left out: at session width the reference's
    # Gauss-Jordan eliminations take minutes there
    checked = 0
    for name, seed, result in sessions:
        if name.startswith("paper16"):
            continue
        q, ell, n_a, n, n_e, slots, _ = CASES[name]
        params = ChannelParams(FieldCtx(q), ell, n_a, n, n_e)
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(params))
        want = reference_session(params, slots, alloc, np.random.default_rng(int(seed)))
        assert _session_json(result) == _session_json(want), (name, seed)
        checked += 1
    assert checked == 151


@st.composite
def small_sessions(draw):
    """(params, slots, seed): m <= 4 terminals, q at the field-size extremes
    (small q, where sessions bail out, twice as likely), N <= 4 slots (rarely
    none), n_a <= 7, ell <= n_a + 3, n_i <= n_a + 1 and n_e <= n_a."""
    ctx = FieldCtx(draw(st.sampled_from([2, 2, 3, 3, 101, 2**31 - 1])))
    n_a, m = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    n = draw(st.lists(st.integers(0, n_a + 1), min_size=m, max_size=m))
    params = ChannelParams(ctx, n_a + draw(st.integers(1, 3)), n_a, tuple(n), draw(st.integers(0, n_a)))
    return params, draw(st.sampled_from([0, 1, 2, 2, 3, 3, 4, 4, 4])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_sessions())
def test_small_sessions_equal_the_reference_session(case):
    params, slots, seed = case
    alloc, _ = solve_allocation_lp_planned(plan_dimensions(params))
    got = run_session(params, slots, alloc, np.random.default_rng(seed))
    assert _session_json(got) == _session_json(reference_session(params, slots, alloc, np.random.default_rng(seed)))


def test_references_take_no_kernel_from_nckey():
    # the references check the kernels, so they take from nckey only what
    # must match, every name of it listed in their docstring, and no kernel
    tree = ast.parse((Path(__file__).parent / "references.py").read_text())
    assert not any(isinstance(node, ast.Import) and "nckey" in ast.unparse(node) for node in ast.walk(tree))
    imported = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nckey")
        for a in node.names
    }
    assert imported == {
        "random_matrix", "make_source_matrix", "broadcast_slot", "plan_dimensions",
        "AuditReport", "KeyShare", "SessionResult", "SessionTranscript", "SlotRecord",
        "MAX_DRAWS", "MAX_EXTRACTION_TRIES", "MAX_ENUMERATED_SUBSETS", "MatrixFq", "Subspace", "SubspaceFamily",
    }
    assert imported.isdisjoint({"rank", "rref", "quotient", "right_kernel", "solve_in_rowspan", "mat_mul", "_echelon"})
    assert all(f"``{name}``" in ast.get_docstring(tree) for name in imported)


if __name__ == "__main__":
    digests = protocol_digests if sys.argv[1:] == ["--protocol"] else format_digests
    print(json.dumps(digests(run_sessions()), indent=1, sort_keys=True))
