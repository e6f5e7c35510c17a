"""Golden digests of seeded sessions.

For the same parameters, allocation and seed, a session's transcript, keys
and audit must stay byte-identical.  Each digest is a sha256 over the
session's ``to_json_dict()`` plus every terminal's reconstructed subset keys.
The cases cover the README shape, an m=3 shape, a large prime, a shape with
more key rows than field elements, a shape with more received packets than
source packets (n_r > n_a, where disclosures are not unique), and q=2, 3 and
7 shapes whose seeds hit every reason a session bails out for.

Regenerate (only for an intended, documented output change) with
``PYTHONPATH=src python tests/test_session_golden.py > tests/data/session_digests.json``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from nckey.agreement import plan_dimensions, run_session, solve_allocation_lp_planned
from nckey.channel import ChannelParams
from nckey.fieldmath import FieldCtx

DATA = Path(__file__).parent / "data" / "session_digests.json"

# name -> (q, ell, n_a, n, n_e, slots, seeds)
CASES = {
    "readme": (101, 10, 6, (4, 4), 2, 4, range(10)),
    "m3": (101, 9, 6, (4, 4, 4), 2, 3, range(4)),
    "q2": (2, 6, 4, (3, 3), 1, 2, range(50)),
    "q3": (3, 6, 4, (3, 3), 1, 2, range(32)),
    "q3-m3": (3, 9, 6, (4, 4, 4), 2, 2, range(12)),
    "q7": (7, 12, 8, (5, 5), 2, 3, range(6)),
    # 120 extracted rows > q: the multicast step draws a random combination code
    "wide": (101, 70, 60, (15, 15), 20, 4, range(2)),
    "bigq": (2**31 - 1, 10, 6, (4, 4), 2, 3, range(3)),
    # n_r > n_a: disclosures are not unique, so they pin which solution is chosen
    "tall": (3, 8, 4, (6, 5), 1, 2, range(32)),
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


def run_cases() -> dict:
    out = {}
    for name, (q, ell, n_a, n, n_e, slots, seeds) in CASES.items():
        params = ChannelParams(FieldCtx(q), ell, n_a, n, n_e)
        alloc, _ = solve_allocation_lp_planned(plan_dimensions(params))
        runs = {}
        for seed in seeds:
            result = run_session(params, slots, alloc, np.random.default_rng(seed))
            text = json.dumps(_session_doc(result), sort_keys=True)
            runs[str(seed)] = [_outcome(result), hashlib.sha256(text.encode()).hexdigest()]
        out[name] = runs
    return out


def test_session_digests_match_golden():
    want = json.loads(DATA.read_text())
    got = run_cases()
    assert got == want
    outcomes = {kind for runs in got.values() for kind, _ in runs.values()}
    assert outcomes == {"ok", *BAIL_KINDS}
    for name in ("q2", "q3"):
        assert {kind for kind, _ in got[name].values()} == {"ok", *BAIL_KINDS}


if __name__ == "__main__":
    print(json.dumps(run_cases(), indent=1, sort_keys=True))
