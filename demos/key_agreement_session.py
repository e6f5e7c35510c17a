"""One full key-agreement session, narrated.

Run:  python3 demos/key_agreement_session.py
"""

import json

import numpy as np

from nckey.agreement import SessionResult, plan_dimensions, run_session, solve_allocation_lp_planned
from nckey.channel import ChannelParams
from nckey.fieldmath import FieldCtx

ctx = FieldCtx(101)
params = ChannelParams(ctx, ell=10, n_a=6, n=(4, 4), n_e=2)
n_slots = 4

# Plan: generic-position arithmetic predicts how much of each subset's view
# is exclusive (invisible to the other terminal and to the eavesdropper).
plan = plan_dimensions(params)
print("planned exclusive dims per subset {1: B, 2: C, 3: BC}:", plan.exclusive_dims)

# The max-min LP allocates per-subset key shares.
alloc, value = solve_allocation_lp_planned(plan)
print("allocation:", {m: str(v) for m, v in alloc.items()}, " value:", value)

result = run_session(params, n_slots, alloc, np.random.default_rng(42))
audit = result.audit

print("\ndegenerate:", audit.degenerate)
print("subset keys agree bit-exactly:", audit.subset_agreement)
print("final key agrees at every terminal:", audit.final_agreement)
print("zero-leakage rank certificate:", audit.leakage_certificate)
print("per-slot achieved coefficient:", audit.achieved_per_slot,
      f"(x (ell - n_a) log q = {audit.achieved_per_slot * (params.ell - params.n_a)} log q)")

keys = result.keys
print("\nfinal key block count:", audit.key_blocks,
      "of", params.ell - params.n_a, "symbols each")
print("final key (first rows):", keys.final_key.tolist()[:2])

# The transcript (channel uses, public coefficient disclosures, padded
# multicast ciphers) serializes to versioned JSON for replay.
doc = result.to_json_dict()
print("\ntranscript slots:", len(doc["slots"]),
      " public disclosures:", len(doc["public_messages"]["disclosures"]),
      " schema:", doc["schema_version"])

# Loading replays the session from the document's inputs (messages,
# transfers, disclosures and ciphers) through its own last stages: keys,
# multicast and audit, the leakage certificate included.  A document loads
# only when it equals that replay.
reloaded = SessionResult.from_json_dict(json.loads(json.dumps(doc)))
print("reloaded transcript equals the session:", reloaded == result)
