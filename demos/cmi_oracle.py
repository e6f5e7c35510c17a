"""Exact conditional mutual information against the large-field coefficient
it converges to.

Run:  python3 demos/cmi_oracle.py
"""

import math

from nckey.bounds import asymptotic_cmi_coefficient, exact_cmi_oracle
from nckey.channel import ChannelParams
from nckey.fieldmath import FieldCtx

# ell=3, n_a=2, one terminal with n_i=1, eavesdropper with n_e=1.  Inputs
# uniform over one dimension are GL(ell)-invariant, so the oracle counts
# subspace configurations by dimension and runs at any q.
print("I(source; terminal | eavesdropper) / log q, exact by orbit count")
print(f"{'q':>10} " + " ".join(f"dim{d:>2}" for d in range(3)) + "   bound")
for q in (2, 3, 5, 101, 2**31 - 1):
    params = ChannelParams(FieldCtx(q), 3, 2, (1,), 1)
    row = [exact_cmi_oracle(params, dim) / math.log(q) for dim in range(3)]
    coeff = asymptotic_cmi_coefficient(params)
    print(f"{q:>10} " + " ".join(f"{v:5.3f}" for v in row) + f"   {coeff}")

print("""
The best fixed-dimension input climbs toward the asymptotic coefficient as q
grows; it never exceeds it here, because with cut = min[n_a, n_i+n_e] this
instance has 2 cut = 4 <= ell + n_e + 1 = 5.  Only under that condition is
the coefficient (cut - n_e)(ell - cut) the large-field maximum: at input
dimension k the limit is (min[n_i+n_e, k] - min[n_e, k])(ell - k), which
rises up to k = cut only then.  (At very small q, inputs that mix dimensions
can score higher still; that advantage disappears by q=5 on this instance.)""")

# Outside the condition the coefficient is no limit: a lower dimension wins.
params = ChannelParams(FieldCtx(2**31 - 1), 4, 3, (3,), 0)
row = [exact_cmi_oracle(params, dim) / math.log(params.ctx.q) for dim in range(4)]
print("\nell=4, n_a=n_i=3, n_e=0 at q=2^31-1, where 2 cut = 6 > ell + n_e + 1 = 5:")
print(" ".join(f"dim{d} {v:5.3f}" for d, v in enumerate(row)) + f"   bound {asymptotic_cmi_coefficient(params)}")
