"""Upper vs achievable secret-key rate for the two symmetric three-terminal
setups (n_a=60 with n_b=n_c=15 and 45), swept over the eavesdropper's
observation count.

Run:  python3 demos/rate_bounds.py
The same tables come out of:  nckey bounds --q 101 --ell 70 --na 60 \
    --n 15 15 --sweep ne:0:60
"""

from nckey.bounds import three_terminal_rate, two_terminal_rate, upper_bound
from nckey.channel import ChannelParams
from nckey.fieldmath import FieldCtx

ctx = FieldCtx(101)

for nb in (15, 45):
    print(f"\nn_a=60, n_b=n_c={nb}, ell=70  (coefficients of log q)")
    print(f"{'ne':>4} {'upper':>8} {'lower':>8}")
    for ne in range(0, 61, 5):
        p = ChannelParams(ctx, 70, 60, (nb, nb), ne)
        up = upper_bound(p)
        low = three_terminal_rate(p)
        print(f"{ne:>4} {str(up):>8} {str(low):>8}")

# With a single receiving terminal the two bounds coincide: the secret-key
# capacity is known exactly in the large-field regime.
print("\nsingle terminal, n_a=8, n_b=5, ell=12:")
print(f"{'ne':>4} {'upper(reduced)':>14} {'lower':>8}")
for ne in range(0, 9):
    p = ChannelParams(ctx, 12, 8, (5,), ne)
    low = two_terminal_rate(p)
    reduced = max(1, min(8, 5 + ne))
    up = upper_bound(ChannelParams(ctx, 12, reduced, (5,), ne))
    print(f"{ne:>4} {str(up):>14} {str(low):>8}")
