import contextlib
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckey import fieldmath
from nckey.fieldmath import (
    FieldCtx,
    MatrixFq,
    RowReduced,
    block_diag,
    hstack,
    identity,
    is_prime,
    mat_mul,
    random_matrix,
    rank,
    rank_stack,
    right_kernel,
    rref,
    rref_stack,
    solve_in_rowspan,
    vstack,
    zeros,
)
from references import DrawSequence, reference_kernel, reference_rref, reference_solve

F2 = FieldCtx(2)
F5 = FieldCtx(5)


def minor_rank_oracle(m: MatrixFq) -> int:
    """Brute-force rank: largest k with a nonzero k x k minor (exact integer
    determinants reduced mod q)."""

    def det(rows, cols):
        k = len(rows)
        if k == 1:
            return int(m.arr[rows[0], cols[0]])
        total = 0
        for j, c in enumerate(cols):
            sub = det(rows[1:], cols[:j] + cols[j + 1 :])
            term = int(m.arr[rows[0], c]) * sub
            total += -term if j % 2 else term
        return total

    for k in range(min(m.rows, m.cols), 0, -1):
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                if det(list(rows), list(cols)) % m.ctx.q != 0:
                    return k
    return 0


def reference_is_prime(n: int) -> bool:
    """Trial division: the reference for is_prime's Miller-Rabin test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes one Miller-Rabin round to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 101, 1009]
    composites = [1, 4, 6, 9, 100, 1001]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_equals_trial_division_below_1e5():
    assert [n for n in range(-5, 10**5) if is_prime(n) != reference_is_prime(n)] == []


# Strong pseudoprimes below 2^31: the first to bases 2 and 3, the others to
# bases 2, 3 and 5, which base 7 exposes.
STRONG_PSEUDOPRIMES = [1373653, 25326001, 161304001, 960946321, 1157839381]


def chernick_carmichael_numbers(limit: int) -> list[int]:
    """(6k+1)(12k+1)(18k+1) below limit with all three factors prime: each is a
    Carmichael number, a Fermat pseudoprime to every base prime to it."""
    out = []
    for k in itertools.count(1):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if math.prod(factors) >= limit:
            return out
        if all(reference_is_prime(f) for f in factors):
            out.append(math.prod(factors))


def test_is_prime_at_pseudoprimes_and_near_the_field_limit():
    for n in STRONG_PSEUDOPRIMES:
        assert strong_probable_prime(n, 2) and strong_probable_prime(n, 3)
    carmichael = chernick_carmichael_numbers(2**31)
    assert carmichael[:3] == [1729, 294409, 56052361] and len(carmichael) == 8
    root = math.isqrt(2**31)
    prime_squares = [p * p for p in range(root - 60, root + 60) if reference_is_prime(p)]
    near_limit = range(2**31 - 150, 2**31)
    cases = [*STRONG_PSEUDOPRIMES, *carmichael, *prime_squares, *near_limit]
    assert [n for n in cases if is_prime(n) != reference_is_prime(n)] == []
    assert sum(map(is_prime, near_limit)) >= 5 and is_prime(2**31 - 1)


def test_is_prime_refuses_the_first_number_its_bases_can_mistake():
    # 3215031751 = 151 * 751 * 28351 passes all four rounds, so it bounds the test
    limit = 3215031751
    assert limit == 151 * 751 * 28351 > 2**31
    assert all(strong_probable_prime(limit, a) for a in (2, 3, 5, 7))
    assert is_prime(limit - 2) == reference_is_prime(limit - 2)
    with pytest.raises(ValueError, match="exact only below"):
        is_prime(limit)


def test_field_ctx_rejects_composite():
    with pytest.raises(ValueError):
        FieldCtx(4)
    with pytest.raises(ValueError):
        FieldCtx(1)


def test_rref_identity():
    m = identity(3, F2)
    red, r, piv = rref(m)
    assert red == m
    assert r == 3
    assert piv == [0, 1, 2]


def test_rref_zero():
    m = zeros(2, 4, F5)
    red, r, piv = rref(m)
    assert red == m
    assert r == 0
    assert piv == []


def test_rref_dependent_rows():
    # row 2 = 2 * row 1 mod 5
    m = MatrixFq([[1, 2], [2, 4]], F5)
    red, r, piv = rref(m)
    assert red.tolist() == [[1, 2], [0, 0]]
    assert r == 1
    assert piv == [0]


def test_rref_idempotent_and_span_preserving():
    rng = np.random.default_rng(11)
    for q in (2, 5, 101):
        ctx = FieldCtx(q)
        for _ in range(25):
            rows, cols = rng.integers(1, 6, size=2)
            m = random_matrix(int(rows), int(cols), ctx, rng)
            red, r, _ = rref(m)
            red2, r2, _ = rref(red)
            assert red2 == red and r2 == r
            # random invertible row transform leaves the RREF unchanged
            while True:
                t = random_matrix(int(rows), int(rows), ctx, rng)
                if rank(t) == rows:
                    break
            red3, _, _ = rref(mat_mul(t, m))
            assert red3 == red


def test_rank_trivial():
    assert rank(identity(4, F5)) == 4
    assert rank(zeros(3, 7, F2)) == 0


def test_rank_against_minor_oracle():
    rng = np.random.default_rng(5)
    ctx = FieldCtx(101)
    for _ in range(20):
        m = random_matrix(2, 5, ctx, rng)
        assert rank(m) == minor_rank_oracle(m)
    # a few rank-deficient cases too
    for _ in range(10):
        row = random_matrix(1, 5, ctx, rng)
        scale = int(rng.integers(0, 101))
        m = MatrixFq(np.vstack([row.arr, (scale * row.arr) % 101]), ctx)
        assert rank(m) == minor_rank_oracle(m)


@functools.cache
def largest_float_q(panel: int) -> int:
    """The largest prime whose panel products, ``panel`` terms of at most
    (q-1)^2, are one float64 product: panel (q-1)^2 < 2^53."""
    q = math.isqrt((2**53 - 1) // panel) + 1
    while panel * (q - 1) ** 2 >= 2**53 or not is_prime(q):
        q -= 1
    return q


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


# The smallest prime whose 64-term products take limbs.
FIRST_LIMB_Q = next_prime(largest_float_q(64))


@st.composite
def kernel_cases(draw, panels=(1, 2, 3, 64)):
    """A panel width from ``panels``: 1-3 columns, so that small matrices
    span several panels, or the default 64, so that they span none; a field
    on each side of every format bound: 32749, whose centered int32 updates
    take eight between reductions, 46337, the largest prime whose updates
    run in int32 (four of them), 46349, the smallest above it, and
    largest_float_q(panel), the largest whose panel products are one
    float64 product.  Over it a stack of 1-6 matrices of one shape: L @ U,
    full rank, whose multipliers and pivot rows are all q - 1, so that every
    uncentered update is as large as it gets; 0-3 thin products;
    possibly a zero matrix; and possibly a copy of a member with one column
    zeroed, whose pivots diverge from that member's there.  All get 0-2
    leading zero rows (which force row swaps) and up to 3 zero columns, and
    are shuffled.  Each member has a target of rows in its span and a last
    row that may be a stray random one, usually outside it; and a planted X
    of 0-3 columns decodes through each member.  Only the panel, the field
    and the shape are drawn by hypothesis; the rest comes from a seeded
    generator, which keeps each example cheap to draw."""
    panel = draw(st.sampled_from(panels))
    ctx = FieldCtx(draw(st.sampled_from([2, 3, 101, 32749, 46337, 46349, largest_float_q(panel), 2**31 - 1])))
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = np.tril(np.full((rows, rows), ctx.q - 1), -1) + np.eye(rows, dtype=np.int64)
    upper = np.triu(np.full((rows, cols), ctx.q - 1), 1) + np.eye(rows, cols, dtype=np.int64)
    mats = [MatrixFq(lower, ctx) @ MatrixFq(upper, ctx)] + [
        random_matrix(rows, inner, ctx, rng) @ random_matrix(inner, cols, ctx, rng)
        for inner in rng.integers(0, 10, size=rng.integers(0, 4))
    ]
    if not rng.integers(3):
        mats.append(zeros(rows, cols, ctx))
    if cols and not rng.integers(3):
        arr = mats[rng.integers(len(mats))].arr.copy()
        arr[:, rng.integers(cols)] = 0
        mats.append(MatrixFq(arr, ctx))
    gaps, lead = rng.integers(0, cols + 1, size=rng.integers(0, 4)), rng.integers(0, 3)
    mats = [MatrixFq(np.pad(np.insert(m.arr, gaps, 0, axis=1), ((lead, 0), (0, 0))), ctx) for m in mats]
    mats = [mats[i] for i in rng.permutation(len(mats))]
    k, width = rng.integers(0, 4, size=2)
    targets = [
        vstack([random_matrix(k, m.rows, ctx, rng) @ m, random_matrix(1, m.cols, ctx, rng) if rng.integers(2) else
                random_matrix(1, m.rows, ctx, rng) @ m])
        for m in mats
    ]
    return panel, mats, targets, random_matrix(cols + len(gaps), width, ctx, rng)


@contextlib.contextmanager
def panel_width(panel: int):
    """Eliminate in panels of ``panel`` columns inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fieldmath, "_PANEL", panel)
        yield


def check_stack(mats):
    """rref_stack and the forward _echelon of the stack, member by member,
    against the Gauss-Jordan reference: the same RREF, and a forward form
    with the reference pivots, a leading 1 at each and zeros below it."""
    want = [reference_rref(m) for m in mats]
    assert rref_stack(mats) == want
    forms = np.stack([m.arr for m in mats])
    for echelon, pivots, (_, r, ref) in zip(forms, fieldmath._echelon(forms, mats[0].ctx.q), want):
        assert pivots == ref and not echelon[r:].any()
        assert all(echelon[i, c] == 1 and not echelon[i + 1 :, c].any() for i, c in enumerate(pivots))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases(panels=(64,)))
def test_rank_forward_only_equals_rref_rank(case):
    # rank takes one forward elimination, and rref's pivots are the column
    # rank profile; the transpose has the same rank
    _, mats, _, _ = case
    for m in mats:
        _, r, pivots = reference_rref(m)
        assert rank(m) == rank(m.transpose()) == r
        assert rref(m)[2] == pivots


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases(panels=(64,)))
def test_rref_and_right_kernel_match_gauss_jordan(case):
    # the RREF and the null space's RREF basis
    _, mats, _, _ = case
    for m in mats:
        assert rref(m) == reference_rref(m)
        assert right_kernel(m) == reference_kernel(m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases(panels=(64,)))
def test_solve_in_rowspan_returns_the_gauss_jordan_witness(case):
    # the members' rows are often dependent, so C is not unique: the witness
    # must be the basic solution, also behind leading zero rows (never a
    # pivot); a stray target row is usually outside the span
    _, mats, targets, _ = case
    for m, target in zip(mats, targets):
        got = solve_in_rowspan(target, m)
        assert got == reference_solve(target, m)
        assert got is None or got @ m == target


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases(panels=(1, 2, 3)))
def test_panelled_elimination_matches_gauss_jordan(case):
    # with panels of 1-3 columns: solve_in_rowspan reduces [m | J], J the
    # anti-identity, whose pivots run on past m's columns into J's
    panel, mats, targets, _ = case
    with panel_width(panel):
        for m, target in zip(mats, targets):
            want = reference_rref(m)
            assert (rank(m), rref(m)) == (want[1], want)
            assert solve_in_rowspan(target, m) == reference_solve(target, m)
            assert right_kernel(m) == reference_kernel(m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernel_cases())
def test_solve_rank_decides_whether_a_key_decodes(case):
    # a @ X == b for a planted X, solved as the multicast decode solves it,
    # X^T through the row span of a^T, at the drawn panel width: at full
    # column rank it returns X itself; below it a kernel vector gives a
    # second solution, so no key is decoded; the solution is always the
    # basic one
    panel, mats, _, x = case
    with panel_width(panel):
        for a in mats:
            b = a @ x
            got = solve_in_rowspan(b.transpose(), a.transpose())
            assert got == reference_solve(b.transpose(), a.transpose())
            if reference_rref(a)[1] == a.cols:
                assert got.transpose() == x
            elif x.cols:
                other = MatrixFq(got.arr.T + reference_kernel(a).arr[:1].T, a.ctx)
                assert a @ other == b and other != got.transpose()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernel_cases())
def test_block_diagonal_solve_is_the_hstack_of_block_solves(case):
    # the basic solution over block_diag is each block's basic solution of
    # its own target columns, side by side (None when any block has none)
    panel, mats, targets, _ = case
    solves = [reference_solve(t, m) for t, m in zip(targets, mats)]
    with panel_width(panel):
        got = solve_in_rowspan(hstack(targets), block_diag(mats))
    assert got == (None if None in solves else hstack(solves))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases(panels=(64,)))
def test_stacked_gauss_jordan_matches_the_reference_member_by_member(case):
    # one Gauss-Jordan pass for the whole stack (at most 12 columns, so no
    # panels): members whose pivot columns differ split off and go on alone.
    # 46337, the largest prime whose scaled pivot rows fit int32, takes
    # centered updates and reduces after every fourth, 32749 after every
    # eighth; 46349, the smallest prime above it, runs in int64, uncentered;
    # q = 101 keeps uncentered int32 updates, and q = 2^31 - 1 centered int64
    # ones, eight between reductions
    assert fieldmath._update_format(101) == (np.int32, 214748, False)
    assert fieldmath._update_format(32749) == (np.int32, 8, True)
    assert fieldmath._update_format(46337) == (np.int32, 4, True)
    assert fieldmath._update_format(46349)[::2] == (np.int64, False)
    assert fieldmath._update_format(2**31 - 1) == (np.int64, 8, True)
    check_stack(case[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases(panels=(1, 2, 3)))
def test_wide_stacks_take_panels_member_by_member(case):
    # with panels of 1-3 columns, stacks wider than two panels run in
    # lockstep through panels with tracking columns, one trailing product
    # per panel for the whole group, and split where their members' pivot
    # columns differ; at 32749 the tracking columns are int32 with room for
    # eight centered updates
    panel, mats, _, _ = case
    with panel_width(panel):
        check_stack(mats)


@pytest.mark.parametrize("q", [46337, 46349, 2**31 - 1])
def test_wide_stacks_at_the_format_extremes(q):
    # 20 x 40 stacks in one panel, where every update is pending until
    # ``room`` of them are, and in 2-column panels.  L @ U with L and U unit
    # triangular, U's entries right of the diagonal h and L's below it h or
    # h + 1 (-h centered), h = (q - 1) / 2: every forward multiplier and
    # pivot-row entry is as large as a centered one gets, and every update
    # of one member moves its entries the same way.  In a third L @ U the
    # pivot rows taken just after a reduction (every room-th) are q - 1
    # right of the diagonal, -1 centered, where an uncentered entry would
    # double that update.  With them, a random member, a rank-deficient one
    # and a copy of the first with a column zeroed, whose pivots diverge
    ctx, h, rng = FieldCtx(q), (q - 1) // 2, np.random.default_rng(q)
    rows, cols, room = 20, 40, fieldmath._update_format(q)[1]
    upper = np.triu(np.full((rows, cols), h), 1) + np.eye(rows, cols, dtype=np.int64)
    after = upper.copy()
    after[::room] = np.triu(np.full((rows, cols), q - 1), 1)[::room] + np.eye(rows, cols, dtype=np.int64)[::room]
    mats = [
        MatrixFq(np.tril(np.full((rows, rows), fill), -1) + np.eye(rows, dtype=np.int64), ctx) @ MatrixFq(u, ctx)
        for fill, u in ((h, upper), (h + 1, upper), (h + 1, after))
    ]
    mats += [random_matrix(rows, cols, ctx, rng), random_matrix(rows, 7, ctx, rng) @ random_matrix(7, cols, ctx, rng)]
    arr = mats[0].arr.copy()
    arr[:, 5] = 0
    mats.append(MatrixFq(arr, ctx))
    for panel in (64, 2):
        with panel_width(panel):
            check_stack(mats)
            assert rank_stack(mats) == [reference_rref(m)[1] for m in mats] == [20, 20, 20, 20, 7, 20]
            for m in mats:
                assert rref(m) == reference_rref(m)
    # Loaded trailing columns: 3-column panels, twenty of them with one
    # pivot each, then one with none, then the last six columns in the stack
    # itself.  Each of the last five rows is 1 in every earlier pivot column,
    # and each earlier pivot row 1 in the last six columns, so every panel
    # adds q - 1 to the last rows' last columns, which enter the stack's own
    # panel near 20 q.  There they are L @ U as above, 5 x 6, so the updates
    # push them up by h^2 each: a group must reduce them before its first
    # update, or the last column of the RREF goes wrong
    loaders, last = 20, 5
    width = 3 * loaders + 3 + last + 1
    arr = np.zeros((loaders + last, width), dtype=np.int64)
    arr[np.arange(loaders), 3 * np.arange(loaders)] = 1
    arr[:loaders, -last - 1 :] = 1
    arr[loaders:, 3 * np.arange(loaders)] = 1
    lower = np.tril(np.full((last, last), h + 1), -1) + np.eye(last, dtype=np.int64)
    upper = np.triu(np.full((last, last + 1), h), 1) + np.eye(last, last + 1, dtype=np.int64)
    arr[loaders:, -last - 1 :] = ((MatrixFq(lower, ctx) @ MatrixFq(upper, ctx)).arr + loaders) % q
    loaded = MatrixFq(arr, ctx)
    with panel_width(3):
        check_stack([loaded, loaded])
        assert rank(loaded) == loaders + last


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernel_cases())
def test_rank_and_rref_are_stacks_of_one(case):
    # a 2-D matrix is a stack of one: rank and rref equal the stacked
    # results, alone or in one stack with the members' transposes (two
    # shapes)
    panel, mats, _, _ = case
    both = [f for m in mats for f in (m, m.transpose())]
    want = [reference_rref(f) for f in both]
    with panel_width(panel):
        for m, alone in zip(mats, want[::2]):
            assert rref(m) == rref_stack([m])[0] == alone and rank(m) == alone[1]
        assert rref_stack(both) == want
        assert rank_stack(both) == [red[1] for red in want]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kernel_cases())
def test_stacked_row_reduction_matches_the_per_matrix_one(case):
    # RowReduced alone and RowReduced.stack, every [F | J] in one
    # rref_stack: the Gauss-Jordan echelon form and pivots, S @ F == R, S
    # zero off F's earliest independent rows (the transpose's pivots), and
    # the basic solution of each target
    panel, mats, targets, _ = case
    with panel_width(panel):
        stacked = RowReduced.stack(mats)
        for m, target, got_stacked in zip(mats, targets, stacked):
            red, r, pivots = reference_rref(m)
            for got in (RowReduced(m), got_stacked):
                assert got == m and (got.echelon.tolist(), got.pivots) == (red.tolist()[:r], pivots)
                assert got.transform @ m == got.echelon
                assert not np.delete(got.transform.arr, reference_rref(m.transpose())[2], axis=1).any()
                assert solve_in_rowspan(target, got) == reference_solve(target, m)


def test_default_panels_match_gauss_jordan():
    # at the default panel width: leading zero rows (swaps), zero columns
    # inside the second panel and a dependent row, with single panel
    # products at q = 101 and limb products at q = 2^31 - 1
    for q in (101, 2**31 - 1):
        rng = np.random.default_rng(31)
        ctx = FieldCtx(q)
        arr = random_matrix(300, 480, ctx, rng).arr.copy()
        arr[:5] = 0
        arr[:, 70:76] = 0
        arr[150] = (arr[20] + arr[30]) % q
        m = MatrixFq(arr, ctx)
        target = random_matrix(4, 300, ctx, rng) @ m
        assert rank(m) == 294
        assert rref(m) == reference_rref(m)
        assert solve_in_rowspan(target, m) == reference_solve(target, m)


def test_float_panels_at_the_largest_float_modulus():
    # an all-(q-1) matrix, a random one, and L @ U built so that a trailing
    # product is as large as it gets: L is 1 on the diagonal and below each
    # diagonal panel block, U is 1 on the diagonal and q-1 right of each
    # pivot's panel, so the first panel's transform is the identity, the
    # tracking rows below it are all q-1, and every dot product of its
    # [tracking] @ A12 sums a full panel of (q-1)^2 terms: just below 2^53
    # in one float64 product at the largest float modulus, which a spy on
    # _mul_mod checks.  L @ U runs past that bound too, where the product
    # takes two 12-bit limbs at the next prime and two 16-bit ones at
    # 2^31 - 1, and where the centered rank-1 updates inside a panel reduce
    # every eighth pivot
    w = fieldmath._PANEL
    ctx = FieldCtx(largest_float_q(w))
    top = MatrixFq(np.full((40, 3 * w), ctx.q - 1), ctx)
    assert rref(top) == reference_rref(top)
    assert rank(top) == 1
    rng = np.random.default_rng(37)
    m = random_matrix(300, 480, ctx, rng)
    assert rref(m) == reference_rref(m)
    rows, cols = np.arange(3 * w + 8)[:, None], np.arange(5 * w)[None, :]
    lower = np.where(rows // w > rows.T // w, 1, 0) + np.eye(3 * w + 8, dtype=np.int64)
    original = fieldmath._mul_mod
    for q in (ctx.q, FIRST_LIMB_Q, 2**31 - 1):
        ctx = FieldCtx(q)
        upper = np.where(cols // w > rows // w, q - 1, 0) + np.eye(3 * w + 8, 5 * w, dtype=np.int64)
        m = MatrixFq(lower, ctx) @ MatrixFq(upper, ctx)
        products = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fieldmath, "_mul_mod", lambda x, y, q: products.append((x, y)) or original(x, y, q))
            assert rref(m) == reference_rref(m)
            assert rank(m) == min(m.shape)
        if q == largest_float_q(w):
            assert fieldmath._limbs(w, q - 1, q)[0] == 1
            sums = [int((x @ y).max(initial=0)) for x, y in products if x.shape[-1] == w]
            assert max(sums) == w * (q - 1) ** 2 < 2**53


def test_rank_at_large_modulus_reduces_before_int64_overflows():
    # at q = 2^31 - 1 only eight lazy centered updates fit in int64 between
    # full reductions, so a 40 x 40 elimination reduces the trailing block
    # often; the Gauss-Jordan reference reduces after every update
    ctx = FieldCtx(2**31 - 1)
    rng = np.random.default_rng(17)
    m = random_matrix(40, 40, ctx, rng)
    assert rank(m) == reference_rref(m)[1] == 40
    assert rank(vstack([m, m])) == 40
    low = random_matrix(40, 25, ctx, rng) @ random_matrix(25, 40, ctx, rng)
    assert rank(low) == reference_rref(low)[1] == 25
    assert rref(low) == reference_rref(low)


@pytest.mark.parametrize(
    "dtype, q",
    [(np.int32, 2), (np.int32, 3), (np.int32, 101), (np.int32, 32749), (np.int64, 32771), (np.int64, 2**31 - 1)],
)
def test_mod_equals_np_mod_at_the_ends_of_its_dtype(dtype, q):
    # _mod takes x - q floor(x / q), whose product wraps around near the
    # dtype's ends and whose subtraction wraps back; 130 rows take three
    # slabs of _PANEL rows.  It reduces into a new array, in place, and into
    # an int32 slice from an int64 block
    info = np.iinfo(dtype)
    edges = [info.min, -(2 ** (info.bits - 1) - q), info.max, -q, -1, 0, q - 1, q]
    rest = np.random.default_rng(q).integers(info.min, info.max, size=390 - len(edges), dtype=dtype, endpoint=True)
    x = np.concatenate([np.array(edges, dtype=dtype), rest]).reshape(130, 3)
    want = np.mod(x, q)
    got = fieldmath._mod(x, q)
    assert got.dtype == dtype and np.array_equal(got, want)
    stack = np.stack([x, x[::-1]])
    assert np.array_equal(fieldmath._mod(stack, q), np.mod(stack, q))
    same = x.copy()
    assert fieldmath._mod(same, q, out=same) is same and np.array_equal(same, want)
    wide, panel = x.astype(np.int64), np.full((130, 5), -1, dtype=np.int32)
    fieldmath._mod(wide, q, out=panel[:, 1:4])
    assert np.array_equal(panel[:, 1:4], np.mod(wide, q)) and (panel[:, [0, 4]] == -1).all()


def test_inverses_equal_one_pow_per_residue():
    for q in (2, 3, 5, 101):
        xs = list(range(1, q))
        assert fieldmath._inverses(xs, q) == [pow(x, -1, q) for x in xs]
    q = 2**31 - 1
    xs = np.random.default_rng(5).integers(1, q, size=1000).tolist()
    assert fieldmath._inverses(xs, q) == [pow(x, -1, q) for x in xs]
    assert fieldmath._inverses([q - 2], q) == [pow(q - 2, -1, q)]


def test_rank_subadditive_with_equality_iff_trivial_intersection():
    rng = np.random.default_rng(23)
    ctx = FieldCtx(5)
    from nckey.subspaces import span_of

    for _ in range(60):
        a = random_matrix(int(rng.integers(0, 4)), 4, ctx, rng)
        b = random_matrix(int(rng.integers(0, 4)), 4, ctx, rng)
        stacked = rank(vstack([a, b]))
        assert stacked <= rank(a) + rank(b)
        inter = span_of(a).intersect(span_of(b))
        assert (stacked == rank(a) + rank(b)) == (inter.dim == 0)


def test_mat_mul_identity_and_hand_cases():
    x = MatrixFq([[1, 1]], F2)
    assert mat_mul(x, identity(2, F2)) == x
    assert mat_mul(MatrixFq([[2, 3]], F5), MatrixFq([[1], [4]], F5)).tolist() == [[4]]


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(identity(2, F2), identity(3, F2))
    with pytest.raises(ValueError):
        mat_mul(identity(2, F2), identity(2, F5))


def test_mat_mul_associative_distributive():
    # exhaustive over all shape triples with dims <= 3, seeded entries
    rng = np.random.default_rng(3)
    for q in (2, 5):
        ctx = FieldCtx(q)
        for a_r, a_c, b_c, c_c in itertools.product(range(1, 4), repeat=4):
            a = random_matrix(a_r, a_c, ctx, rng)
            b = random_matrix(a_c, b_c, ctx, rng)
            b2 = random_matrix(a_c, b_c, ctx, rng)
            c = random_matrix(b_c, c_c, ctx, rng)
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
            lhs = mat_mul(a, MatrixFq((b.arr + b2.arr) % q, ctx))
            rhs = MatrixFq((mat_mul(a, b).arr + mat_mul(a, b2).arr) % q, ctx)
            assert lhs == rhs


def test_mat_mul_large_modulus_no_overflow():
    # q close to 2**31: dot products go through float64 limb products
    ctx = FieldCtx(2147483647)
    rng = np.random.default_rng(1)
    a = random_matrix(3, 40, ctx, rng)
    b = random_matrix(40, 2, ctx, rng)
    got = mat_mul(a, b)
    want = (a.arr.astype(object) @ b.arr.astype(object)) % ctx.q
    assert got.tolist() == [[int(x) for x in row] for row in want]


# k on both sides of every change of limb count (the largest k for which L
# limbs of ceil(bits / L) bits keep k terms of limb * (q-1) below 2^53) and
# of the 2^16 - 1 term chunk: at FIRST_LIMB_Q single products up to 63 terms,
# then two 12-bit limbs; at q = 2^31 - 1 two 16-bit limbs up to 64 terms, then
# three of 11 bits, four of 8, five of 7 and six of 6 bits
@pytest.mark.parametrize(
    "k", [1, 2, 63, 64, 65, 2049, 2050, 16448, 16449, 33026, 33027, 2**16 - 1, 2**16]
)
def test_mat_mul_limbs_match_python_integers(k):
    # at q = 2^31 - 1 every k >= 3 overflows a plain int64 product.  The
    # all-(q-1) row and column give the largest dot product there is, but an
    # even one, which float64 holds exactly up to 2^54; a last entry of q-2 in
    # both makes every limb block's dot product odd, so a limb or product one
    # bit too wide cannot be exact
    for q in (FIRST_LIMB_Q, 2**31 - 1):
        ctx = FieldCtx(q)
        rng = np.random.default_rng(k)
        top = np.full((2, k), q - 1)
        top[1, -1] = q - 2
        a = vstack([random_matrix(2, k, ctx, rng), MatrixFq(top, ctx)])
        b = hstack([random_matrix(k, 2, ctx, rng), MatrixFq(top.T, ctx)])
        want = (a.arr.astype(object) @ b.arr.astype(object)) % q
        assert mat_mul(a, b).tolist() == want.tolist(), q


@pytest.mark.parametrize("k", [1, 300, 2**16 - 1, 2**16])
def test_mat_mul_sizes_limbs_by_the_largest_left_entry(k):
    # at q = 2^31 - 1 a left operand whose entries are at most top =
    # (2^53 - 1) // (k (q - 1)) takes one float64 product, and one entry
    # past top takes limbs.  Each dot product is odd (one odd term, the rest
    # even) and near its largest, so a product too wide for float64 cannot be
    # exact
    q = 2**31 - 1
    ctx, top = FieldCtx(q), (2**53 - 1) // (min(k, 2**16 - 1) * (q - 1))
    rhs = np.full((k, 2), q - 1)
    rhs[-1] = q - 2
    for largest in (1, top, top + 1):
        lhs = np.full((2, k), largest)
        lhs[:, -1] = largest - 1 + largest % 2
        want = (lhs.astype(object) @ rhs.astype(object)) % q
        assert mat_mul(MatrixFq(lhs, ctx), MatrixFq(rhs, ctx)).tolist() == want.tolist()


@pytest.mark.parametrize("k", [1, 64, 65, 2**16 - 1, 2**16])
def test_mul_mod_equals_python_integers_at_every_limb_count(k):
    # _mul_mod itself, on a stack of two.  At q = 2^31 - 1 a left factor
    # with an entry q - 1 takes two limbs up to 64 terms, three from 65 and
    # six at 2^16 - 1, and 2^16 terms take two chunks; a 0/1 left factor
    # takes one product at every k.  Up to 65 terms, 70 rows take two slabs
    # of _PANEL rows
    q = 2**31 - 1
    rng = np.random.default_rng(k)
    rows, cols = (70, 80) if k <= 65 else (2, 3)
    x = rng.integers(0, q, size=(2, rows, k))
    x[..., -1] = q - 1
    y = rng.integers(0, q, size=(2, k, cols))
    y[..., -1, :] = q - 1
    code = rng.integers(0, 2, size=(2, rows, k))
    for left, limbs in ((x, {1: 2, 64: 2, 65: 3}.get(k, 6)), (code, 1)):
        assert fieldmath._limbs(min(k, 2**16 - 1), int(left.max()), q)[0] == limbs
        want = (left.astype(object) @ y.astype(object)) % q
        got = fieldmath._mul_mod(left, y, q)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


def test_mat_mul_splits_the_thinner_factor_into_limbs(monkeypatch):
    # a tall left factor that needs limbs times a thin right one is taken as
    # (y^T x^T)^T, so the limbs split the right factor (two _mul_mod calls);
    # a 0/1 left factor needs no limbs and stays one product (one call); both
    # equal Python integers
    calls = []
    original = fieldmath._mul_mod
    monkeypatch.setattr(fieldmath, "_mul_mod", lambda x, y, q: calls.append(x.shape) or original(x, y, q))
    for q in (FIRST_LIMB_Q, 2**31 - 1):
        ctx, rng = FieldCtx(q), np.random.default_rng(q)
        tall, thin = random_matrix(60, 300, ctx, rng), random_matrix(300, 3, ctx, rng)
        code = MatrixFq(rng.integers(0, 2, size=(60, 300)), ctx)
        for x, want_calls in ((tall, [(60, 300), (3, 300)]), (code, [(60, 300)])):
            calls.clear()
            want = (x.arr.astype(object) @ thin.arr.astype(object)) % q
            got = mat_mul(x, thin)
            assert got.tolist() == want.tolist() and got.arr.flags.c_contiguous
            assert calls == want_calls


def test_random_matrix_empty_and_deterministic():
    rng = np.random.default_rng(9)
    assert random_matrix(0, 3, F2, rng).shape == (0, 3)
    a = random_matrix(4, 4, F5, np.random.default_rng(42))
    b = random_matrix(4, 4, F5, np.random.default_rng(42))
    assert a == b


def test_random_matrix_uniform_binomial():
    # a matrix is one integers(0, q, (rows, cols), int64) draw, served as
    # is: the contract every exact law of the draws rests on
    for q in (2, 7, 2**31 - 1):
        values = [-i % q for i in range(6)]
        rng = DrawSequence(q, [values])
        m = random_matrix(2, 3, FieldCtx(q), rng)
        assert m.arr.dtype == np.int64 and m.tolist() == [values[:3], values[3:]] and rng.served == 1


def test_solve_in_rowspan_trivial():
    basis = random_matrix(3, 5, F5, np.random.default_rng(2))
    assert rank(basis) == 3
    c = solve_in_rowspan(basis, basis)
    assert c == identity(3, F5)
    z = zeros(2, 5, F5)
    cz = solve_in_rowspan(z, basis)
    assert cz == zeros(2, 3, F5)


def test_solve_in_rowspan_membership_and_witness():
    rng = np.random.default_rng(4)
    ctx = FieldCtx(7)
    for _ in range(30):
        basis = random_matrix(2, 4, ctx, rng)
        coeff = random_matrix(3, 2, ctx, rng)
        target = mat_mul(coeff, basis)
        c = solve_in_rowspan(target, basis)
        assert c is not None
        assert mat_mul(c, basis) == target
    # a row outside the span: rank grows when stacked
    basis = MatrixFq([[1, 0, 0], [0, 1, 0]], ctx)
    target = MatrixFq([[0, 0, 1]], ctx)
    assert rank(vstack([basis, target])) > rank(basis)
    assert solve_in_rowspan(target, basis) is None


def test_solve_in_rowspan_returns_the_basic_solution():
    # rows 0 and 1 are equal and zero in column 0: an elimination that swaps
    # row 2 up for column 0 reaches row 1 before row 0, but the basic
    # solution is supported on the earliest independent rows, 0 and 2
    basis = MatrixFq([[0, 1], [0, 1], [1, 0]], F5)
    assert solve_in_rowspan(MatrixFq([[1, 1]], F5), basis).tolist() == [[1, 0, 1]]
    # at q = 2 zero entries, hence such swaps, are frequent
    rng = np.random.default_rng(41)
    for _ in range(200):
        rows, cols, inner = (int(x) for x in rng.integers(1, 15, size=3))
        m = random_matrix(rows, inner, F2, rng) @ random_matrix(inner, cols, F2, rng)
        target = random_matrix(3, rows, F2, rng) @ m
        assert solve_in_rowspan(target, m) == reference_solve(target, m)


def test_solve_in_rowspan_large_modulus_no_overflow():
    # q close to 2**31: products of three or more reduced terms overflow
    # int64, and every one must stay exact
    ctx = FieldCtx(2147483647)
    rng = np.random.default_rng(3)
    basis = random_matrix(6, 10, ctx, rng)
    coeff = random_matrix(4, 6, ctx, rng)
    assert rank(basis) == 6
    c = solve_in_rowspan(mat_mul(coeff, basis), basis)
    assert c == coeff


def test_right_kernel():
    rng = np.random.default_rng(6)
    for q in (2, 7):
        ctx = FieldCtx(q)
        for _ in range(20):
            m = random_matrix(int(rng.integers(1, 4)), 5, ctx, rng)
            k = right_kernel(m)
            assert k.rows == 5 - rank(m)
            if k.rows:
                prod = mat_mul(m, k.transpose())
                assert not np.any(prod.arr)


def test_stacking_helpers():
    a = identity(2, F2)
    b = zeros(1, 2, F2)
    assert vstack([a, b]).shape == (3, 2)
    assert hstack([a, zeros(2, 3, F2)]).shape == (2, 5)
    with pytest.raises(ValueError):
        vstack([a, zeros(1, 3, F2)])


def test_matrix_immutable():
    m = identity(2, F5)
    with pytest.raises(ValueError):
        m.arr[0, 0] = 3
