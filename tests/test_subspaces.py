import itertools

import numpy as np
import pytest

from nckey.bounds import generic_dims
from nckey import fieldmath
from nckey.fieldmath import (
    FieldCtx,
    MatrixFq,
    identity,
    mat_mul,
    random_matrix,
    rank,
    vstack,
    zeros,
)
from nckey.subspaces import (
    Subspace,
    SubspaceFamily,
    direct_sum,
    full_space,
    gaussian_binomial,
    iter_all_subspaces,
    iter_subspaces,
    random_subspace,
    span_of,
    spanning_matrix_count,
    subspaces_within,
    zero_subspace,
)

F2 = FieldCtx(2)
F3 = FieldCtx(3)
F5 = FieldCtx(5)


def all_vectors(ambient, ctx):
    return [np.array(v, dtype=np.int64) for v in itertools.product(range(ctx.q), repeat=ambient)]


def members_of(s: Subspace) -> set[bytes]:
    """Exhaustive membership oracle: all coefficient combinations of the basis."""
    q = s.ctx.q
    out = set()
    for coeff in itertools.product(range(q), repeat=s.dim):
        v = np.zeros(s.ambient_dim, dtype=np.int64)
        for c, row in zip(coeff, s.basis.arr):
            v = (v + c * row) % q
        out.add(v.tobytes())
    return out


def test_span_of_examples():
    assert span_of(zeros(2, 3, F5)).dim == 0
    assert span_of(identity(3, F2)) == full_space(3, F2)
    s = span_of(MatrixFq([[1, 2], [2, 4]], F5))
    assert s.dim == 1
    assert s.basis.tolist() == [[1, 2]]


def test_sum_trivial_cases():
    a = span_of(MatrixFq([[1, 0, 0]], F2))
    assert (a + zero_subspace(3, F2)) == a
    assert (a + a) == a
    e2 = span_of(MatrixFq([[0, 1, 0]], F2))
    assert (a + e2).dim == 2


def test_sum_ambient_mismatch():
    with pytest.raises(ValueError):
        zero_subspace(2, F2) + zero_subspace(3, F2)
    with pytest.raises(ValueError):
        zero_subspace(2, F2) + zero_subspace(2, F3)


def test_intersect_examples():
    a = span_of(MatrixFq([[1, 0, 0], [0, 1, 0]], F3))
    b = span_of(MatrixFq([[0, 1, 0], [0, 0, 1]], F3))
    got = a.intersect(b)
    # oracle: enumerate all 27 vectors and span the common ones
    common = [
        v
        for v in all_vectors(3, F3)
        if v.tobytes() in members_of(a) and v.tobytes() in members_of(b)
    ]
    oracle = span_of(MatrixFq(np.array(common), F3))
    assert got == oracle
    assert got.basis.tolist() == [[0, 1, 0]]
    assert a.intersect(a) == a
    e1 = span_of(MatrixFq([[1, 0, 0]], F3))
    e2 = span_of(MatrixFq([[0, 1, 0]], F3))
    assert e1.intersect(e2).dim == 0


def test_lattice_laws_random():
    rng = np.random.default_rng(31)
    for q in (2, 5):
        ctx = FieldCtx(q)
        for _ in range(40):
            dims = rng.integers(0, 5, size=3)
            a, b, c = (random_subspace(4, int(d), ctx, rng) for d in dims)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a.intersect(b) == b.intersect(a)
            assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
            assert a + a.intersect(b) == a  # absorption


def test_modular_identity_exhaustive_f2():
    for ambient in (1, 2, 3, 4):
        subs = list(iter_all_subspaces(ambient, F2))
        for a, b in itertools.product(subs, repeat=2):
            assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim


def test_modular_identity_random_larger():
    rng = np.random.default_rng(17)
    for q in (5, 101):
        ctx = FieldCtx(q)
        for _ in range(50):
            a = random_subspace(6, int(rng.integers(0, 7)), ctx, rng)
            b = random_subspace(6, int(rng.integers(0, 7)), ctx, rng)
            assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim


@pytest.mark.parametrize("q", [2, 101, 11_863_279, 2**31 - 1])
def test_lattice_laws_past_two_panels(q):
    # ambient dimension 200 is more than two elimination panels wide, so sums
    # and intersections run on the float64 panels for every q but 2^31 - 1;
    # a shared part keeps U + V short of the whole space and U ∩ V nonzero
    ctx = FieldCtx(q)
    assert 200 > 2 * fieldmath._PANEL
    rng = np.random.default_rng(q)
    for shared_dim, extra in ((40, 60), (70, 50)):
        shared = random_matrix(shared_dim, 200, ctx, rng)
        u, v = (span_of(vstack([shared, random_matrix(extra, 200, ctx, rng)])) for _ in range(2))
        total, meet = u + v, u.intersect(v)
        assert total == v + u and meet == v.intersect(u)
        assert total.dim + meet.dim == u.dim + v.dim
        assert total.dim < 200 and meet.contains(span_of(shared)) and meet.dim >= shared_dim
        assert u + meet == u and u.intersect(total) == u
        assert u.contains(meet) and total.contains(u) and total.contains(v)


def test_complement_trivial():
    a = span_of(MatrixFq([[1, 0, 1], [0, 1, 0]], F5))
    assert a.complement(zero_subspace(3, F5)) == a
    assert a.complement(a).dim == 0


def test_complement_contract_seeded():
    # 1000 seeded pairs: U <= a, U independent of a∩b, U + (a∩b) = a
    rng = np.random.default_rng(2024)
    ctx = FieldCtx(5)
    for trial in range(1000):
        a = random_subspace(6, int(rng.integers(0, 7)), ctx, rng)
        b = random_subspace(6, int(rng.integers(0, 7)), ctx, rng)
        u = a.complement(b) if trial % 2 else a.complement(b, rng)
        inter = a.intersect(b)
        assert a.contains(u)
        assert u.intersect(inter).dim == 0
        assert (u + inter) == a
        assert u.dim == a.dim - inter.dim


def test_complement_contract_exhaustive_f2():
    # every subspace pair of F_2^3, both modes
    rng = np.random.default_rng(9)
    subs = list(iter_all_subspaces(3, F2))
    for a in subs:
        for b in subs:
            inter = a.intersect(b)
            for u in (a.complement(b), a.complement(b, rng)):
                assert a.contains(u)
                assert u.intersect(inter).dim == 0
                assert (u + inter) == a


def test_complement_deterministic_is_pure_function():
    rng = np.random.default_rng(8)
    a = random_subspace(5, 3, F5, rng)
    b = random_subspace(5, 2, F5, rng)
    assert a.complement(b) == a.complement(b)


def test_complement_random_uniform_over_complements():
    # in F_2^2 the complements of <e1> are <e2> and <e1+e2>
    full = full_space(2, F2)
    e1 = span_of(MatrixFq([[1, 0]], F2))
    expected = {
        span_of(MatrixFq([[0, 1]], F2)),
        span_of(MatrixFq([[1, 1]], F2)),
    }
    rng = np.random.default_rng(55)
    counts = {}
    n = 10_000
    for _ in range(n):
        u = full.complement(e1, rng)
        assert u in expected
        counts[u] = counts.get(u, 0) + 1
    sigma = (n * 0.25) ** 0.5
    for u in expected:
        assert abs(counts.get(u, 0) - n / 2) <= 5 * sigma


def test_random_subspace_bounds():
    rng = np.random.default_rng(1)
    assert random_subspace(4, 0, F2, rng).dim == 0
    assert random_subspace(4, 4, F2, rng) == full_space(4, F2)
    with pytest.raises(ValueError):
        random_subspace(3, 4, F2, rng)


def test_random_subspace_uniform():
    # 7 lines in F_2^3, each hit ~1/7 of the time
    rng = np.random.default_rng(99)
    lines = list(iter_subspaces(3, 1, F2))
    assert len(lines) == 7
    n = 100_000
    counts = {s: 0 for s in lines}
    for _ in range(n):
        counts[random_subspace(3, 1, F2, rng)] += 1
    p = 1 / 7
    sigma = (n * p * (1 - p)) ** 0.5
    for s, c in counts.items():
        assert abs(c - n * p) <= 5 * sigma


def test_rejection_draws_are_bounded(monkeypatch):
    # a rank that never reports full rank must end every rejection loop
    # (draws without avoid read the rank off rref, draws with avoid call rank)
    from nckey import subspaces

    rng = np.random.default_rng(4)
    a = random_subspace(4, 2, F5, rng)
    monkeypatch.setattr(subspaces, "rank", lambda m: -1)
    monkeypatch.setattr(subspaces, "rref", lambda m: (m, -1, []))
    with pytest.raises(RuntimeError, match="tries"):
        random_subspace(4, 2, F5, rng)
    with pytest.raises(RuntimeError, match="tries"):
        subspaces.random_inside(a, 1, rng)
    with pytest.raises(RuntimeError, match="tries"):
        full_space(4, F5).complement(a, rng)


def test_direct_sum():
    z = direct_sum(zero_subspace(2, F2), zero_subspace(3, F2))
    assert z.dim == 0 and z.ambient_dim == 5
    e1 = span_of(MatrixFq([[1, 0]], F2))
    d = direct_sum(e1, e1)
    assert d.ambient_dim == 4
    assert d.basis.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert direct_sum(e1, e1, e1).basis.tolist() == [
        [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]
    ]
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = random_subspace(4, int(rng.integers(0, 5)), F5, rng)
        b = random_subspace(3, int(rng.integers(0, 4)), F5, rng)
        assert direct_sum(a, b).dim == a.dim + b.dim


def test_spanning_matrix_count():
    assert spanning_matrix_count(3, 0, F5) == 1
    for q in (2, 3, 5, 101):
        assert spanning_matrix_count(1, 1, FieldCtx(q)) == q - 1
    # brute force: 2-row binary matrices over F_2^2 spanning a fixed line
    target = span_of(MatrixFq([[1, 0]], F2))
    count = 0
    for entries in itertools.product(range(2), repeat=4):
        m = MatrixFq(np.array(entries, dtype=np.int64).reshape(2, 2), F2)
        if rank(m) > 0 and span_of(m) == target:
            count += 1
    assert count == spanning_matrix_count(2, 1, F2) == 3
    with pytest.raises(ValueError):
        spanning_matrix_count(2, 3, F2)


def test_gaussian_binomial():
    assert gaussian_binomial(5, 0, F3) == 1
    # lines of F_2^3: nonzero vectors up to scaling
    assert gaussian_binomial(3, 1, F2) == 7 == (2**3 - 1) // (2 - 1)
    # brute-force count of rref 2x4 binary bases
    assert gaussian_binomial(4, 2, F2) == sum(1 for _ in iter_subspaces(4, 2, F2)) == 35
    # enumeration always matches the closed form
    for n in range(5):
        for k in range(n + 1):
            assert sum(1 for _ in iter_subspaces(n, k, F3)) == gaussian_binomial(n, k, F3)


def test_subspaces_within():
    s = span_of(MatrixFq([[1, 0, 0, 1], [0, 1, 0, 0]], F2))
    inside = list(subspaces_within(s))
    assert len(inside) == 1 + 3 + 1  # zero, three lines, itself
    assert all(s.contains(t) for t in inside)
    assert len(set(inside)) == len(inside)


def _generic_trial(rng, ctx, n, k, fix_first=False):
    dims = [int(rng.integers(0, n + 1)) for _ in range(k)]
    subs = [random_subspace(n, d, ctx, rng) for d in dims]
    if fix_first:
        # a fixed (deterministic) subspace in the first slot
        subs[0] = span_of(MatrixFq(np.eye(dims[0], n, dtype=np.int64), ctx))
    total = subs[0]
    inter = subs[0]
    for s in subs[1:]:
        total = total + s
        inter = inter.intersect(s)
    want_sum, want_int = generic_dims(dims, n)
    return total.dim == want_sum and inter.dim == want_int


def test_generic_position_frequencies_across_q():
    """Sum/intersection dims of independent uniform subspaces follow the
    generic-position formulas with failure rate O(1/q)."""
    n, trials = 6, 400
    freqs = {}
    for q in (2, 3, 5, 11, 101):
        rng = np.random.default_rng(q * 7919)
        ctx = FieldCtx(q)
        hits = sum(
            _generic_trial(rng, ctx, n, k) for k in (2, 3) for _ in range(trials // 2)
        )
        freqs[q] = hits / trials
    # bounded constant c with failure <= c/q across all tested q
    assert all((1 - f) * q <= 3.0 for q, f in freqs.items()), freqs
    assert freqs[101] > 0.95, freqs


def test_generic_position_fixed_subspace_variant():
    n, trials = 6, 400
    rng = np.random.default_rng(4242)
    ctx = FieldCtx(101)
    hits = sum(
        _generic_trial(rng, ctx, n, k, fix_first=True) for k in (2, 3) for _ in range(trials // 2)
    )
    assert hits / trials > 0.95


def test_subspace_family_validation():
    s = zero_subspace(3, F2)
    fam = SubspaceFamily(2, {1: s, 2: s, 3: s})
    assert fam.masks() == [1, 2, 3]
    with pytest.raises(ValueError):
        SubspaceFamily(1, {2: s})
    with pytest.raises(ValueError):
        SubspaceFamily(2, {1: s, 2: zero_subspace(4, F2)})


def test_subspace_equality_is_canonical():
    rng = np.random.default_rng(3)
    for _ in range(30):
        s = random_subspace(4, 2, F5, rng)
        # re-span a randomly transformed basis: same subspace, same hash
        while True:
            t = random_matrix(2, 2, F5, rng)
            if rank(t) == 2:
                break
        again = span_of(mat_mul(t, s.basis))
        assert again == s
        assert hash(again) == hash(s)
