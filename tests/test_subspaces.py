import copy
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nckey.bounds import generic_dims
from nckey import fieldmath, subspaces
from nckey.fieldmath import (
    FieldCtx,
    MatrixFq,
    block_diag,
    identity,
    mat_mul,
    random_matrix,
    rank,
    rref,
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
    quotient,
    random_picks,
    random_subspace,
    span_of,
    spanning_matrix_count,
    spans_of,
    subspaces_within,
    zero_subspace,
)
from references import dims_law, draw_law, reference_intersect, reference_rank, reference_span

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


def test_quotient_refuses_rows_outside_the_ambient_space():
    with pytest.raises(ValueError, match="3-column rows"):
        quotient(zeros(1, 3, F2), full_space(2, F2))
    with pytest.raises(ValueError, match="do not live in"):
        quotient(zeros(1, 2, F3), zero_subspace(2, F2))


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
    # and the span_of that ends each intersection run on the float64 panels;
    # the intersection kernels, dim U <= 120 columns wide, fit in one panel.
    # A shared part keeps U + V short of the whole space and U ∩ V nonzero
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


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("shared", [1, 2])
def test_complement_graphs_hit_every_complement_once(q, shared):
    # a 3-dimensional subspace of F_q^4 against one meeting it in dimension
    # ``shared``: over every draw X, the random complement hits each
    # complement of the intersection exactly once, so its law is exactly
    # uniform
    ctx, rng = FieldCtx(q), np.random.default_rng(q + shared)
    sub = random_subspace(4, 3, ctx, rng)
    other = random_picks([(sub, shared)], rng)[0] + _pivot_complement(sub)
    inter = sub.intersect(other)
    assert inter.dim == shared
    k = sub.dim - shared
    complements = [
        u for u in subspaces_within(sub, k) if u.dim == k and u.intersect(inter).dim == 0 and u + inter == sub
    ]
    assert len(complements) == q ** (k * shared)
    assert draw_law(lambda rng: sub.complement(other, rng), q, [k * shared]) == Counter(complements)


def test_random_subspace_bounds():
    rng = np.random.default_rng(1)
    assert random_subspace(4, 0, F2, rng).dim == 0
    assert random_subspace(4, 4, F2, rng) == full_space(4, F2)
    with pytest.raises(ValueError):
        random_subspace(3, 4, F2, rng)


def test_random_subspace_uniform():
    # Law 1: of the q^(kn) draws of k x n coefficients over an n-dimensional
    # subspace S, exactly |GL_k(q)| pick each k-subspace of S, and the rest
    # are refused; S is F_q^n (random_subspace), a subspace of F_q^(n+1) or
    # a direct sum, whose k-subspaces are images of the coordinate ones
    for q, n, k in ((2, 3, 1), (2, 4, 2), (3, 3, 1), (3, 4, 2), (2, 5, 2)):
        ctx, rng = FieldCtx(q), np.random.default_rng(q * n + k)
        inside = random_subspace(n + 1, n, ctx, rng)
        summed = direct_sum(random_subspace(n - 1, n // 2, ctx, rng), random_subspace(n - 1, n - n // 2, ctx, rng))
        gl = math.prod(q**k - q**i for i in range(k))
        for sub, sample in (
            (full_space(n, ctx), lambda rng: random_subspace(n, k, ctx, rng)),
            (inside, lambda rng: random_picks([(inside, k)], rng)[0]),
            (summed, lambda rng: random_picks([(summed, k)], rng)[0]),
        ):
            images = (reference_span(c.basis.arr @ sub.basis.arr % q, q) for c in iter_subspaces(n, k, ctx))
            assert draw_law(sample, q, [k * n]) == {Subspace(MatrixFq(im, ctx), sub.ambient_dim): gl for im in images}


@pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1])
def test_full_dimension_pick_returns_sub_after_the_reference_draws(q):
    # a pick of all of sub returns sub itself, and leaves the generator where
    # the draw-and-rref loop of a partial pick would: singular square draws
    # (frequent at q = 2) are redrawn, full-rank ones reduce to I
    ctx = FieldCtx(q)
    rejected = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        sub = random_subspace(7, int(rng.integers(1, 6)), ctx, rng)
        ref_rng = copy.deepcopy(rng)
        got = random_picks([(sub, sub.dim)], rng)[0]
        while True:
            red, r, _ = rref(random_matrix(sub.dim, sub.dim, ctx, ref_rng))
            if r == sub.dim:
                break
            rejected += 1
        assert got is sub
        assert Subspace(mat_mul(red, sub.basis), 7) == sub
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rejected >= (20 if q == 2 else 0)


@pytest.mark.parametrize("q", [2, 2**31 - 1])
def test_pick_lists_replay_the_one_at_a_time_draws(q):
    # a list of picks draws every pending request before one rref_stack and
    # replays from the first rank-deficient draw, so it returns the picks of
    # drawing, reducing and keeping each request's first full-rank draw one
    # request after another, and leaves the generator where that loop does;
    # the lists mix dim 0, partial and full-dimension picks of several
    # shapes, and at q = 2 a square draw is singular about 71% of the time
    from nckey import subspaces

    ctx = FieldCtx(q)
    rejected = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        subs = [random_subspace(7, int(rng.integers(0, 7)), ctx, rng) for _ in range(int(rng.integers(1, 10)))]
        requests = [(sub, int(rng.choice([0, sub.dim, rng.integers(0, sub.dim + 1)]))) for sub in subs]
        ref_rng = copy.deepcopy(rng)
        got = subspaces.random_picks(requests, rng)
        want = []
        for sub, dim in requests:
            pick = zero_subspace(7, ctx)
            while dim:
                red, r, _ = rref(random_matrix(dim, sub.dim, ctx, ref_rng))
                if r == dim:
                    pick = Subspace(mat_mul(red, sub.basis), 7)
                    break
                rejected += 1
            want.append(pick)
        assert got == want
        assert all(pick is sub for pick, (sub, dim) in zip(got, requests) if dim == sub.dim > 0)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rejected >= (40 if q == 2 else 0)


def test_rejection_draws_are_bounded(monkeypatch):
    # a rank that never reports full rank must end the rejection loop of
    # random_picks (partial picks read the rank off rref_stack, whole ones
    # off rank_stack); a random complement has no loop to bound
    from nckey import subspaces

    rng = np.random.default_rng(4)
    a = random_subspace(4, 2, F5, rng)
    monkeypatch.setattr(subspaces, "rref_stack", lambda mats: [(m, -1, []) for m in mats])
    monkeypatch.setattr(subspaces, "rank_stack", lambda mats: [-1 for m in mats])
    with pytest.raises(RuntimeError, match="tries"):
        random_subspace(4, 2, F5, rng)
    with pytest.raises(RuntimeError, match="tries"):
        random_picks([(a, 1)], rng)
    with pytest.raises(RuntimeError, match="tries"):
        random_picks([(a, 2)], rng)


def _pivot_complement(sub: Subspace) -> Subspace:
    """The unit vectors off sub's pivot columns (each basis row's first
    nonzero entry), which span a complement of sub in the whole space."""
    free = np.ones(sub.ambient_dim, dtype=bool)
    free[[np.flatnonzero(row)[0] for row in sub.basis.arr]] = False
    return Subspace(MatrixFq(np.eye(sub.ambient_dim, dtype=np.int64)[free], sub.ctx), sub.ambient_dim)


@st.composite
def subspace_cases(draw):
    """Matrices over F_q^n, n the width of a layout of 1-3 slots of 0-3
    columns: two that span U and V, which share a random part, and one per
    slot, a thin product of that slot's width, which spans a part of a
    direct sum; and a generator for the rows and draws taken against them.
    Only the field is drawn by hypothesis; the rest comes from a seeded
    generator, which keeps each example cheap to draw."""
    ctx = FieldCtx(draw(st.sampled_from([2, 3, 101, 2**31 - 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = rng.integers(0, 4, size=rng.integers(1, 4))
    n = int(layout.sum())
    shared = random_matrix(rng.integers(0, 4), n, ctx, rng)
    spanning = [vstack([shared, random_matrix(rng.integers(0, 5), n, ctx, rng)]) for _ in range(2)]
    slots = [
        random_matrix(rng.integers(0, 4), inner, ctx, rng) @ random_matrix(inner, width, ctx, rng)
        for width, inner in zip(layout, rng.integers(0, 4, size=3))
    ]
    return spanning, slots, rng


def case_spans(spanning, slots):
    """The case's matrices, U's, V's, the slots' and U and V's stacked, with
    their spans by Gauss-Jordan."""
    ctx = spanning[0].ctx
    mats = [*spanning, *slots, vstack(spanning)]
    return mats, [Subspace(MatrixFq(reference_span(m.arr, ctx.q), ctx), m.cols) for m in mats]


def dense_subspaces(u, v, total):
    """U, V, the zero space, U + V, the full space and a complement of U."""
    n, ctx = u.ambient_dim, u.ctx
    return [u, v, zero_subspace(n, ctx), total, full_space(n, ctx), _pivot_complement(u)]


def check_quotient(sub, ref, rows, rng):
    """Rows modulo ``sub``, and rows inside it after them: the width is
    ambient - dim, the rows keep exactly the rank they add to ``ref``'s
    basis (by Gauss-Jordan), and the rows inside map to zero."""
    ctx, q = sub.ctx, sub.ctx.q
    inside = subspaces._combination(random_matrix(2, sub.dim, ctx, rng), sub)
    image = quotient(vstack([rows, inside]), sub)
    assert image.shape == (rows.rows + 2, sub.ambient_dim - ref.dim) and not image.arr[rows.rows :].any()
    assert reference_rank(image.arr, q) == reference_rank(np.vstack([rows.arr, ref.basis.arr]), q) - ref.dim


@settings(max_examples=300, deadline=None, derandomize=True)
@given(subspace_cases())
def test_stacked_spans_equal_span_of_for_each_matrix(case):
    # one rref_stack for the list, grouped by shape: mixed shapes and ranks
    # give each span_of, the Gauss-Jordan span; U + V spans the stacked rows
    spanning, slots, _ = case
    mats, spans = case_spans(spanning, slots)
    assert [span_of(m) for m in mats] == spans_of(mats) == spans
    assert spans[0] + spans[1] == spans[-1]
    assert spans_of([]) == []


@settings(max_examples=300, deadline=None, derandomize=True)
@given(subspace_cases())
def test_quotient_rank_is_the_rank_added_to_the_subspace(case):
    # modulo U, V, the zero space, U + V, the full space and a complement
    # of U
    spanning, slots, rng = case
    u, v, *_, total = case_spans(spanning, slots)[1]
    rows = random_matrix(3, u.ambient_dim, u.ctx, rng)
    for sub in dense_subspaces(u, v, total):
        check_quotient(sub, sub, rows, rng)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(subspace_cases())
def test_quotient_intersect_and_contains_equal_the_stacked_references(case):
    # U against V, the zero space, U itself, U + V, the full space, a
    # complement of U and a direct sum, both ways: intersect by Zassenhaus,
    # contains by the rank of the stacked bases
    spanning, slots, _ = case
    u, v, *parts, total = case_spans(spanning, slots)[1]
    q, n = u.ctx.q, u.ambient_dim
    for sub in dense_subspaces(u, v, total) + [direct_sum(*parts)]:
        meet = Subspace(MatrixFq(reference_intersect([u.basis.arr, sub.basis.arr], q), u.ctx), n)
        joint = reference_rank(np.vstack([u.basis.arr, sub.basis.arr]), q)
        assert u.intersect(sub) == sub.intersect(u) == meet
        assert (u.contains(sub), sub.contains(u)) == (joint == u.dim, joint == sub.dim)
    assert u.intersect(_pivot_complement(u)).dim == 0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(subspace_cases())
def test_direct_sum_quotients_and_picks_equal_the_block_diagonal_ones(case):
    # a direct sum keeps its parts: quotients modulo it, coefficient products
    # over its basis and uniform picks inside it, all taken part by part,
    # equal those over its dense block-diagonal basis (the same draws, to
    # the same generator state), with no dense basis built; read on demand,
    # that basis is the block-diagonal one
    spanning, slots, rng = case
    _, _, *parts, _ = case_spans(spanning, slots)[1]
    summed = direct_sum(*parts)
    ctx, q, n = summed.ctx, summed.ctx.q, summed.ambient_dim
    twin = Subspace(block_diag([p.basis for p in parts]), n)
    assert summed.parts == tuple(parts) and summed.dim == twin.dim
    check_quotient(summed, twin, random_matrix(3, n, ctx, rng), rng)
    coeffs = random_matrix(3, summed.dim, ctx, rng)
    want = (coeffs.arr.astype(object) @ twin.basis.arr.astype(object)) % q
    assert subspaces._combination(coeffs, summed).tolist() == want.tolist()
    requests = [(summed, int(rng.integers(0, summed.dim + 1))) for _ in range(3)]
    state = rng.bit_generator.state
    picks = random_picks(requests, rng)
    after, rng.bit_generator.state = rng.bit_generator.state, state
    assert summed._basis is None
    assert picks == random_picks([(twin, dim) for _, dim in requests], rng) and rng.bit_generator.state == after
    assert summed.basis == twin.basis


@pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1])
def test_quotient_avoiding_pick_matches_the_stacked_rank_reference(q):
    # a random complement of W = sub ∩ other is the span of C0 + X @ W.basis,
    # C0 the deterministic complement and X one uniform draw: it replays from
    # a copied generator, leaves it in the same state, and meets ``other``
    # only in zero by the stacked rank
    ctx = FieldCtx(q)
    graphs = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        sub = random_subspace(6, int(rng.integers(1, 6)), ctx, rng)
        inside = random_matrix(int(rng.integers(0, sub.dim + 1)), sub.dim, ctx, rng) @ sub.basis
        other = span_of(vstack([inside, random_matrix(int(rng.integers(0, 3)), 6, ctx, rng)]))
        inter, c0 = sub.intersect(other), sub.complement(other)
        ref_rng = copy.deepcopy(rng)
        got = sub.complement(other, rng)
        want = c0
        if c0.dim and inter.dim:
            graph = random_matrix(c0.dim, inter.dim, ctx, ref_rng) @ inter.basis
            want = span_of(MatrixFq(c0.basis.arr + graph.arr, ctx))
            graphs += 1
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rank(vstack([got.basis, other.basis])) == got.dim + other.dim
        assert got.dim == sub.dim - inter.dim
    assert graphs >= 10


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


def reference_subspaces_within(s: Subspace, max_dim: int):
    """Each coordinate subspace's image in s, re-eliminated by span_of."""
    return [
        span_of(mat_mul(coords.basis, s.basis))
        for d in range(min(max_dim, s.dim) + 1)
        for coords in iter_subspaces(s.dim, d, s.ctx)
    ]


@pytest.mark.parametrize("ctx", [F2, F3], ids=["q2", "q3"])
def test_subspaces_within_are_canonical_without_elimination(ctx):
    # the products of RREF bases are the span_of bases, in the same order
    for ell in range(1, 5):
        for s in iter_all_subspaces(ell, ctx):
            for max_dim in {1, s.dim}:
                got = list(subspaces_within(s, max_dim=max_dim))
                want = reference_subspaces_within(s, max_dim)
                assert got == want


def test_generic_position_frequencies_across_q():
    """Sum/intersection dims of independent uniform subspaces of F_q^6 follow
    the generic-position formulas with failure O(1/q), exactly by the meet
    law.  Each subspace that joins meets the sum and the intersection so
    far; a meet passes its generic dimension with probability at most
    1/(q - 1), the expected number of lines in it (or in the meet of the
    orthogonal complements), and k subspaces take 2k - 3 meets."""
    n = 6
    for q, k in itertools.product((2, 3, 5, 11, 101), (2, 3)):
        for dims in itertools.product(range(n + 1), repeat=k):
            law = dims_law(dims, n, q)
            total = math.prod(gaussian_binomial(n, d, FieldCtx(q)) for d in dims[1:])
            assert sum(law.values()) == total
            assert (total - law[generic_dims(dims, n)]) * (q - 1) <= (2 * k - 3) * total


def test_generic_position_fixed_subspace_variant():
    # Law 2: a fixed d1-subspace meets the d2-subspaces of F_q^n, every one
    # enumerated, in j dimensions for G(d1, j) q^((d1 - j)(d2 - j))
    # G(n - d1, d2 - j) of them; and a third subspace meets the sum and the
    # intersection of two fixed ones as dims_law counts
    for q, n, d1, d2 in ((2, 4, 2, 2), (3, 4, 2, 2), (2, 5, 2, 3), (2, 5, 3, 3), (3, 4, 1, 3)):
        fixed = random_subspace(n, d1, ctx := FieldCtx(q), np.random.default_rng(n * d1 + d2))
        seen = Counter(((fixed + s).dim, fixed.intersect(s).dim) for s in iter_subspaces(n, d2, ctx))
        assert seen == dims_law([d1, d2], n, q)
    a, b = (span_of(MatrixFq(np.eye(4, dtype=np.int64)[rows], F2)) for rows in ([0, 1], [1, 2]))
    for d in range(5):
        seen = Counter(((a + b + c).dim, a.intersect(b).intersect(c).dim) for c in iter_subspaces(4, d, F2))
        assert seen == dims_law([d], 4, 2, Counter({(3, 1): 1}))


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
