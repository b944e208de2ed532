import pytest
from hypothesis import given, settings, strategies as st

import itertools

from ringoid.linalg import (
    CapExceeded,
    DimensionMismatch,
    Mat,
    Subspace,
    complement_data,
    image_basis,
    kernel_basis,
    matrix_kernel,
    matrix_kernel_dim,
    packed_idempotents,
    preimage,
    rref_rows,
    solve,
    subspace_intersect,
    subspace_sum,
)
from reference import enumerate_subspaces


def gaussian_binomial(n, k, p):
    """Independent counting oracle: number of k-dim subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** n - p ** i
        den *= p ** k - p ** i
    return num // den


def mats(p, max_dim=4):
    dims = st.tuples(st.integers(0, max_dim), st.integers(0, max_dim))
    return dims.flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(0, p - 1), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(lambda rows: Mat(p, rc[0], rc[1], rows))
    )


def rows_of(m):
    return [list(r) for r in m.entries]


def test_rref_zero_matrix():
    assert rref_rows(2, rows_of(Mat.zero(2, 3, 2)), 2) == ([[0, 0]] * 3, [])


@pytest.mark.parametrize("p", [2, 3])
def test_rref_zero_rows_are_distinct_lists(p):
    rows, pivots = rref_rows(p, [[1, 1, 0], [1, 1, 0], [0, 0, 0], [2, 2, 0]], 3)
    assert rows == [[1, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]] and pivots == [0]
    zero_rows = rows[len(pivots):]
    assert len({id(r) for r in zero_rows}) == len(zero_rows)
    zero_rows[0][2] = 1
    assert zero_rows[1] == [0, 0, 0]


def test_rref_identity_fixed_point():
    assert rref_rows(3, rows_of(Mat.identity(3, 4)), 4) == (rows_of(Mat.identity(3, 4)), [0, 1, 2, 3])


def test_rref_hand_example_f2():
    # hand Gaussian elimination: r2 += r1, then r1 += r2
    assert rref_rows(2, [[1, 1], [1, 0]], 2) == ([[1, 0], [0, 1]], [0, 1])


@settings(max_examples=150, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(mats))
def test_rref_idempotent_and_row_space_preserving(m):
    rows, pivots = rref_rows(m.p, rows_of(m), m.cols)
    assert rref_rows(m.p, [list(r) for r in rows], m.cols) == (rows, pivots)
    assert Subspace.from_vectors(m.p, m.cols, rows) == Subspace.from_vectors(m.p, m.cols, m.entries)
    # every input row reduces to zero against the nonzero RREF rows
    basis = Subspace(m.p, m.cols, Mat(m.p, len(pivots), m.cols, rows[:len(pivots)]))
    assert all(basis.contains(r) for r in m.entries)


@settings(max_examples=150, derandomize=True)
@given(st.sampled_from([2, 3, 5]).flatmap(mats))
def test_rank_nullity(m):
    assert kernel_basis(m).dim + image_basis(m).dim == m.cols


def test_kernel_of_zero_map_is_everything():
    m = Mat.zero(2, 1, 3)
    assert kernel_basis(m) == Subspace.full(2, 3)


def test_image_of_identity_is_full():
    assert image_basis(Mat.identity(3, 3)) == Subspace.full(3, 3)


def test_kernel_hand_example_f3():
    # kernel of the 1x2 matrix [1, 2] over F_3: 1 + 2*1 = 3 = 0 mod 3
    m = Mat.from_rows(3, [(1, 2)])
    k = kernel_basis(m)
    assert k.dim == 1
    assert k.contains((1, 1))


def test_solve_consistent_and_inconsistent():
    m = Mat.from_rows(2, [(1, 1), (0, 0)])
    assert solve(m, (1, 0)) in {(1, 0), (0, 1)}
    assert solve(m, (0, 1)) is None
    with pytest.raises(DimensionMismatch):
        solve(m, (1, 0, 0))


def test_subspace_sum_with_zero_is_identity():
    u = Subspace.from_vectors(2, 3, [(1, 0, 1)])
    assert subspace_sum(u, Subspace.zero(2, 3)) == u


def test_subspace_self_intersection():
    u = Subspace.from_vectors(3, 3, [(1, 0, 2), (0, 1, 1)])
    assert subspace_intersect(u, u) == u


def test_f2_plane_decomposition():
    e1 = Subspace.from_vectors(2, 2, [(1, 0)])
    e2 = Subspace.from_vectors(2, 2, [(0, 1)])
    assert subspace_sum(e1, e2) == Subspace.full(2, 2)
    assert subspace_intersect(e1, e2) == Subspace.zero(2, 2)


def test_ambient_mismatch_rejected():
    u = Subspace.from_vectors(2, 2, [(1, 0)])
    v = Subspace.from_vectors(2, 3, [(1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        subspace_sum(u, v)


@settings(max_examples=100, derandomize=True)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.lists(st.integers(0, p - 1), min_size=4, max_size=4), max_size=3),
            st.lists(st.lists(st.integers(0, p - 1), min_size=4, max_size=4), max_size=3),
        )
    )
)
def test_modular_dimension_law(data):
    p, us, vs = data
    u = Subspace.from_vectors(p, 4, us)
    v = Subspace.from_vectors(p, 4, vs)
    s = subspace_sum(u, v)
    i = subspace_intersect(u, v)
    assert s.dim == u.dim + v.dim - i.dim
    assert s.contains_subspace(u) and s.contains_subspace(v)
    assert u.contains_subspace(i) and v.contains_subspace(i)


@settings(max_examples=80, derandomize=True)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.lists(st.integers(0, p - 1), min_size=3, max_size=3), max_size=2),
            st.lists(st.lists(st.integers(0, p - 1), min_size=3, max_size=3), max_size=2),
            st.lists(st.lists(st.integers(0, p - 1), min_size=3, max_size=3), max_size=2),
        )
    )
)
def test_modular_lattice_law(data):
    # U <= W implies U + (V /\ W) = (U + V) /\ W
    p, us, vs, ws = data
    u = Subspace.from_vectors(p, 3, us)
    v = Subspace.from_vectors(p, 3, vs)
    w = subspace_sum(u, Subspace.from_vectors(p, 3, ws))
    lhs = subspace_sum(u, subspace_intersect(v, w))
    rhs = subspace_intersect(subspace_sum(u, v), w)
    assert lhs == rhs


@pytest.mark.parametrize(
    "n,p,expected",
    [
        (0, 2, 1),
        (2, 2, 5),   # 1 + 3 + 1
        (2, 3, 6),   # 1 + 4 + 1
        (3, 2, 16),
        (4, 2, 67),
    ],
)
def test_enumerate_subspaces_counts(n, p, expected):
    subs = enumerate_subspaces(n, p)
    assert len(subs) == expected
    assert len(set(subs)) == expected
    assert expected == sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def test_enumerate_subspaces_cap_refusal():
    with pytest.raises(CapExceeded, match="4096"):
        enumerate_subspaces(13, 2)


def test_complement_data_projection():
    s = Subspace.from_vectors(2, 3, [(1, 1, 0)])
    proj, lift = complement_data(s)
    assert proj @ lift == Mat.identity(2, 2)
    assert kernel_basis(proj) == s


def test_preimage_and_image():
    m = Mat.from_rows(2, [(1, 0), (0, 0)])
    s = Subspace.zero(2, 2)
    # preimage of 0 under projection-to-first-coordinate is the second axis
    assert preimage(m, s) == Subspace.from_vectors(2, 2, [(0, 1)])
    assert image_basis(m) == Subspace.from_vectors(2, 2, [(1, 0)])


def test_enumeration_deterministic():
    a = enumerate_subspaces(3, 2)
    b = enumerate_subspaces(3, 2)
    assert a == b


@settings(max_examples=150, derandomize=True)
@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.lists(st.integers(0, p - 1), min_size=4, max_size=4), max_size=3),
            st.lists(st.integers(0, p - 1), min_size=3, max_size=3),
            st.one_of(st.none(), st.lists(st.integers(0, p - 1), min_size=4, max_size=4)),
        )
    )
)
def test_coords_agree_with_solve(data):
    # v is a combination of the spanning vectors, plus an optional offset
    # that usually leaves the subspace
    p, vecs, coeffs, offset = data
    s = Subspace.from_vectors(p, 4, vecs)
    v = [sum(c * row[k] for c, row in zip(coeffs, vecs)) % p for k in range(4)]
    if offset is not None:
        v = [(x + y) % p for x, y in zip(v, offset)]
    expected = solve(Mat.from_cols(p, 4, s.basis_vectors()), tuple(v))
    assert s.coords(v) == expected
    assert (s.coords(v) is None) == (not s.contains(v))


def test_from_blocks_places_blocks_and_zero_fills():
    a = Mat.from_rows(3, [(1, 2)])
    b = Mat.from_rows(3, [(2,), (1,)])
    m = Mat.from_blocks(3, (1, 2), (2, 1), {(0, 0): a, (1, 1): b})
    assert m == Mat.from_rows(3, [(1, 2, 0), (0, 0, 2), (0, 0, 1)])


def test_from_blocks_off_diagonal_block():
    c = Mat.from_rows(2, [(1, 1)])
    m = Mat.from_blocks(2, (1, 1), (1, 2), {(0, 1): c, (1, 0): Mat.identity(2, 1)})
    assert m == Mat.from_rows(2, [(0, 1, 1), (1, 0, 0)])


def test_from_blocks_zero_size_rows_and_columns():
    # a 0-row block row and a 0-column block column take no space
    b = Mat.from_rows(5, [(4,), (3,)])
    m = Mat.from_blocks(5, (0, 2), (1, 0), {(1, 0): b, (0, 1): Mat.zero(5, 0, 0)})
    assert m == b
    assert Mat.from_blocks(5, (2,), (), {}) == Mat.zero(5, 2, 0)
    assert Mat.from_blocks(5, (), (3,), {}) == Mat.zero(5, 0, 3)


def test_from_blocks_absent_blocks_are_zero():
    assert Mat.from_blocks(3, (1, 2), (2, 2), {}) == Mat.zero(3, 3, 4)


@pytest.mark.parametrize("blocks", [
    {(0, 0): Mat.identity(2, 2)},   # wrong shape
    {(1, 0): Mat.identity(2, 1)},   # block row outside the grid
    {(0, -1): Mat.identity(2, 1)},  # negative index
])
def test_from_blocks_rejects_misfit_blocks(blocks):
    with pytest.raises(DimensionMismatch):
        Mat.from_blocks(2, (1,), (1,), blocks)


def draw_mat(data, p, rows, cols):
    entries = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Mat(p, rows, cols, entries)


def evaluate(terms, xs):
    """sum c * L @ X[key] @ R in plain Mat arithmetic, None meaning identity."""
    total = None
    for c, left, key, right in terms:
        t = xs[key]
        if left is not None:
            t = left @ t
        if right is not None:
            t = t @ right
        t = t.scale(c)
        total = t if total is None else total + t
    return total


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_matrix_kernel_matches_brute_force(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    # at most 8 unknown entries, and at most 256 assignments to enumerate
    budget = max(n for n in range(9) if p ** n <= 256)
    shapes = {}
    for k in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, 3))
        c = data.draw(st.integers(0, min(3, budget // r) if r else 3))
        budget -= r * c
        shapes[("x", k)] = (r, c)
    keys = list(shapes)
    equations = []
    for _ in range(data.draw(st.integers(0, 3))):
        nr, nc = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        terms = []
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from(keys))
            kr, kc = shapes[key]
            left = None if kr == nr and data.draw(st.booleans()) else draw_mat(data, p, nr, kr)
            right = None if kc == nc and data.draw(st.booleans()) else draw_mat(data, p, kc, nc)
            terms.append((data.draw(st.integers(-p, p)), left, key, right))
        equations.append(terms)

    solutions, pack, unpack = matrix_kernel(p, shapes, equations)

    n = sum(r * c for r, c in shapes.values())
    expected = set()
    for flat in itertools.product(range(p), repeat=n):
        xs, rest = {}, list(flat)
        for key, (r, c) in shapes.items():
            xs[key] = Mat(p, r, c, [[rest.pop(0) for _ in range(c)] for _ in range(r)])
        if all(evaluate(terms, xs).is_zero() for terms in equations):
            expected.add(tuple(xs[key].entries for key in keys))
    assert solutions.ambient == n
    found = {tuple(unpack(v)[key].entries for key in keys) for v in solutions.vectors()}
    assert found == expected
    assert p ** matrix_kernel_dim(p, shapes, equations) == len(expected)

    xs = {key: draw_mat(data, p, r, c) for key, (r, c) in shapes.items()}
    # unknowns in the order of `shapes`, each row-major
    assert pack(xs) == tuple(x for key in keys for row in xs[key].entries for x in row)
    assert unpack(pack(xs)) == xs


def test_matrix_kernel_rejects_misfit_factors():
    shapes = {"x": (2, 1)}
    with pytest.raises(DimensionMismatch):
        matrix_kernel(2, shapes, [[(1, Mat.identity(2, 3), "x", None)]])
    with pytest.raises(DimensionMismatch):
        # the two terms give a 2x1 and a 1x1 result
        matrix_kernel(2, shapes, [[(1, None, "x", None), (1, Mat.zero(2, 1, 2), "x", None)]])
    with pytest.raises(DimensionMismatch):
        matrix_kernel_dim(2, shapes, [[(1, Mat.identity(2, 3), "x", None)]])


def idempotents_by_reference(p, table):
    """The x with sum_i sum_j x_i x_j T[i][j] = x mod p, one coordinate at a
    time in plain arithmetic, in `itertools.product` order."""
    d = len(table)
    out = []
    for x in itertools.product(range(p), repeat=d):
        square = tuple(
            sum(x[i] * x[j] * table[i][j][k] for i in range(d) for j in range(d)) % p for k in range(d)
        )
        if square == x:
            out.append(x)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_idempotents_at_the_slot_bound(p, d):
    # every T[i][j][k] = p - 1, so at x = (p - 1, ..., p - 1) each slot sums
    # to d^2 (p - 1)^3, the most the slot width must hold
    table = [[[p - 1] * d for _ in range(d)] for _ in range(d)]
    top = tuple([p - 1] * d)
    assert sum(top[i] * top[j] * table[i][j][0] for i in range(d) for j in range(d)) == d * d * (p - 1) ** 3
    assert packed_idempotents(p, table) == idempotents_by_reference(p, table)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_packed_idempotents_match_the_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    d = data.draw(st.integers(0, 3))
    coord = st.integers(0, p - 1)
    table = data.draw(st.lists(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=d, max_size=d),
                               min_size=d, max_size=d))
    assert packed_idempotents(p, table) == idempotents_by_reference(p, table)


@pytest.mark.parametrize("n,p", [(0, 2), (3, 2), (2, 3), (3, 3), (2, 5)])
def test_quotient_points_are_one_per_line_of_the_quotient(n, p):
    # oracle: for every S, the lines of F_p^n / S are the classes of the
    # vectors outside S under v ~ c.v + s; each holds exactly one point
    for s in enumerate_subspaces(n, p):
        points = list(s.quotient_points())
        assert len(points) == len(set(points)) == (p ** (n - s.dim) - 1) // (p - 1)
        for v in itertools.product(range(p), repeat=n):
            if s.contains(v):
                continue
            hits = [r for r in points for c in range(1, p)
                    if s.reduce([c * x for x in v]) == r]
            assert len(hits) == 1
