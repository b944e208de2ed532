"""Results linalg builds with the trusted constructor `Mat._new` are canonical:
each equals the validating `Mat(p, rows, cols, entries)` and holds tuples of
ints in [0, p)."""

import itertools
import random

import pytest

from ringoid.linalg import Mat, Subspace, complement_data, kernel_basis, matrix_kernel
from reference import enumerate_subspaces


def assert_canonical(m):
    assert isinstance(m.entries, tuple) and len(m.entries) == m.rows
    for row in m.entries:
        assert isinstance(row, tuple) and len(row) == m.cols
        assert all(type(x) is int and 0 <= x < m.p for x in row)
    assert m == Mat(m.p, m.rows, m.cols, m.entries)
    assert hash(m) == hash(Mat(m.p, m.rows, m.cols, m.entries))


def random_mat(rng, p, rows, cols):
    # unreduced and negative entries: the validating constructor reduces them
    return Mat(p, rows, cols, [[rng.randint(-2 * p, 2 * p) for _ in range(cols)] for _ in range(rows)])


def reference_complement_data(s):
    """(proj, lift) by eliminating every standard vector against S."""
    n = s.ambient
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in s.mat.entries]
    nonpiv = [j for j in range(n) if j not in pivots]
    lift_cols = []
    for j in nonpiv:
        e = [0] * n
        e[j] = 1
        lift_cols.append(tuple(e))
    lift = Mat.from_cols(s.p, n, lift_cols)
    proj_rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        r = s.reduce(tuple(e))
        proj_rows.append(tuple(r[j] for j in nonpiv))
    proj = Mat.from_cols(s.p, len(nonpiv), proj_rows)
    return proj, lift


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_arithmetic_results_are_canonical(p):
    rng = random.Random(p)
    for _ in range(40):
        r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, a2, b = random_mat(rng, p, r, k), random_mat(rng, p, r, k), random_mat(rng, p, k, c)
        for m in (a @ b, a + a2, a - a2, a.scale(rng.randint(-9, 9)), a.transpose()):
            assert_canonical(m)
        assert a.transpose().transpose() == a
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_from_vectors_basis_is_canonical(p):
    rng = random.Random(100 + p)
    for _ in range(40):
        n = rng.randint(0, 5)
        vectors = [[rng.randint(-2 * p, 2 * p) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        s = Subspace.from_vectors(p, n, vectors)
        assert_canonical(s.mat)
        assert s == Subspace.from_vectors(p, n, [[x % p for x in v] for v in vectors])


@pytest.mark.parametrize("n,p", [(n, p) for p in (2, 3) for n in range(4)])
def test_complement_data_matches_elimination(n, p):
    for s in enumerate_subspaces(n, p):
        proj, lift = complement_data(s)
        assert_canonical(proj)
        assert_canonical(lift)
        assert (proj, lift) == reference_complement_data(s)
        assert proj @ lift == Mat.identity(p, n - s.dim)
        assert kernel_basis(proj) == s


@pytest.mark.parametrize("p", [2, 3, 5])
def test_zero_and_identity_are_canonical(p):
    for r in range(4):
        for c in range(4):
            assert_canonical(Mat.zero(p, r, c))
        assert_canonical(Mat.identity(p, r))
    with pytest.raises(ValueError):
        Mat.zero(4, 1, 1)
    with pytest.raises(ValueError):
        Mat.identity(6, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_matrix_kernel_unpack_is_canonical(p):
    # unknowns X (2 x 3) and Y (1 x 1) with A @ X - Y @ B = 0 for A 1 x 2, B 1 x 3
    rng = random.Random(200 + p)
    for _ in range(20):
        a, b = random_mat(rng, p, 1, 2), random_mat(rng, p, 1, 3)
        solutions, pack, unpack = matrix_kernel(p, {"x": (2, 3), "y": (1, 1)}, [
            [(1, a, "x", None), (-1, None, "y", b)],
        ])
        for v in itertools.islice(solutions.vectors(), 16):
            mats = unpack(v)
            for m in mats.values():
                assert_canonical(m)
            assert pack(mats) == v
            assert a @ mats["x"] == mats["y"] @ b
