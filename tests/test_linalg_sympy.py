"""Differential test of the F_p kernel against sympy's DomainMatrix over GF(p).

sympy is not a dependency of ringoid; without it this module is skipped.
"""

import random

import pytest

from ringoid.linalg import Mat, Subspace, kernel_basis, rref_rows, subspace_intersect, subspace_sum

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PRIMES = [2, 3, 5, 7]


def dm(p, rows, ncols):
    k = sympy.GF(p)
    return DomainMatrix([[k(x) for x in row] for row in rows], (len(rows), ncols), k)


def ints(p, m):
    return [tuple(int(x) % p for x in row) for row in m.to_list()]


def sympy_rref(p, rows, ncols):
    r, pivots = dm(p, rows, ncols).rref()
    return ints(p, r), list(pivots)


def sympy_span(p, n, rows):
    """The nonzero rows of sympy's RREF of the stacked vectors."""
    r, pivots = sympy_rref(p, rows, n)
    return Subspace(p, n, Mat(p, len(pivots), n, r[: len(pivots)]))


def sympy_nullspace(p, rows, ncols):
    """Row vectors spanning {x : rows x = 0}."""
    if ncols == 0:
        return []
    if not rows:
        return [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]
    return ints(p, dm(p, rows, ncols).nullspace())


def random_rows(rng, nrows, ncols, spread):
    return [[rng.randint(-spread, spread) for _ in range(ncols)] for _ in range(nrows)]


def random_subspace(rng, p, n):
    rows = random_rows(rng, rng.randint(0, n + 1), n, p - 1)
    return Subspace.from_vectors(p, n, rows)


@pytest.mark.parametrize("p", PRIMES)
def test_rref_rows_on_unreduced_and_negative_input(p):
    rng = random.Random(p)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        rows = random_rows(rng, nrows, ncols, 3 * p)
        got, pivots = rref_rows(p, [list(r) for r in rows], ncols)
        assert ([tuple(r) for r in got], pivots) == sympy_rref(p, rows, ncols)


@pytest.mark.parametrize("p", PRIMES)
def test_kernel_basis(p):
    rng = random.Random(10 + p)
    for _ in range(60):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        rows = random_rows(rng, nrows, ncols, p - 1)
        got = kernel_basis(Mat(p, nrows, ncols, rows))
        assert got == sympy_span(p, ncols, sympy_nullspace(p, rows, ncols))


@pytest.mark.parametrize("p", PRIMES)
def test_subspace_intersect(p):
    # U cap V is the annihilator of U^perp + V^perp, with perp taken by sympy
    rng = random.Random(20 + p)
    for _ in range(60):
        n = rng.randint(1, 5)
        u, v = random_subspace(rng, p, n), random_subspace(rng, p, n)
        ann = sympy_nullspace(p, list(u.basis_vectors()), n) + sympy_nullspace(p, list(v.basis_vectors()), n)
        assert subspace_intersect(u, v) == sympy_span(p, n, sympy_nullspace(p, ann, n))


@pytest.mark.parametrize("p", PRIMES)
def test_subspace_sum(p):
    rng = random.Random(30 + p)
    for _ in range(60):
        n = rng.randint(1, 5)
        u, v = random_subspace(rng, p, n), random_subspace(rng, p, n)
        want = sympy_span(p, n, list(u.basis_vectors()) + list(v.basis_vectors()))
        assert subspace_sum(u, v) == want
        assert subspace_sum(v, u) == want


@pytest.mark.parametrize("p", PRIMES)
def test_subspace_sum_short_circuits(p):
    rng = random.Random(40 + p)
    n = 4
    zero, full = Subspace.zero(p, n), Subspace.full(p, n)
    for _ in range(20):
        u = random_subspace(rng, p, n)
        for a, b in ((u, zero), (zero, u), (u, full), (full, u)):
            # v = 0 or a full u gives u itself; otherwise u = 0 or a full v gives v
            assert subspace_sum(a, b) is (a if b.dim == 0 or a.dim == n else b)
            assert subspace_sum(a, b) == sympy_span(p, n, list(a.basis_vectors()) + list(b.basis_vectors()))


@pytest.mark.parametrize("p", PRIMES)
def test_coords(p):
    rng = random.Random(50 + p)
    for _ in range(60):
        n = rng.randint(1, 5)
        s = random_subspace(rng, p, n)
        v = tuple(rng.randint(-p, p) for _ in range(n))
        # rref of [B^T | v]: v is in S iff the last column has no pivot, and
        # then the top dim S rows of that column are v's coordinates
        aug = [list(col) + [x] for col, x in zip(zip(*s.basis_vectors()) if s.dim else [()] * n, v)]
        r, pivots = sympy_rref(p, aug, s.dim + 1)
        want = None if s.dim in pivots else tuple(row[s.dim] for row in r[: s.dim])
        assert s.coords(v) == want
        if s.dim:
            coeffs = [rng.randrange(p) for _ in range(s.dim)]
            w = tuple(sum(c * row[j] for c, row in zip(coeffs, s.basis_vectors())) for j in range(n))
            assert s.coords(w) == tuple(coeffs)
