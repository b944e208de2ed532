"""Exact dense linear algebra over a prime field F_p.

Everything downstream (hom spaces, module actions, ideals, topologies) is a
subspace computation over F_p, so this module is deliberately small and
boring: immutable matrices, reduced row echelon form, kernels, images,
solving, and a canonical `Subspace` whose equality is bit-exact.  No floats,
no numpy; entries are plain ints in [0, p).
"""

from __future__ import annotations

import itertools
import os

DEFAULT_VECTOR_CAP = 4096
_ENV_CAP = "RINGOID_CAP_VECTORS"


class CapExceeded(RuntimeError):
    """A scan or construction refused before it started: `operation` names
    what it counted, `needed` the count and `cap` the limit it passed."""

    def __init__(self, message: str, operation: str, needed: int, limit: int):
        super().__init__(message)
        self.operation = operation
        self.needed = needed
        self.cap = limit


class DimensionMismatch(ValueError):
    pass


def vector_cap() -> int:
    """Global cap on exhaustive vector scans, overridable via RINGOID_CAP_VECTORS.

    Raises ValueError when the override is not a non-negative integer.
    """
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_VECTOR_CAP
    if not raw.strip().isdecimal():
        raise ValueError(f"{_ENV_CAP} must be a non-negative integer, got {raw!r}")
    return int(raw)


def check_vector_cap(count: int, what: str) -> None:
    """Refuse a scan of `count` items before it starts; the one place that
    raises for the vector cap.  `what` names the operation and the quantity
    counted, e.g. "center_idempotents: p^dim Z"."""
    cap = vector_cap()
    if count > cap:
        raise CapExceeded(f"{what} = {count} exceeds cap {cap} (raise {_ENV_CAP} to override)",
                          what, count, cap)


_KNOWN_PRIMES = set()

# trial division stays a few milliseconds below this bound
MAX_MODULUS = 2 ** 31


def check_prime(p: int) -> None:
    if p in _KNOWN_PRIMES:
        return
    if p < 2:
        raise ValueError(f"modulus {p} is not prime")
    if p > MAX_MODULUS:
        raise ValueError(f"modulus {p} is above the largest supported {MAX_MODULUS}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime")
        d += 1
    _KNOWN_PRIMES.add(p)


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, p - 2, p)


Vec = tuple  # tuple[int, ...]


def zero_vec(n: int) -> Vec:
    return (0,) * n


def is_line_first(v: Vec) -> bool:
    """v is zero or its first nonzero entry is 1: the first vector of its
    line, which `itertools.product(range(p), repeat=n)` reaches before every
    other nonzero multiple of it."""
    for x in v:
        if x:
            return x == 1
    return True


class Mat:
    """An immutable rows x cols matrix over F_p.

    Linear maps use the column convention: a map V -> W is a (dim W x dim V)
    matrix applied to column vectors, and mat(g . f) = mat(g) @ mat(f).
    """

    __slots__ = ("p", "rows", "cols", "entries", "_hash", "_rank")

    def __init__(self, p: int, rows: int, cols: int, entries):
        check_prime(p)
        self.p = p
        self.rows = rows
        self.cols = cols
        ent = tuple(tuple(x % p for x in row) for row in entries)
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise DimensionMismatch(f"expected {rows}x{cols} entries")
        self.entries = ent
        self._hash = None
        self._rank = None

    @classmethod
    def _new(cls, p: int, rows: int, cols: int, entries) -> "Mat":
        """Trusted constructor for results linalg itself produced: `entries` is
        already a tuple of `rows` tuples of `cols` ints in [0, p), and p is a
        checked prime, so nothing is reduced, rebuilt or checked."""
        m = object.__new__(cls)
        m.p = p
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._hash = None
        m._rank = None
        return m

    @classmethod
    def from_rows(cls, p: int, rows) -> "Mat":
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(p, len(rows), ncols, rows)

    @classmethod
    def from_cols(cls, p: int, nrows: int, cols) -> "Mat":
        """The nrows x len(cols) matrix whose columns are the given vectors."""
        cols = tuple(cols)
        return cls(p, nrows, len(cols), tuple(zip(*cols)) if cols else ((),) * nrows)

    @classmethod
    def from_blocks(cls, p: int, row_sizes, col_sizes, blocks) -> "Mat":
        """The block matrix with blocks[(i, j)] in block row i and block column j.

        Block (i, j) is row_sizes[i] x col_sizes[j]; absent blocks are zero.
        The blocks are matrices over F_p, so their entries are already
        reduced and the result is built without another pass.
        """
        check_prime(p)
        nrows, ncols = sum(row_sizes), sum(col_sizes)
        rows = [[0] * ncols for _ in range(nrows)]
        for (i, j), blk in blocks.items():
            if not (0 <= i < len(row_sizes) and 0 <= j < len(col_sizes)
                    and (blk.rows, blk.cols) == (row_sizes[i], col_sizes[j])):
                raise DimensionMismatch(f"a {blk.rows}x{blk.cols} block does not fit at ({i}, {j})")
            if blk.p != p:
                raise DimensionMismatch(f"a block over F_{blk.p} in a matrix over F_{p}")
            c0 = sum(col_sizes[:j])
            for r, row in enumerate(blk.entries, sum(row_sizes[:i])):
                rows[r][c0:c0 + blk.cols] = row
        return cls._new(p, nrows, ncols, tuple(map(tuple, rows)))

    @classmethod
    def zero(cls, p: int, rows: int, cols: int) -> "Mat":
        check_prime(p)
        return cls._new(p, rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, p: int, n: int) -> "Mat":
        check_prime(p)
        return cls._new(p, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.p == other.p
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.rows, self.cols, self.entries))
        return self._hash

    def __repr__(self):
        return f"Mat(p={self.p}, {self.rows}x{self.cols}, {list(map(list, self.entries))})"

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows or self.p != other.p:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.p
        a, b = self.entries, other.entries
        out = []
        for i in range(self.rows):
            ai = a[i]
            row = []
            for j in range(other.cols):
                s = 0
                for k in range(self.cols):
                    s += ai[k] * b[k][j]
                row.append(s % p)
            out.append(tuple(row))
        return Mat._new(p, self.rows, other.cols, tuple(out))

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        p = self.p
        return Mat._new(p, self.rows, self.cols,
                        tuple(tuple((x + y) % p for x, y in zip(r, s))
                              for r, s in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Mat":
        p = self.p
        c %= p
        return Mat._new(p, self.rows, self.cols,
                        tuple(tuple((c * x) % p for x in r) for r in self.entries))

    def transpose(self) -> "Mat":
        return Mat._new(self.p, self.cols, self.rows,
                        tuple(zip(*self.entries)) if self.rows else ((),) * self.cols)

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != cols {self.cols}")
        p = self.p
        return tuple(sum(r[k] * v[k] for k in range(self.cols)) % p for r in self.entries)

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def rank(self) -> int:
        if self._rank is None:
            _, pivots = rref_rows(self.p, [list(r) for r in self.entries], self.cols)
            self._rank = len(pivots)
        return self._rank


def _rref_rows_f2(rows, ncols: int):
    """Gauss-Jordan over F_2 on bit-packed rows (bit j = column j)."""
    packed = []
    for row in rows:
        x = 0
        for j, v in enumerate(row):
            if v & 1:
                x |= 1 << j
        packed.append(x)
    nrows = len(packed)
    pivots = []
    r = 0
    for c in range(ncols):
        bit = 1 << c
        pr = None
        for i in range(r, nrows):
            if packed[i] & bit:
                pr = i
                break
        if pr is None:
            continue
        packed[r], packed[pr] = packed[pr], packed[r]
        prow = packed[r]
        for i in range(nrows):
            if i != r and packed[i] & bit:
                packed[i] ^= prow
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[(x >> j) & 1 for j in range(ncols)] for x in packed[:r]]
    out.extend([0] * ncols for _ in range(nrows - r))
    return out, pivots


def rref_rows(p: int, rows, ncols: int):
    """In-place Gauss-Jordan on a list of row lists; returns (rows, pivot cols).

    The result is the unique reduced row echelon form: pivot entries 1, zeros
    above and below each pivot, zero rows sunk to the bottom, every entry an
    int in [0, p).  The input may hold any ints, negative ones included.
    """
    if p == 2:
        return _rref_rows_f2(rows, ncols)
    nrows = len(rows)
    for i in range(nrows):
        rows[i] = [x % p for x in rows[i]]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        if prow[c] != 1:
            inv = inv_mod(prow[c], p)
            prow = rows[r] = [(x * inv) % p for x in prow]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


class Subspace:
    """A subspace of F_p^n in canonical form: an RREF basis with no zero rows.

    Two subspaces of the same ambient space are equal iff their canonical
    bases are identical, so Subspace is hashable and usable in sets.
    """

    __slots__ = ("p", "ambient", "mat")

    def __init__(self, p: int, ambient: int, mat: Mat):
        self.p = p
        self.ambient = ambient
        self.mat = mat  # dim x ambient, RREF, no zero rows

    @classmethod
    def from_vectors(cls, p: int, ambient: int, vectors) -> "Subspace":
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise DimensionMismatch(f"vector length {len(v)} != ambient {ambient}")
        check_prime(p)
        rows, pivots = rref_rows(p, rows, ambient)
        basis = tuple(map(tuple, rows[: len(pivots)]))
        return cls(p, ambient, Mat._new(p, len(basis), ambient, basis))

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, Mat(p, 0, ambient, ()))

    @classmethod
    def full(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, Mat.identity(p, ambient))

    @property
    def dim(self) -> int:
        return self.mat.rows

    def basis_vectors(self):
        return self.mat.entries

    def basis_matrix(self) -> Mat:
        """The ambient x dim matrix whose columns are the RREF basis."""
        return Mat.from_cols(self.p, self.ambient, self.mat.entries)

    def _eliminate(self, v: Vec):
        """(v minus its pivot entries times the basis rows, those entries)."""
        if len(v) != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        p = self.p
        v = [x % p for x in v]
        coeffs = []
        for row in self.mat.entries:
            c = next(j for j, x in enumerate(row) if x != 0)
            f = v[c]
            coeffs.append(f)
            if f != 0:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return v, tuple(coeffs)

    def reduce(self, v: Vec) -> Vec:
        """Canonical representative of v modulo this subspace."""
        return tuple(self._eliminate(v)[0])

    def coords(self, v: Vec):
        """Coordinates of v in the RREF basis, or None if v is not in the subspace.

        Every basis row is zero at the other rows' pivots, so the coordinates
        are the pivot entries of v.
        """
        rest, coeffs = self._eliminate(v)
        return None if any(rest) else coeffs

    def coords_matrix(self, vectors):
        """The dim x len(vectors) matrix whose columns are the coordinates of
        the vectors in the RREF basis, or None if one lies outside."""
        cols = []
        for v in vectors:
            c = self.coords(v)
            if c is None:
                return None
            cols.append(c)
        return Mat.from_cols(self.p, self.dim, cols)

    def contains(self, v: Vec) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        return all(self.contains(v) for v in other.basis_vectors())

    def key(self):
        return (self.ambient, self.mat.entries)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self.mat.entries == other.mat.entries
        )

    def __hash__(self):
        return hash((self.p, self.ambient, self.mat.entries))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F_{self.p}^{self.ambient})"

    def vectors(self):
        """Iterate every vector of the subspace, deterministically."""
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            v = [0] * self.ambient
            for c, row in zip(coeffs, self.mat.entries):
                if c:
                    v = [(x + c * y) % self.p for x, y in zip(v, row)]
            yield tuple(v)

    def quotient_points(self):
        """One canonical vector for each point (line) of F_p^n / self: the
        nonzero vectors that vanish at the pivot columns and whose first
        nonzero entry is 1.  Every vector outside self reduces to a nonzero
        multiple of exactly one of them."""
        pivots = {row.index(1) for row in self.mat.entries}
        free = [j for j in range(self.ambient) if j not in pivots]
        for k, lead in enumerate(free):
            for tail in itertools.product(range(self.p), repeat=len(free) - k - 1):
                v = [0] * self.ambient
                v[lead] = 1
                for j, c in zip(free[k + 1:], tail):
                    v[j] = c
                yield tuple(v)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    if u.ambient != v.ambient or u.p != v.p:
        raise DimensionMismatch("ambient mismatch in sum")
    if v.dim == 0 or u.dim == u.ambient:
        return u
    if u.dim == 0 or v.dim == v.ambient:
        return v
    return Subspace.from_vectors(u.p, u.ambient, u.basis_vectors() + v.basis_vectors())


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: rref of [[U,U],[V,0]]; rows with zero left half carry the meet."""
    if u.ambient != v.ambient or u.p != v.p:
        raise DimensionMismatch("ambient mismatch in intersect")
    n = u.ambient
    rows = [list(r) + list(r) for r in u.basis_vectors()]
    rows += [list(r) + [0] * n for r in v.basis_vectors()]
    rows, pivots = rref_rows(u.p, rows, 2 * n)
    inter = []
    for row in rows[: len(pivots)]:
        if all(x == 0 for x in row[:n]):
            inter.append(row[n:])
    return Subspace.from_vectors(u.p, n, inter)


class SubspaceFamily:
    """One canonical Subspace per key of `ambient` (key -> dimension), in
    that dict's order; a missing key is the zero subspace.  The base of
    `modules.Submodule` (keys the objects) and `ideals.Ideal` (keys the
    pairs, objects x objects): their lattice operations, written once."""

    def __init__(self, p: int, ambient: dict, spaces):
        self.spaces = {}
        for k, n in ambient.items():
            s = spaces.get(k)
            if s is None:
                s = Subspace.zero(p, n)
            elif s.ambient != n:
                raise ValueError(f"ambient mismatch at {k}")
            self.spaces[k] = s

    def _with(self, spaces) -> "SubspaceFamily":
        """A family of this type and owner with the given spaces, which hold
        every key at its ambient, so the constructor's checks are skipped."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, spaces=spaces)
        return new

    def key(self):
        return tuple(s.key() for s in self.spaces.values())

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def total_dim(self) -> int:
        return sum(s.dim for s in self.spaces.values())

    def contains(self, other: "SubspaceFamily") -> bool:
        return all(s.contains_subspace(other.spaces[k]) for k, s in self.spaces.items())

    def sum(self, other: "SubspaceFamily") -> "SubspaceFamily":
        return self._with({k: subspace_sum(s, other.spaces[k]) for k, s in self.spaces.items()})

    def intersect(self, other: "SubspaceFamily") -> "SubspaceFamily":
        return self._with({k: subspace_intersect(s, other.spaces[k]) for k, s in self.spaces.items()})

    def is_full(self) -> bool:
        return all(s.dim == s.ambient for s in self.spaces.values())

    def is_zero(self) -> bool:
        return all(s.dim == 0 for s in self.spaces.values())


def kernel_basis(m: Mat) -> Subspace:
    """The right kernel {v : m v = 0}, a subspace of F_p^cols."""
    return _rows_kernel(m.p, [list(r) for r in m.entries], m.cols)


def _rows_kernel(p: int, rows, ncols: int) -> Subspace:
    """The kernel of a list of row lists (ints, any sign) in ncols
    unknowns, reduced in place: one vector per free column of the RREF."""
    rows, pivots = rref_rows(p, rows, ncols)
    rows = rows[: len(pivots)]
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(rows, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return Subspace.from_vectors(p, ncols, basis)


def _matrix_rows(p: int, shapes: dict, equations):
    """(offs, total, rows) of the system that `matrix_kernel` solves: offs[key]
    is where X[key] starts in the flat space of `total` unknowns, and rows
    are the nonzero rows of the flat equations."""
    offs = {}
    total = 0
    for key, (r, c) in shapes.items():
        offs[key] = total
        total += r * c
    rows = []
    for terms in equations:
        # block[r * nc + c] is the row of entry (r, c) of the nr x nc equation
        block = None
        for coef, left, key, right in terms:
            kr, kc = shapes[key]
            if (left is not None and left.cols != kr) or (right is not None and right.rows != kc):
                raise DimensionMismatch(f"a factor of {key} does not fit its {kr}x{kc} unknown")
            nr = kr if left is None else left.rows
            nc = kc if right is None else right.cols
            if block is None:
                shape = (nr, nc)
                block = [[0] * total for _ in range(nr * nc)]
            elif (nr, nc) != shape:
                raise DimensionMismatch(f"term of {key} does not fit the equation's {shape[0]}x{shape[1]}")
            # the nonzero entries (r, u, L[r][u]) and (v, c, R[v][c])
            if left is None:
                lnz = [(u, u, 1) for u in range(kr)]
            else:
                lnz = [(r, u, x) for r, row in enumerate(left.entries) for u, x in enumerate(row) if x]
            if right is None:
                rnz = [(v, v, 1) for v in range(kc)]
            else:
                rnz = [(v, c, y) for v, row in enumerate(right.entries) for c, y in enumerate(row) if y]
            off = offs[key]
            for r, u, x in lnz:
                base = off + u * kc
                cx = coef * x
                for v, c, y in rnz:
                    row = block[r * nc + c]
                    row[base + v] = (row[base + v] + cx * y) % p
        if block:
            rows.extend(row for row in block if any(row))
    return offs, total, rows


def matrix_kernel(p: int, shapes: dict, equations):
    """Solve a homogeneous linear system whose unknowns are matrices.

    shapes maps each unknown X[key] to its (rows, cols).  Each equation is a
    list of terms (c, L, key, R) and states sum c * L @ X[key] @ R = 0, where
    None stands for an identity factor.  The unknowns are flattened in the
    order of `shapes`, each row-major, and only here.

    Returns (solutions, pack, unpack): the solution Subspace of the flat
    space, pack({key: Mat}) -> flat vector, and unpack(flat vector) ->
    {key: Mat}.
    """
    offs, total, rows = _matrix_rows(p, shapes, equations)
    solutions = _rows_kernel(p, rows, total)

    def pack(mats) -> Vec:
        flat = []
        for key, shape in shapes.items():
            m = mats[key]
            if (m.rows, m.cols) != shape:
                raise DimensionMismatch(f"{key} is {m.rows}x{m.cols}, expected {shape[0]}x{shape[1]}")
            for row in m.entries:
                flat.extend(row)
        return tuple(flat)

    def unpack(vec) -> dict:
        """vec is a vector of the solution space: a tuple of ints in [0, p)."""
        return {
            key: Mat._new(p, r, c, tuple(vec[offs[key] + i * c: offs[key] + i * c + c] for i in range(r)))
            for key, (r, c) in shapes.items()
        }

    return solutions, pack, unpack


def matrix_kernel_dim(p: int, shapes: dict, equations) -> int:
    """The dimension of the solution space of `matrix_kernel(p, shapes,
    equations)`: the number of unknowns minus the rank, from one RREF."""
    _, total, rows = _matrix_rows(p, shapes, equations)
    _, pivots = rref_rows(p, rows, total)
    return total - len(pivots)


def packed_idempotents(p: int, table) -> list:
    """Every coordinate tuple x with sum_i x_i sum_j x_j T[i][j] = x, in
    `itertools.product` order, where table[i][j] = T[i][j] is the product of
    basis elements i and j in a d-dimensional algebra over F_p.

    Each T[i][j] is packed into one int with w-bit slots (Kronecker
    substitution), so a square costs d^2 integer multiply-adds.  Slot k of
    the square sums d^2 terms x_i x_j T[i][j][k], each at most (p - 1)^3, so
    w = bit_length(d^2 (p - 1)^3) holds it with no carry into slot k + 1.
    """
    d = len(table)
    w = (d * d * (p - 1) ** 3).bit_length()
    mask = (1 << w) - 1
    packs = [[sum((v % p) << (w * k) for k, v in enumerate(vec)) for vec in row] for row in table]
    out = []
    for x in itertools.product(range(p), repeat=d):
        acc = 0
        for xi, row in zip(x, packs):
            if xi:
                inner = 0
                for xj, t in zip(x, row):
                    if xj:
                        inner += xj * t
                acc += xi * inner
        if all(((acc >> (w * k)) & mask) % p == xk for k, xk in enumerate(x)):
            out.append(x)
    return out


def image_basis(m: Mat) -> Subspace:
    """The column space of m, a subspace of F_p^rows."""
    return Subspace.from_vectors(m.p, m.rows, m.transpose().entries)


def solve(m: Mat, v: Vec):
    """Any solution x of m x = v, or None if the system is inconsistent."""
    if len(v) != m.rows:
        raise DimensionMismatch(f"rhs length {len(v)} != rows {m.rows}")
    aug = [list(r) + [v[i] % m.p] for i, r in enumerate(m.entries)]
    rows, pivots = rref_rows(m.p, aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for row, c in zip(rows, pivots):
        x[c] = row[m.cols]
    return tuple(x)


def complement_data(s: Subspace):
    """(proj, lift) for the quotient F^n / S in the non-pivot coordinates.

    proj is (n - dim S) x n with kernel exactly S; lift is n x (n - dim S)
    picking the non-pivot standard vectors, and proj @ lift = identity.

    Both are read off the RREF basis: proj sends a non-pivot e_j to its own
    unit vector and the pivot e_c of basis row k to -row_k on the non-pivots,
    which is what reducing e_c modulo S leaves.
    """
    n, p = s.ambient, s.p
    basis = s.mat.entries
    pivots = [row.index(1) for row in basis]
    nonpiv = [j for j in range(n) if j not in pivots]
    proj_rows = []
    for j in nonpiv:
        r = [0] * n
        r[j] = 1
        for row, c in zip(basis, pivots):
            r[c] = -row[j] % p
        proj_rows.append(tuple(r))
    proj = Mat._new(p, len(nonpiv), n, tuple(proj_rows))
    lift = Mat._new(p, n, len(nonpiv), tuple(tuple(int(i == j) for j in nonpiv) for i in range(n)))
    return proj, lift


def preimage(m: Mat, s: Subspace) -> Subspace:
    """{x : m x in S} for S a subspace of F_p^rows; a subspace of F_p^cols."""
    if s.ambient != m.rows:
        raise DimensionMismatch("subspace ambient must match matrix rows")
    proj, _ = complement_data(s)
    return kernel_basis(proj @ m)
