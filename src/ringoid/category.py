"""Finite F_p-linear categories presented by structure constants.

A category here is a finite set of objects, a finite-dimensional hom space
A(a, b) over F_p for each ordered pair, a chosen basis of every hom space,
structure constants for composition, and coordinates for the identities.
Every hom space carries a fixed ordered basis and all equality of morphisms
is coordinate equality.

Composition follows the function convention: ``compose(g, f)`` is g after f.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import operator

from .linalg import Mat, Vec, check_prime, check_vector_cap, packed_idempotents, vector_cap, zero_vec


class Morphism:
    """A morphism src -> tgt, stored as coordinates in the basis of A(src, tgt)."""

    __slots__ = ("src", "tgt", "coords")

    def __init__(self, src: str, tgt: str, coords):
        self.src = src
        self.tgt = tgt
        self.coords = tuple(coords)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.src, self.tgt, self.coords))

    def __repr__(self):
        return f"Morphism({self.src}->{self.tgt}, {self.coords})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class FinCat:
    """A finite F_p-linear category given by structure constants.

    comp[(a, b, c)][i][j] holds the coordinates in A(a, c) of the composite
    (j-th basis element of A(b, c)) after (i-th basis element of A(a, b)).
    Pairs and triples with a zero-dimensional hom space may be omitted; every
    other triple needs its table, and a nonzero hom space needs nonzero
    endomorphism spaces at both ends.  p (a prime), dimensions and
    coordinates are ints (a bool counts as one).  Anything else raises
    ValueError.

    A FinCat is immutable once built, so every structure derived from it
    (module census, additive closure, center, ...) is built once and kept
    in the private memo `_derived`; see `derived`.
    """

    def __init__(self, p: int, objects, hom_dim, comp, id_coords, name: str = ""):
        if type(p) is not int:
            raise ValueError(f"modulus must be an integer, not {type(p).__name__}")
        check_prime(p)
        self.p = p
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        self.hom_dim = {}
        for a in self.objects:
            for b in self.objects:
                d = hom_dim.get((a, b), 0)
                if type(d) is not int or d < 0:
                    raise ValueError(f"hom dimension at {(a, b)} must be a non-negative integer")
                self.hom_dim[(a, b)] = d
        # A(a, a) = 0 makes id_a = 0 and so A(a, b) = A(b, a) = 0; with the
        # tables below required, every dimension is spelled out by entries
        for (a, b), d in self.hom_dim.items():
            if d and not (self.hom_dim[(a, a)] and self.hom_dim[(b, b)]):
                raise ValueError(f"A{(a, b)} is nonzero but an endomorphism space at an end is zero")
        tables = {}
        full = 0  # tables whose three spaces are nonzero
        for (a, b, c), table in comp.items():
            where = (a, b, c)
            try:
                da, db, dc = self.hom_dim[(a, b)], self.hom_dim[(b, c)], self.hom_dim[(a, c)]
            except KeyError:
                raise ValueError(f"composition table at {where} names an unknown object") from None
            # x % p leaves a float a float, and sum() refuses strings, so
            # an int total means int entries; only int tables reach the
            # sharing pass, since 1.0 == True == 1 would share across types
            try:
                table = tuple([tuple([tuple([x % p for x in vec]) for vec in row]) for row in table])
                exact = type(sum(map(sum, itertools.chain.from_iterable(table)))) is int
            except TypeError:
                exact = False
            if not exact:
                raise ValueError(f"composition table at {where} must hold integer vectors")
            if len(table) != da or any(len(row) != db for row in table):
                raise ValueError(f"composition table shape mismatch at {where}")
            if any(len(vec) != dc for row in table for vec in row):
                raise ValueError(f"composition coordinates length mismatch at {where}")
            tables[where] = table
            full += bool(da and db and dc)
        # those tables must cover every triple with three nonzero spaces
        hom, objs = self.hom_dim, self.objects
        after = {a: {b for b in objs if hom[(a, b)]} for a in objs}
        before = {c: {b for b in objs if hom[(b, c)]} for c in objs}
        if full != sum(len(after[a] & before[c]) for a in objs for c in objs if hom[(a, c)]):
            missing = next(
                (a, b, c) for a in objs for c in objs if hom[(a, c)]
                for b in after[a] & before[c] if (a, b, c) not in tables
            )
            raise ValueError(f"composition table missing at {missing}")
        ids = {}
        for a in self.objects:
            try:
                v = tuple([x % p for x in id_coords.get(a, ())])
                exact = type(sum(v)) is int
            except TypeError:
                exact = False
            if not exact:
                raise ValueError(f"identity coordinates at {a} must be integers")
            if len(v) != self.hom_dim[(a, a)]:
                raise ValueError(f"identity coordinates length mismatch at {a}")
            ids[a] = v
        self._share(tables, ids)
        self.name = name
        self._derived = {}

    @classmethod
    def _built(cls, p: int, objects, hom_dim, comp, id_coords, name: str) -> "FinCat":
        """Trusted constructor for tables ringoid assembled itself (induced
        categories, additive closures): p is a checked prime, hom_dim holds
        every pair in objects x objects order, comp holds a table of tuples
        of reduced int tuples for every triple with three nonzero spaces,
        and id_coords a reduced int tuple for every object.  Nothing is
        reduced, rebuilt or checked; equal tuples are still shared."""
        cat = object.__new__(cls)
        cat.p = p
        cat.objects = tuple(objects)
        cat.hom_dim = hom_dim
        cat._share(comp, {a: id_coords[a] for a in cat.objects})
        cat.name = name
        cat._derived = {}
        return cat

    def _share(self, comp, id_coords) -> None:
        """Store the tables and identities with equal vectors, rows and
        tables kept as one tuple each; every entry is a reduced int."""
        shared = {}
        self.comp = {}
        for where, table in comp.items():
            rows = [tuple([shared.setdefault(vec, vec) for vec in row]) for row in table]
            table = tuple([shared.setdefault(row, row) for row in rows])
            self.comp[where] = shared.setdefault(table, table)
        self.id_coords = {a: shared.setdefault(v, v) for a, v in id_coords.items()}

    def identity(self, a: str) -> Morphism:
        return Morphism(a, a, self.id_coords[a])

    def zero(self, a: str, b: str) -> Morphism:
        return Morphism(a, b, zero_vec(self.hom_dim[(a, b)]))

    def basis(self, a: str, b: str):
        d = self.hom_dim[(a, b)]
        out = []
        for i in range(d):
            v = [0] * d
            v[i] = 1
            out.append(Morphism(a, b, v))
        return out

    def elements(self, a: str, b: str):
        """All p^dim morphisms a -> b, lexicographic in coordinates."""
        d = self.hom_dim[(a, b)]
        for coords in itertools.product(range(self.p), repeat=d):
            yield Morphism(a, b, coords)

    def compose_basis(self, a: str, b: str, c: str, i: int, j: int) -> Vec:
        table = self.comp.get((a, b, c))
        if table is None:
            return zero_vec(self.hom_dim[(a, c)])
        return table[i][j]

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """g after f; bilinear extension of the structure constants."""
        if f.tgt != g.src:
            raise ValueError(f"cannot compose {g.src}->{g.tgt} after {f.src}->{f.tgt}")
        a, b, c = f.src, f.tgt, g.tgt
        p = self.p
        out = [0] * self.hom_dim[(a, c)]
        for i, fi in enumerate(f.coords):
            if fi == 0:
                continue
            for j, gj in enumerate(g.coords):
                if gj == 0:
                    continue
                vec = self.compose_basis(a, b, c, i, j)
                s = (fi * gj) % p
                for k, x in enumerate(vec):
                    if x:
                        out[k] = (out[k] + s * x) % p
        return Morphism(a, c, out)

    def add(self, f: Morphism, g: Morphism) -> Morphism:
        if (f.src, f.tgt) != (g.src, g.tgt):
            raise ValueError("cannot add morphisms with different endpoints")
        return Morphism(f.src, f.tgt, tuple((x + y) % self.p for x, y in zip(f.coords, g.coords)))

    def scale(self, c: int, f: Morphism) -> Morphism:
        return Morphism(f.src, f.tgt, tuple((c * x) % self.p for x in f.coords))

    def sub(self, f: Morphism, g: Morphism) -> Morphism:
        return self.add(f, self.scale(-1, g))

    def _composites(self, where, factors, first: bool) -> list:
        """Unreduced vectors of A(a, c), where = (a, b, c): for each r in
        factors and then each basis x of the other space, x after r for r in
        A(a, b) when first, else r after x for r in A(b, c).  The table is
        flattened along r's index (row i chains table[i][j] over j when
        first, column j chains it over i otherwise), and sum_i r_i row_i
        cuts into the composites."""
        a, b, c = where
        n, d = self.hom_dim[(b, c) if first else (a, b)], self.hom_dim[(a, c)]
        table = self.comp.get(where)
        if table is None or not d:
            return [(0,) * d] * (n * len(factors))
        flat = {}
        out = []
        for r in factors:
            acc = [0] * (n * d)
            for i, x in enumerate(r):
                if x:
                    if i not in flat:
                        vecs = table[i] if first else (row[i] for row in table)
                        flat[i] = list(itertools.chain.from_iterable(vecs))
                    acc = [u + x * v for u, v in zip(acc, flat[i])]
            out.extend(acc[k:k + d] for k in range(0, n * d, d))
        return out

    def precompose_matrix(self, r: Morphism, t: str) -> Mat:
        """Matrix of (- after r): A(r.tgt, t) -> A(r.src, t) in the chosen bases."""
        cols = self._composites((r.src, r.tgt, t), [r.coords], True)
        return Mat.from_cols(self.p, self.hom_dim[(r.src, t)], cols)

    def postcompose_matrix(self, r: Morphism, s: str) -> Mat:
        """Matrix of (r after -): A(s, r.src) -> A(s, r.tgt)."""
        cols = self._composites((s, r.src, r.tgt), [r.coords], False)
        return Mat.from_cols(self.p, self.hom_dim[(s, r.tgt)], cols)

    def sandwich_span(self, g: Morphism, a: str, b: str) -> list:
        """Vectors spanning {post . g . pre} in A(a, b), unreduced: the
        nonzero ones of post . g . pre over basis pre of A(a, g.src) and
        basis post of A(g.tgt, b)."""
        halves = [h for h in self._composites((a, g.src, g.tgt), [g.coords], False) if any(h)]
        return [v for v in self._composites((a, g.tgt, b), halves, True) if any(v)]

    def total_dim(self) -> int:
        return sum(self.hom_dim.values())

    def __repr__(self):
        label = self.name or f"{len(self.objects)} objects"
        return f"FinCat({label}, p={self.p}, total dim {self.total_dim()})"


def derived(cat: FinCat, key, build):
    """build(), kept in cat's memo for every later call with the same key,
    which shares it unmutated; nothing is kept when build raises.  The
    global vector cap is added to the key, so a lower cap still refuses after
    a cached success."""
    key = (key, vector_cap())
    if key not in cat._derived:
        cat._derived[key] = build()
    return cat._derived[key]


def validate(cat: FinCat) -> list:
    """Check associativity on all basis triples and both identity laws.

    Violations are report entries, not exceptions; an empty list means the
    structure constants present a genuine category.
    """
    report = []
    for a in cat.objects:
        for b in cat.objects:
            ida, idb = cat.identity(a), cat.identity(b)
            for f in cat.basis(a, b):
                if cat.compose(f, ida) != f:
                    report.append({"kind": "right-identity", "at": (a, b), "basis": f.coords})
                if cat.compose(idb, f) != f:
                    report.append({"kind": "left-identity", "at": (a, b), "basis": f.coords})
    return report + _associativity_failures(cat)


def _xor_all(values) -> int:
    """The sum of packed products at p = 2, in 1-bit slots."""
    acc = 0
    for v in values:
        acc ^= v
    return acc


def _associativity_failures(cat: FinCat) -> list:
    """Basis triples f_i: a -> b, g_j: b -> c, h_k: c -> d with
    h_k(g_j f_i) != (h_k g_j) f_i, in the order (a, b, c, d, i, j, k).

    Coordinate x of the left side is sum_m t_abc[i][j][m] t_acd[m][k][x],
    of the right side sum_m t_bcd[j][k][m] t_abd[i][m][x].  For fixed
    a, b, c both sides, over every d at once, are packed into one integer
    each (Kronecker substitution).  Row X = start(d) + x runs over the
    coordinates of A(a, d) for all d in turn, and slot (X, i, j, k) is bits
    [w s, w s + w) with s(X, i, j, k) = ((X n_ab + i) n_bc + j) K + k, K
    the largest dim A(c, -).  Then

        lhs = sum_m C[m] L[m]             C[m] packs t_abc[.][.][m] on (i, j),
                                          L[m] packs t_acd[m][.][.] on (X, k);
        rhs = sum_(d,m) T[d,m] S[d,m] << (w s(start(d), 0, 0, 0))
                                          T[d,m] packs t_abd[.][m][.] on (x, i),
                                          S[d,m] packs t_bcd[.][.][m] on (j, k);

    and the slots of each product are disjoint.  Coordinates enter as
    representatives in (-p/2, p/2].  At p = 2 products combine by XOR in
    1-bit slots.  At odd p they add, and w holds every slot sum: at most
    `bound`, the largest sum of |coordinates| of a composite times the
    largest |coordinate|.  So equal integers mean equal slots, and unequal
    ones are decoded and compared mod p.
    """
    p, objs, hom, comp = cat.p, cat.objects, cat.hom_dim, cat.comp
    half = p // 2
    if p == 2:
        w, combine, bound = 1, _xor_all, 0
    else:
        # a slot sums coordinates of one composite times coordinates of others
        vectors = {vec for table in comp.values() for row in table for vec in row}
        sizes = [[min(v, p - v) for v in vec] for vec in vectors]
        bound = max(map(sum, sizes), default=0) * max(map(max, filter(None, sizes)), default=0)
        w, combine = max(1, (2 * bound).bit_length()), sum
    width = {c: max(hom[c, d] for d in objs) for c in objs}
    # S packs depend on (b, c) alone and are kept throughout; L and T packs
    # are kept while a is fixed, and C packs serve one (a, b, c)
    s_packs = {}
    report = []
    for a in objs:
        starts = list(itertools.accumulate((hom[a, d] for d in objs), initial=0))
        rows = starts.pop()
        l_packs, t_packs = {}, {}
        for b in objs:
            n_ab = hom[a, b]
            if not n_ab:
                continue
            for c in objs:
                n_bc = hom[b, c]
                if not n_bc:
                    continue
                kc, n_ac = width[c], hom[a, c]
                cs = [0] * n_ac
                for i, row in enumerate(comp.get((a, b, c), ())):
                    for j, vec in enumerate(row):
                        shift = w * (i * n_bc + j) * kc
                        for m, v in enumerate(vec):
                            if v:
                                cs[m] += (v - p if v > half else v) << shift
                stride = n_ab * n_bc * kc
                ls = l_packs.get((c, stride))
                if ls is None:
                    ls = l_packs[c, stride] = [0] * n_ac
                    for start, d in zip(starts, objs):
                        for m, row in enumerate(comp.get((a, c, d), ())):
                            packed = 0
                            for k, vec in enumerate(row):
                                for x, v in enumerate(vec):
                                    if v:
                                        shift = w * ((start + x) * stride + k)
                                        packed += (v - p if v > half else v) << shift
                            ls[m] += packed
                stride = n_bc * kc
                ts = t_packs.get((b, stride))
                if ts is None:
                    ts = t_packs[b, stride] = ([], [])  # T[d, m] and their shifts
                    for start, d in zip(starts, objs):
                        n_bd = hom[b, d]
                        packed = [0] * n_bd
                        for i, row in enumerate(comp.get((a, b, d), ())):
                            for m, vec in enumerate(row):
                                for x, v in enumerate(vec):
                                    if v:
                                        shift = w * (x * n_ab + i) * stride
                                        packed[m] += (v - p if v > half else v) << shift
                        ts[0].extend(packed)
                        ts[1].extend([w * start * n_ab * stride] * n_bd)
                ss = s_packs.get((b, c))
                if ss is None:
                    ss = s_packs[b, c] = []
                    for d in objs:
                        packed = [0] * hom[b, d]
                        for j, row in enumerate(comp.get((b, c, d), ())):
                            for k, vec in enumerate(row):
                                shift = w * (j * kc + k)
                                for m, v in enumerate(vec):
                                    if v:
                                        packed[m] += (v - p if v > half else v) << shift
                        ss.extend(packed)
                lhs = combine(map(operator.mul, cs, ls))
                rhs = combine(map(operator.lshift, map(operator.mul, ts[0], ss), ts[1]))
                if lhs == rhs:
                    continue
                failures = set()
                for s in _unequal_slots(lhs, rhs, rows * n_ab * n_bc * kc, w, bound, p):
                    s, k = divmod(s, kc)
                    s, j = divmod(s, n_bc)
                    x_row, i = divmod(s, n_ab)
                    d = bisect.bisect_right(starts, x_row) - 1
                    failures.add((d, i, j, k))
                report.extend(
                    {"kind": "associativity", "objects": (a, b, c, objs[d]), "basis": (i, j, k)}
                    for d, i, j, k in sorted(failures)
                )
    return report


def _unequal_slots(lhs: int, rhs: int, n: int, w: int, bound: int, p: int) -> list:
    """The slots s < n, highest first, whose values differ mod p between two
    integers packed in w-bit slots, each slot value in [-bound, bound]."""
    # adding bound to every slot turns each one into a plain nonnegative
    # bit field; as binary text, slot s is the field starting at w (n-1-s)
    offset = bound * ((1 << w * n) - 1) // ((1 << w) - 1)
    lhs, rhs = lhs + offset, rhs + offset
    left, right, diff = (format(v, "b").zfill(w * n) for v in (lhs, rhs, lhs ^ rhs))
    out = []
    e = diff.find("1")
    while e >= 0:
        start = e - e % w
        if (int(left[start:start + w], 2) - int(right[start:start + w], 2)) % p:
            out.append(n - 1 - start // w)
        e = diff.find("1", start + w)
    return out


def transfer_category(base: FinCat, objects, carrier, decode, encode, units, name: str) -> FinCat:
    """The category induced on `objects` by coordinate maps into `base`.

    Object o sits over the base object carrier[o].  For every pair of
    objects, in objects x objects order, the columns of the matrix
    decode[(o1, o2)] are the base coordinates of a basis of the new hom
    space, and encode[(o1, o2)] takes base coordinates of a morphism in that
    space to coordinates in that basis, as a tuple of ints in [0, p), or
    returns None for a morphism outside it.  units[o] holds the base
    coordinates of the identity of o.  Composition is base composition of
    decoded basis elements, encoded again; a composite or identity that
    encodes to None raises RuntimeError.  The tables are complete and
    reduced by construction, so the category is built by `FinCat._built`.

    Objects over the same carriers share basis vectors, so each distinct
    pair of basis vectors is composed once, and each distinct composite is
    encoded once per target hom space.
    """
    bases = {
        (o1, o2): [Morphism(carrier[o1], carrier[o2], lift.col(i)) for i in range(lift.cols)]
        for (o1, o2), lift in decode.items()
    }
    hom = {pair: len(b) for pair, b in bases.items()}
    composites = {}  # (f.src, f.tgt, g.tgt, f.coords, g.coords) -> coords of g f
    encoded = {}  # (o1, o3) -> {base coords: coords in A(o1, o3)}
    comp = {}
    for o1 in objects:
        for o2 in objects:
            if hom[(o1, o2)] == 0:
                continue
            for o3 in objects:
                if hom[(o2, o3)] == 0 or hom[(o1, o3)] == 0:
                    continue
                enc = encode[(o1, o3)]
                seen = encoded.setdefault((o1, o3), {})
                table = []
                for f in bases[(o1, o2)]:
                    row = []
                    for g in bases[(o2, o3)]:
                        key = (f.src, f.tgt, g.tgt, f.coords, g.coords)
                        vec = composites.get(key)
                        if vec is None:
                            vec = composites[key] = base.compose(g, f).coords
                        coords = seen.get(vec)
                        if coords is None:
                            coords = enc(vec)
                            if coords is None:
                                raise RuntimeError(f"composite escaped the hom space at {(o1, o2, o3)}")
                            seen[vec] = coords
                        row.append(coords)
                    table.append(tuple(row))
                comp[(o1, o2, o3)] = tuple(table)
    del composites, encoded
    ids = {}
    for o in objects:
        ids[o] = encode[(o, o)](units[o])
        if ids[o] is None:
            raise RuntimeError(f"identity escaped the endomorphism space of {o}")
    return FinCat._built(base.p, objects, hom, comp, ids, name)


def from_ring_table(p: int, dim: int, mult_table, unit_coords, name: str = "") -> FinCat:
    """One-object category whose endomorphism ring has the given multiplication.

    mult_table[i][j] holds the coordinates of (basis_i * basis_j); composition
    g after f is the ring product g * f, so endomorphisms act on the left.
    """
    if len(mult_table) != dim or any(len(row) != dim for row in mult_table):
        raise ValueError("multiplication table shape mismatch")
    if any(len(vec) != dim for row in mult_table for vec in row):
        raise ValueError("multiplication coordinates length mismatch")
    if len(unit_coords) != dim:
        raise ValueError("unit coordinates length mismatch")
    obj = "x"
    comp_table = tuple(
        tuple(tuple(mult_table[j][i]) for j in range(dim)) for i in range(dim)
    )
    return FinCat(
        p,
        [obj],
        {(obj, obj): dim},
        {(obj, obj, obj): comp_table},
        {obj: tuple(unit_coords)},
        name=name,
    )


def opposite(cat: FinCat) -> FinCat:
    """Reverse all arrows; the structure constants transpose accordingly."""
    hom = {(a, b): cat.hom_dim[(b, a)] for a in cat.objects for b in cat.objects}
    comp = {}
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                da, db = hom[(a, b)], hom[(b, c)]
                if da == 0 or db == 0 or hom[(a, c)] == 0:
                    continue
                table = []
                for i in range(da):
                    row = []
                    for j in range(db):
                        # basis_i: b->a and basis_j: c->b in cat; the op-composite
                        # is basis_i after basis_j, landing in cat's A(c, a)
                        row.append(cat.compose_basis(c, b, a, j, i))
                    table.append(tuple(row))
                comp[(a, b, c)] = tuple(table)
    return FinCat(cat.p, cat.objects, hom, comp, dict(cat.id_coords),
                  name=f"op({cat.name})" if cat.name else "")


def matrix_units_table(n: int):
    """Multiplication table for the n x n matrix ring in the basis e_{rc}.

    Basis order: e_{00}, e_{01}, ..., row-major. e_{ab} e_{cd} = delta_{bc} e_{ad}.
    """
    dim = n * n
    idx = {(r, c): r * n + c for r in range(n) for c in range(n)}
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                table[i][j][idx[(a, d)]] = 1
    unit = [0] * dim
    for r in range(n):
        unit[idx[(r, r)]] = 1
    return table, unit


def _pt(p):
    return from_ring_table(p, 1, [[(1,)]], (1,), name=f"pt({p})")


def _dual(p):
    # F_p[x]/(x^2), basis 1, x
    table = [
        [(1, 0), (0, 1)],
        [(0, 1), (0, 0)],
    ]
    return from_ring_table(p, 2, table, (1, 0), name=f"dual({p})")


def _prod(p):
    # F_p x F_p, basis e1, e2
    table = [
        [(1, 0), (0, 0)],
        [(0, 0), (0, 1)],
    ]
    return from_ring_table(p, 2, table, (1, 1), name=f"prod({p})")


def _a2_ring(p):
    # upper triangular 2x2 matrices, basis e11, e22, e12
    table = [
        [(1, 0, 0), (0, 0, 0), (0, 0, 1)],
        [(0, 0, 0), (0, 1, 0), (0, 0, 0)],
        [(0, 0, 0), (0, 0, 1), (0, 0, 0)],
    ]
    return from_ring_table(p, 3, table, (1, 1, 0), name=f"a2({p})")


def _mat2(p):
    table, unit = matrix_units_table(2)
    return from_ring_table(p, 4, table, unit, name=f"mat2({p})")


def _a2cat(p):
    # two objects with a single arrow between them
    objs = ["1", "2"]
    hom = {("1", "1"): 1, ("2", "2"): 1, ("1", "2"): 1, ("2", "1"): 0}
    comp = {
        ("1", "1", "1"): (((1,),),),
        ("2", "2", "2"): (((1,),),),
        ("1", "1", "2"): (((1,),),),
        ("1", "2", "2"): (((1,),),),
    }
    ids = {"1": (1,), "2": (1,)}
    return FinCat(p, objs, hom, comp, ids, name=f"a2cat({p})")


_CATALOG = {
    "pt": _pt,
    "dual": _dual,
    "prod": _prod,
    "a2": _a2_ring,
    "mat2": _mat2,
    "a2cat": _a2cat,
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog(name: str, p: int | None = None) -> FinCat:
    """Look up a built-in category; accepts "dual(2)" or ("dual", p=2)."""
    base = name.strip()
    if "(" in base:
        if not base.endswith(")"):
            raise KeyError(f"malformed catalog name {name!r}")
        base, arg = base[:-1].split("(", 1)
        if p is not None and int(arg) != p:
            raise KeyError(f"conflicting primes in catalog lookup {name!r} vs p={p}")
        p = int(arg)
    if p is None:
        raise KeyError(f"catalog name {name!r} needs a prime, e.g. {base}(2)")
    maker = _CATALOG.get(base)
    if maker is None:
        raise KeyError(f"unknown catalog name {base!r}; known: {', '.join(CATALOG_NAMES)}")
    return maker(p)


def list_idempotents(cat: FinCat, obj: str | None = None) -> list:
    """All endomorphisms e with e.e = e, exhaustively per endo space, in
    `elements` order; each square is packed (`packed_idempotents`)."""
    objs = [obj] if obj is not None else list(cat.objects)
    out = []
    for a in objs:
        d = cat.hom_dim[(a, a)]
        check_vector_cap(cat.p ** d, f"list_idempotents: p^dim A({a},{a})")
        out.extend(Morphism(a, a, x) for x in packed_idempotents(cat.p, cat.comp.get((a, a, a), ())))
    return out


def cat_document(cat: FinCat) -> dict:
    """The interchange document of a category, before serialization."""
    return {
        "p": cat.p,
        "objects": list(cat.objects),
        "hom": {f"{a}|{b}": d for (a, b), d in sorted(cat.hom_dim.items()) if d > 0},
        # json writes the stored tuples as arrays, so no list copy of the
        # tables is made
        "comp": {f"{a}|{b}|{c}": table for (a, b, c), table in sorted(cat.comp.items())},
        "id": dict(sorted(cat.id_coords.items())),
    }


def cat_to_json(cat: FinCat) -> str:
    """Canonical interchange serialization: sorted keys, minimal separators."""
    return json.dumps(cat_document(cat), sort_keys=True, separators=(",", ":"))


def cat_from_json(text: str) -> FinCat:
    """The category of a document in the interchange format (see README).

    Raises ValueError, json.JSONDecodeError included, for text that is not
    such a document: a field that is not the documented container, or a p,
    dimension or coordinate that is not a JSON integer.
    """
    doc = json_document(text)
    if not isinstance(doc, dict):
        raise ValueError("a category document must be a JSON object")
    objects = doc.get("objects")
    if not isinstance(objects, list) or not all(isinstance(a, str) for a in objects):
        raise ValueError('"objects" must be a list of strings')
    hom = {json_key(k, 2): json_ints(d, 0, f"hom {k}") for k, d in json_object(doc, "hom").items()}
    comp = {json_key(k, 3): json_ints(t, 3, f"comp {k}") for k, t in json_object(doc, "comp").items()}
    ids = {a: json_ints(v, 1, f"id {a}") for a, v in json_object(doc, "id").items()}
    return FinCat(json_ints(doc.get("p"), 0, "p"), objects, hom, comp, ids)


def json_document(text: str):
    """json.loads(text), with nesting too deep to parse a ValueError too."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def json_object(doc: dict, field: str) -> dict:
    """doc[field], an object; an absent field reads as empty."""
    value = doc.get(field, {})
    if not isinstance(value, dict):
        raise ValueError(f'"{field}" must be a JSON object')
    return value


def json_key(key: str, parts: int) -> tuple:
    """An interchange key such as "a|b|c", split into its parts."""
    out = tuple(key.split("|"))
    if len(out) != parts:
        raise ValueError(f"key {key!r} must have {parts} parts separated by |")
    return out


def json_ints(value, depth: int, what: str):
    """value, an integer (depth 0) or arrays nested depth deep around
    integers, as nested tuples; JSON true and false are not integers."""
    if depth == 0:
        if type(value) is not int:
            raise ValueError(f"{what}: expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, list):
        raise ValueError(f"{what}: expected arrays nested {depth} deep")
    if depth == 1:
        if not all(type(x) is int for x in value):
            raise ValueError(f"{what}: expected integer entries")
        return tuple(value)
    return tuple(json_ints(v, depth - 1, what) for v in value)


def cat_hash(cat: FinCat) -> str:
    return hashlib.sha256(cat_to_json(cat).encode()).hexdigest()[:16]
