"""Finite F_p-linear categories presented by structure constants.

A category here is a finite set of objects, a finite-dimensional hom space
A(a, b) over F_p for each ordered pair, a chosen basis of every hom space,
structure constants for composition, and coordinates for the identities.
Every hom space carries a fixed ordered basis and all equality of morphisms
is coordinate equality.

Composition follows the function convention: ``compose(g, f)`` is g after f.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from .linalg import Mat, Vec, check_prime, check_vector_cap, vector_cap, zero_vec


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
    Pairs and triples with a zero-dimensional hom space may be omitted.

    A FinCat is immutable once built, so every structure derived from it
    (module census, additive closure, center, ...) is built once and kept
    in the private memo `_derived`; see `derived`.
    """

    def __init__(self, p: int, objects, hom_dim, comp, id_coords, name: str = ""):
        check_prime(p)
        self.p = p
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        self.hom_dim = {}
        for a in self.objects:
            for b in self.objects:
                d = hom_dim.get((a, b), 0)
                if d < 0:
                    raise ValueError("negative hom dimension")
                self.hom_dim[(a, b)] = d
        self.comp = {}
        for (a, b, c), table in comp.items():
            da, db = self.hom_dim[(a, b)], self.hom_dim[(b, c)]
            dc = self.hom_dim[(a, c)]
            table = tuple(tuple(tuple(x % p for x in vec) for vec in row) for row in table)
            if len(table) != da or any(len(row) != db for row in table):
                raise ValueError(f"composition table shape mismatch at {(a, b, c)}")
            if any(len(vec) != dc for row in table for vec in row):
                raise ValueError(f"composition coordinates length mismatch at {(a, b, c)}")
            self.comp[(a, b, c)] = table
        self.id_coords = {}
        for a in self.objects:
            v = tuple(x % p for x in id_coords.get(a, ()))
            if len(v) != self.hom_dim[(a, a)]:
                raise ValueError(f"identity coordinates length mismatch at {a}")
            self.id_coords[a] = v
        self.name = name
        self._derived = {}

    def hom(self, a: str, b: str) -> int:
        return self.hom_dim[(a, b)]

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

    def precompose_matrix(self, r: Morphism, t: str) -> Mat:
        """Matrix of (- after r): A(r.tgt, t) -> A(r.src, t) in the chosen bases."""
        cols = [self.compose(x, r).coords for x in self.basis(r.tgt, t)]
        return Mat.from_cols(self.p, self.hom_dim[(r.src, t)], cols)

    def postcompose_matrix(self, r: Morphism, s: str) -> Mat:
        """Matrix of (r after -): A(s, r.src) -> A(s, r.tgt)."""
        cols = [self.compose(r, x).coords for x in self.basis(s, r.src)]
        return Mat.from_cols(self.p, self.hom_dim[(s, r.tgt)], cols)

    def total_dim(self) -> int:
        return sum(self.hom_dim.values())

    def __repr__(self):
        label = self.name or f"{len(self.objects)} objects"
        return f"FinCat({label}, p={self.p}, total dim {self.total_dim()})"


def derived(cat: FinCat, key, build):
    """build(), kept in cat's memo for every later call with the same key,
    which shares it unmutated; nothing is kept when build raises.  The key
    holds the arguments with their caps resolved, and the global vector cap
    is added, so a lower cap still refuses after a cached success."""
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
    # associativity on raw structure constants: for basis f: a->b, g: b->c,
    # h: c->d, expand h.(g.f) and (h.g).f through the tables and compare
    p = cat.p
    for a in cat.objects:
        for b in cat.objects:
            d_ab = cat.hom_dim[(a, b)]
            if d_ab == 0:
                continue
            for c in cat.objects:
                d_bc = cat.hom_dim[(b, c)]
                if d_bc == 0:
                    continue
                t_abc = cat.comp.get((a, b, c))
                for d in cat.objects:
                    d_cd = cat.hom_dim[(c, d)]
                    if d_cd == 0:
                        continue
                    d_ad = cat.hom_dim[(a, d)]
                    t_acd = cat.comp.get((a, c, d))
                    t_bcd = cat.comp.get((b, c, d))
                    t_abd = cat.comp.get((a, b, d))
                    for i in range(d_ab):
                        for j in range(d_bc):
                            gf = t_abc[i][j] if t_abc else None
                            for k in range(d_cd):
                                lhs = [0] * d_ad
                                if gf is not None and t_acd:
                                    for m, cf in enumerate(gf):
                                        if cf:
                                            vec = t_acd[m][k]
                                            for x, y in enumerate(vec):
                                                if y:
                                                    lhs[x] = (lhs[x] + cf * y) % p
                                rhs = [0] * d_ad
                                hg = t_bcd[j][k] if t_bcd else None
                                if hg is not None and t_abd:
                                    for m, cf in enumerate(hg):
                                        if cf:
                                            vec = t_abd[i][m]
                                            for x, y in enumerate(vec):
                                                if y:
                                                    rhs[x] = (rhs[x] + cf * y) % p
                                if lhs != rhs:
                                    report.append(
                                        {
                                            "kind": "associativity",
                                            "objects": (a, b, c, d),
                                            "basis": (i, j, k),
                                        }
                                    )
    return report


def transfer_category(base: FinCat, objects, carrier, decode, encode, units, name: str) -> FinCat:
    """The category induced on `objects` by coordinate maps into `base`.

    Object o sits over the base object carrier[o].  For every pair of
    objects, the columns of the matrix decode[(o1, o2)] are the base
    coordinates of a basis of the new hom space, and encode[(o1, o2)] takes
    base coordinates of a morphism in that space to coordinates in that
    basis, or returns None for a morphism outside it.  units[o] holds the
    base coordinates of the identity of o.  Composition is base composition
    of decoded basis elements, encoded again; a composite or identity that
    encodes to None raises RuntimeError.
    """
    bases = {
        (o1, o2): [Morphism(carrier[o1], carrier[o2], lift.col(i)) for i in range(lift.cols)]
        for (o1, o2), lift in decode.items()
    }
    hom = {pair: len(b) for pair, b in bases.items()}
    comp = {}
    for o1 in objects:
        for o2 in objects:
            if hom[(o1, o2)] == 0:
                continue
            for o3 in objects:
                if hom[(o2, o3)] == 0 or hom[(o1, o3)] == 0:
                    continue
                enc = encode[(o1, o3)]
                table = []
                for f in bases[(o1, o2)]:
                    row = []
                    for g in bases[(o2, o3)]:
                        coords = enc(base.compose(g, f).coords)
                        if coords is None:
                            raise RuntimeError(f"composite escaped the hom space at {(o1, o2, o3)}")
                        row.append(coords)
                    table.append(tuple(row))
                comp[(o1, o2, o3)] = tuple(table)
    ids = {}
    for o in objects:
        ids[o] = encode[(o, o)](units[o])
        if ids[o] is None:
            raise RuntimeError(f"identity escaped the endomorphism space of {o}")
    return FinCat(base.p, objects, hom, comp, ids, name=name)


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
    """All endomorphisms e with e.e = e, exhaustively per endo space."""
    objs = [obj] if obj is not None else list(cat.objects)
    out = []
    for a in objs:
        d = cat.hom_dim[(a, a)]
        check_vector_cap(cat.p ** d, f"idempotent scan on A({a},{a})")
        for f in cat.elements(a, a):
            if cat.compose(f, f) == f:
                out.append(f)
    return out


def cat_to_json(cat: FinCat) -> str:
    """Canonical interchange serialization: sorted keys, minimal separators."""
    doc = {
        "p": cat.p,
        "objects": list(cat.objects),
        "hom": {f"{a}|{b}": d for (a, b), d in sorted(cat.hom_dim.items()) if d > 0},
        "comp": {
            f"{a}|{b}|{c}": [[list(vec) for vec in row] for row in table]
            for (a, b, c), table in sorted(cat.comp.items())
        },
        "id": {a: list(v) for a, v in sorted(cat.id_coords.items())},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cat_from_json(text: str) -> FinCat:
    doc = json.loads(text)
    p = int(doc["p"])
    objects = [str(x) for x in doc["objects"]]
    hom = {}
    for key, d in doc.get("hom", {}).items():
        a, b = key.split("|")
        hom[(a, b)] = int(d)
    comp = {}
    for key, table in doc.get("comp", {}).items():
        a, b, c = key.split("|")
        comp[(a, b, c)] = tuple(tuple(tuple(vec) for vec in row) for row in table)
    ids = {a: tuple(v) for a, v in doc.get("id", {}).items()}
    return FinCat(p, objects, hom, comp, ids)


def cat_hash(cat: FinCat) -> str:
    return hashlib.sha256(cat_to_json(cat).encode()).hexdigest()[:16]


def cats_equal(a: FinCat, b: FinCat) -> bool:
    return cat_to_json(a) == cat_to_json(b)
