"""Finite right modules over a FinCat: contravariant linear functors to F_p-vector spaces.

A module assigns a dimension to each object and a matrix to each hom-basis
element; contravariance reads ``mat(M(beta . alpha)) = mat(M(alpha)) @ mat(M(beta))``
in the column convention.  Everything a torsion theory needs lives here:
representables, hom spaces (solved as the naturality linear system), the full
submodule lattice, quotients, exhaustive enumeration up to isomorphism with a
simple-plus-extension crawl, ideal action, and annihilators.
"""

from __future__ import annotations

import itertools

from .category import FinCat, Morphism, derived
from .linalg import (
    Mat,
    Subspace,
    SubspaceFamily,
    check_vector_cap,
    complement_data,
    image_basis,
    is_line_first,
    kernel_basis,
    matrix_kernel,
    matrix_kernel_dim,
    subspace_sum,
)


class FinModule:
    """dims: object -> count; action[(a, b, i)]: M(b) -> M(a) for basis alpha_i of A(a, b)."""

    def __init__(self, cat: FinCat, dims, action, name: str = ""):
        self.cat = cat
        self.dims = {a: int(dims.get(a, 0)) for a in cat.objects}
        self.action = {}
        for a in cat.objects:
            for b in cat.objects:
                for i in range(cat.hom_dim[(a, b)]):
                    m = action.get((a, b, i))
                    if m is None:
                        m = Mat.zero(cat.p, self.dims[a], self.dims[b])
                    if (m.rows, m.cols) != (self.dims[a], self.dims[b]):
                        raise ValueError(f"action shape mismatch at {(a, b, i)}")
                    self.action[(a, b, i)] = m
        self.name = name
        self._key = None
        self._fingerprint = None

    @property
    def p(self):
        return self.cat.p

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def act(self, f: Morphism) -> Mat:
        """The matrix of M(f): M(f.tgt) -> M(f.src)."""
        a, b = f.src, f.tgt
        out = Mat.zero(self.cat.p, self.dims[a], self.dims[b])
        for i, c in enumerate(f.coords):
            if c:
                out = out + self.action[(a, b, i)].scale(c)
        return out

    def key(self):
        """Canonical identity of the presented data (basis dependent)."""
        if self._key is None:
            self._key = (
                tuple(self.dims[a] for a in self.cat.objects),
                tuple(self.action[k].entries for k in sorted(self.action)),
            )
        return self._key

    def fingerprint(self):
        """Iso-invariant: dims plus the rank profile of every basis action,
        refined by element-wise rank profiles on small hom spaces.

        rank M(c f) = rank M(f) for c != 0, so an element-wise profile
        computes one rank per line of A(a, b), at the line's first vector
        (`_line_table`), and copies it to the other multiples.  The zero
        element has rank 0 and a basis element the cached rank of its
        action."""
        if self._fingerprint is None:
            cat = self.cat
            dims = tuple(self.dims[a] for a in cat.objects)
            ranks = []
            for a in cat.objects:
                for b in cat.objects:
                    d = cat.hom_dim[(a, b)]
                    if d == 0:
                        continue
                    basis_ranks = tuple(self.action[(a, b, i)].rank() for i in range(d))
                    if cat.p ** d <= 81:
                        firsts, line_of = _line_table(cat, a, b)
                        line_rank = []
                        for f, nonzero in firsts:
                            if not nonzero:
                                line_rank.append(0)
                            elif len(nonzero) == 1:
                                line_rank.append(basis_ranks[nonzero[0]])
                            else:
                                line_rank.append(self.act(f).rank())
                        prof = tuple([line_rank[k] for k in line_of])
                    else:
                        prof = basis_ranks
                    ranks.append(((a, b), prof))
            self._fingerprint = (dims, tuple(ranks))
        return self._fingerprint

    def __repr__(self):
        label = self.name or "module"
        return f"FinModule({label}, dims={self.dims})"


def _line_table(cat: FinCat, a: str, b: str):
    """(firsts, line_of) for A(a, b): firsts lists (f, nonzero) for the
    first vector f of each line (`is_line_first`), in `cat.elements` order,
    with the positions of its nonzero coordinates, and line_of[e] is the
    position in firsts of the line of element e.  Built once per category
    and hom space."""
    return derived(cat, ("line table", a, b), lambda: _build_line_table(cat, a, b))


def _build_line_table(cat: FinCat, a: str, b: str):
    p = cat.p
    firsts = []
    line = {}
    for f in cat.elements(a, b):
        v = f.coords
        if is_line_first(v):
            for c in range(1, p):
                line[tuple(c * x % p for x in v)] = len(firsts)
            firsts.append((f, tuple(i for i, x in enumerate(v) if x)))
    return firsts, tuple(line[f.coords] for f in cat.elements(a, b))


def zero_module(cat: FinCat) -> FinModule:
    return FinModule(cat, {}, {}, name="0")


def representable(cat: FinCat, t: str) -> FinModule:
    """H_t = A(-, t): dims are hom dims into t, actions are precomposition.
    Built once per category and object; callers share it unmutated."""
    return derived(cat, ("representable", t), lambda: _build_representable(cat, t))


def _build_representable(cat: FinCat, t: str) -> FinModule:
    dims = {a: cat.hom_dim[(a, t)] for a in cat.objects}
    action = {}
    for a in cat.objects:
        for b in cat.objects:
            for i, f in enumerate(cat.basis(a, b)):
                action[(a, b, i)] = cat.precompose_matrix(f, t)
    return FinModule(cat, dims, action, name=f"H_{t}")


class ModuleMap:
    """A natural transformation, stored as one matrix per object."""

    def __init__(self, src: FinModule, tgt: FinModule, comps):
        self.src = src
        self.tgt = tgt
        self.comps = {}
        for a in src.cat.objects:
            m = comps.get(a)
            if m is None:
                m = Mat.zero(src.cat.p, tgt.dims[a], src.dims[a])
            if (m.rows, m.cols) != (tgt.dims[a], src.dims[a]):
                raise ValueError(f"component shape mismatch at {a}")
            self.comps[a] = m

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        return ModuleMap(other.src, self.tgt,
                         {a: self.comps[a] @ other.comps[a] for a in self.comps})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    def __eq__(self, other):
        return isinstance(other, ModuleMap) and self.comps == other.comps

    def __repr__(self):
        return f"ModuleMap({ {a: (m.rows, m.cols) for a, m in self.comps.items()} })"


def _naturality_system(m: FinModule, n: FinModule):
    """(shapes, equations) for `matrix_kernel`: the unknowns phi_a and the
    squares phi_a . M(alpha) = N(alpha) . phi_b over every basis alpha of
    A(a, b)."""
    cat = m.cat
    if cat is not n.cat and cat.objects != n.cat.objects:
        raise ValueError("modules live over different categories")
    shapes = {a: (n.dims[a], m.dims[a]) for a in cat.objects}
    equations = [
        [(1, None, a, m.action[(a, b, i)]), (-1, n.action[(a, b, i)], b, None)]
        for a, b, i in m.action
    ]
    return shapes, equations


def hom_space(m: FinModule, n: FinModule) -> list:
    """A basis of Hom(M, N), solved from the naturality squares."""
    solutions, _, unpack = matrix_kernel(m.p, *_naturality_system(m, n))
    return [ModuleMap(m, n, unpack(v)) for v in solutions.basis_vectors()]


def hom_dim(m: FinModule, n: FinModule) -> int:
    """dim Hom(M, N), the rank deficit of the naturality squares; equal to
    len(hom_space(m, n)) without building the basis."""
    return matrix_kernel_dim(m.p, *_naturality_system(m, n))


class Submodule(SubspaceFamily):
    """A subspace of M(a) for every a, closed under all actions."""

    def __init__(self, module: FinModule, spaces):
        self.module = module
        super().__init__(module.p, module.dims, spaces)

    def is_closed(self) -> bool:
        m = self.module
        for (a, b, i), mat in m.action.items():
            for v in self.spaces[b].basis_vectors():
                if not self.spaces[a].contains(mat.apply(v)):
                    return False
        return True

    def __repr__(self):
        return f"Submodule(dims={ {a: s.dim for a, s in self.spaces.items()} })"


def zero_submodule(m: FinModule) -> Submodule:
    return Submodule(m, {})


def full_submodule(m: FinModule) -> Submodule:
    return Submodule(m, {a: Subspace.full(m.p, m.dims[a]) for a in m.cat.objects})


def cyclic_submodule(m: FinModule, a: str, v) -> Submodule:
    """The smallest submodule containing v in M(a): spans of all actions on v."""
    cat = m.cat
    spaces = {}
    for b in cat.objects:
        vecs = []
        for i in range(cat.hom_dim[(b, a)]):
            vecs.append(m.action[(b, a, i)].apply(v))
        spaces[b] = Subspace.from_vectors(m.p, m.dims[b], vecs)
    return Submodule(m, spaces)


def image(phi: ModuleMap) -> Submodule:
    return Submodule(phi.tgt, {a: image_basis(phi.comps[a]) for a in phi.comps})


def cyclic_submodules(m: FinModule) -> list:
    """[(sub, a, v)]: each distinct cyclic submodule Av, with the first
    nonzero v in M(a) (objects in order, vectors in `itertools.product`
    order) that generates it.

    A(cv) = Av for c != 0, and the first vector of each line comes before
    its other multiples, so only the first vectors (`is_line_first`) are
    scanned: one cyclic submodule per line of M(a)."""
    _check_submodule_scan(m)
    out = []
    seen = set()
    for a in m.cat.objects:
        for v in itertools.product(range(m.p), repeat=m.dims[a]):
            if not any(v) or not is_line_first(v):
                continue
            s = cyclic_submodule(m, a, v)
            if s.key() not in seen:
                seen.add(s.key())
                out.append((s, a, v))
    return out


def simple_submodules(m: FinModule) -> list:
    """Every simple submodule, in order of total dimension.

    A simple module is cyclic, and a nonzero submodule that is not simple
    contains a simple one of smaller total dimension.  So, taking the
    distinct cyclic submodules by total dimension, one is simple exactly
    when it contains none of the simple ones kept before it; Aw <= X
    exactly when w lies in X(b).
    """
    out = []
    for sub, a, v in sorted(cyclic_submodules(m), key=lambda g: g[0].total_dim()):
        if not any(sub.spaces[b].contains(w) for _, b, w in out):
            out.append((sub, a, v))
    return [sub for sub, _, _ in out]


def _check_submodule_scan(m: FinModule) -> None:
    """The one cap on the submodule scans: their generators are vectors of
    the M(a), at most p^dim M(a) of them at each object."""
    check_vector_cap(sum(m.p ** m.dims[a] for a in m.cat.objects), "all_submodules: sum of p^dim M(a)")


def all_submodules(m: FinModule) -> list:
    """Every submodule, by `quotient_point_walk` from the zero submodule
    with the cyclic submodules A.r."""
    _check_submodule_scan(m)
    return quotient_point_walk(zero_submodule(m), lambda a, r: cyclic_submodule(m, a, r))


def quotient_point_walk(bottom: SubspaceFamily, cyclic) -> list:
    """Every family of a lattice whose members are the joins of bottom with
    cyclic families (submodules with the cyclic submodules A.r, ideals with
    the principal ideals (r)), by a breadth-first walk from bottom that joins
    each family X found with cyclic(k, r) for one canonical r per point of
    X's quotient at every key k (`Subspace.quotient_points`).

    Complete because every member is a join of cyclic families of its
    elements, so the joins of bottom with cyclic families reach every one;
    and for each X the joins X + (v) that leave X are all among the
    X + (r): X + (v) = X + (reduce v), since (x) <= X for x in X(k), and
    (cv) = (v) for c != 0.  Each cyclic(k, r) is built once per call.
    Output is deduplicated and sorted by (total dim, canonical key).
    """
    made = {}

    def points(x):
        for k, s in x.spaces.items():
            for r in s.quotient_points():
                if (k, r) not in made:
                    made[(k, r)] = cyclic(k, r)
                yield made[(k, r)]

    family = type(bottom)
    found = join_closure(bottom, points, family.sum, family.key)
    return sorted(found, key=lambda s: (s.total_dim(), s.key()))


def join_closure(bottom, gens, join, key) -> list:
    """Every join of bottom with finitely many generators, deduplicated by
    key, in discovery order: each new element x is joined with every
    generator in gens(x) until no new key appears."""
    found = {key(bottom): bottom}
    frontier = [bottom]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens(x):
                u = join(x, g)
                k = key(u)
                if k not in found:
                    found[k] = u
                    nxt.append(u)
        frontier = nxt
    return list(found.values())


def simple_kernel_sequences(m: FinModule):
    """Yields (incl, proj): the inclusion S -> M and the projection
    M -> M/S of every simple submodule S, in `simple_submodules` order, one
    pair at a time.  Not memoized: a caller that rereads them keeps them."""
    for s in simple_submodules(m):
        yield submodule_module(s)[1], quotient_module(m, s)[1]


def submodule_module(s: Submodule):
    """(N, incl) where N carries the submodule in its own basis and incl embeds it."""
    m = s.module
    cat = m.cat
    incl = {}
    for a in cat.objects:
        incl[a] = s.spaces[a].basis_matrix()
    dims = {a: s.spaces[a].dim for a in cat.objects}
    action = {}
    for (a, b, i), mat in m.action.items():
        # each basis vector of S(b), moved into M(a), read in S(a)'s basis
        action[(a, b, i)] = s.spaces[a].coords_matrix(map(mat.apply, s.spaces[b].basis_vectors()))
        if action[(a, b, i)] is None:
            raise ValueError("submodule is not closed under the action")
    n = FinModule(cat, dims, action, name=f"sub({m.name})" if m.name else "")
    return n, ModuleMap(n, m, incl)


def quotient_module(m: FinModule, s: Submodule):
    """(Q, proj) for M/S in the non-pivot coordinates of each S(a)."""
    cat = m.cat
    proj = {}
    lift = {}
    for a in cat.objects:
        pr, lf = complement_data(s.spaces[a])
        proj[a] = pr
        lift[a] = lf
    dims = {a: proj[a].rows for a in cat.objects}
    action = {
        key: proj[key[0]] @ mat @ lift[key[1]]
        for key, mat in m.action.items()
    }
    q = FinModule(cat, dims, action, name=f"{m.name}/sub" if m.name else "")
    return q, ModuleMap(m, q, proj)


def restrict_along(cat: FinCat, dims, act, image, name: str) -> FinModule:
    """The module over `cat` whose basis morphism i of cat(a, b) acts by
    act(Morphism(a, b, v)), with v column i of image[(a, b)]: a module
    carried along the linear maps image[(a, b)] from the hom spaces of
    `cat` into those that `act` reads."""
    action = {(a, b, i): act(Morphism(a, b, mat.col(i)))
              for (a, b), mat in image.items() for i in range(mat.cols)}
    return FinModule(cat, dims, action, name=name)


def direct_sum(*modules: FinModule) -> FinModule:
    """M_1 + ... + M_k (k >= 1), each basis morphism acting block diagonally."""
    cat = modules[0].cat
    dims = {a: sum(m.dims[a] for m in modules) for a in cat.objects}
    action = {
        (a, b, i): Mat.from_blocks(cat.p, [m.dims[a] for m in modules], [m.dims[b] for m in modules],
                                   {(n, n): m.action[(a, b, i)] for n, m in enumerate(modules)})
        for (a, b, i) in modules[0].action
    }
    return FinModule(cat, dims, action)


def _total_rank(comps) -> int:
    return sum(m.rank() for m in comps.values())


def _search_invertible(maps: list, p: int) -> bool:
    """Find an everywhere-invertible element in the span of the given maps.

    Greedy rank ascent almost always produces an isomorphism certificate in a
    few sweeps; the exhaustive coefficient scan stays as the complete
    fallback for the rare fingerprint-tied non-isomorphic pairs.
    """
    if not maps:
        return False
    src, tgt = maps[0].src, maps[0].tgt
    objs = src.cat.objects
    if any(src.dims[a] != tgt.dims[a] for a in objs):
        return False
    target = sum(src.dims[a] for a in objs)
    n = len(maps)
    cur = {a: Mat.zero(p, tgt.dims[a], src.dims[a]) for a in objs}
    cur_rank = 0
    improved = True
    while improved and cur_rank < target:
        improved = False
        for i in range(n):
            for c in range(1, p):
                cand = {a: cur[a] + maps[i].comps[a].scale(c) for a in objs}
                r = _total_rank(cand)
                if r > cur_rank:
                    cur, cur_rank = cand, r
                    improved = True
                    break
            if cur_rank == target:
                return True
    if cur_rank == target:
        return True
    check_vector_cap(p ** n, "is_iso coefficient scan: p^dim Hom")
    for coeffs in itertools.product(range(p), repeat=n):
        comps = {}
        ok = True
        for a in objs:
            acc = Mat.zero(p, tgt.dims[a], src.dims[a])
            for i, c in enumerate(coeffs):
                if c:
                    acc = acc + maps[i].comps[a].scale(c)
            if acc.rank() != acc.rows:
                ok = False
                break
            comps[a] = acc
        if ok:
            return True
    return False


def is_iso(m: FinModule, n: FinModule) -> bool:
    """Exhaustive invertible-natural-transformation search behind invariant prefilters."""
    if any(m.dims[a] != n.dims[a] for a in m.cat.objects):
        return False
    if m.key() == n.key():
        return True
    if m.fingerprint() != n.fingerprint():
        return False
    maps = hom_space(m, n)
    if len(maps) != hom_dim(m, m):
        return False
    return _search_invertible(maps, m.p)


class IsoClasses:
    """Modules, one per isomorphism class, in insertion order, and the index
    of a module's class.  `is_iso` is False across fingerprints and equal
    keys give equal fingerprints, so only the classes of equal fingerprint
    are compared, in insertion order, and `find` returns the first index a
    scan of every class would.  Found indices are kept by key; classes only
    grow at the end, so a found index stays the first one."""

    def __init__(self, classes):
        self.classes = []
        self._buckets = {}  # fingerprint -> class indices, in insertion order
        self._found = {}  # key -> class index
        for c in classes:
            self.add(c)

    def find(self, m: FinModule):
        """The index of the class of m, or None (not kept: a later add may
        change it)."""
        k = m.key()
        idx = self._found.get(k)
        if idx is None:
            idx = next((i for i in self._buckets.get(m.fingerprint(), ()) if is_iso(m, self.classes[i])), None)
            if idx is not None:
                self._found[k] = idx
        return idx

    def add(self, m: FinModule) -> int:
        """Append m as a new class; the caller has found no class of it."""
        idx = len(self.classes)
        self.classes.append(m)
        self._buckets.setdefault(m.fingerprint(), []).append(idx)
        self._found.setdefault(m.key(), idx)
        return idx


def representable_quotients(cat: FinCat) -> list:
    """[(a, R, H_a/R)] for every object a, in object order, and every
    submodule R of H_a, in `all_submodules` order: the one place the
    simples, the topologies, the axiom check and the seeds build a quotient
    of a representable.  Built once per category."""
    return derived(cat, ("representable-quotients",), lambda: [
        (a, sub, quotient_module(representable(cat, a), sub)[0])
        for a in cat.objects
        for sub in all_submodules(representable(cat, a))
    ])


def simple_modules(cat: FinCat) -> list:
    """Simples, found as the quotients H_a/R of the representables by their
    maximal proper submodules R, in `representable_quotients` order."""
    index = IsoClasses([])
    for a in cat.objects:
        proper = [(r, q) for b, r, q in representable_quotients(cat) if b == a and not r.is_full()]
        for r, q in proper:
            if any(s is not r and s.contains(r) for s, _ in proper):
                continue
            if index.find(q) is None:
                index.add(q)
    return sorted(index.classes, key=lambda m: (m.total_dim(), m.fingerprint()))


def _extension_skeleton(cat: FinCat):
    """(keys, identities, compositions): the parts of the extension system
    that depend on the category alone.  keys are the basis morphisms
    (a, b, i) in sorted order, identities the equations C(id_a) = 0, and
    compositions hold (alpha, beta, terms) for every composable basis pair
    alpha = (a, b, i), beta = (b, c, j), terms being those of C(beta . alpha)
    with their `compose_basis` coefficients.  Built once per category;
    `_extensions` adds the S(alpha) and Q(beta) terms of each pair of
    modules."""
    return derived(cat, ("extension skeleton",), lambda: _build_extension_skeleton(cat))


def _build_extension_skeleton(cat: FinCat):
    keys = sorted((a, b, i) for a in cat.objects for b in cat.objects for i in range(cat.hom_dim[(a, b)]))
    identities = []
    for a in cat.objects:
        if cat.hom_dim[(a, a)]:
            # the identity acts as the identity: C(id_a) = 0
            identities.append([(cf, None, (a, a, i), None) for i, cf in enumerate(cat.id_coords[a]) if cf])
    compositions = []
    for a in cat.objects:
        for b in cat.objects:
            for i in range(cat.hom_dim[(a, b)]):
                for c in cat.objects:
                    for j in range(cat.hom_dim[(b, c)]):
                        terms = [
                            (cf, None, (a, c, k), None)
                            for k, cf in enumerate(cat.compose_basis(a, b, c, i, j))
                            if cf
                        ]
                        compositions.append(((a, b, i), (b, c, j), terms))
    return keys, identities, compositions


def _extensions(s: FinModule, q: FinModule) -> list:
    """Modules with submodule block s and quotient block q, one candidate
    per line of extension classes.

    The off-diagonal blocks C form the solution space Z^1 of a linear system
    (functoriality and identity constraints).  A basis change
    [[I, h], [0, I]] shifts C by a coboundary, so each class of Z^1/B^1
    gives one candidate, at its reduced vector.  Conjugating by
    diag(cI, I) carries the extension of C to that of cC (E_C ~ E_cC), so
    of each line of reduced vectors only the first (`is_line_first`) is
    kept; in sorted order it comes before its other multiples.
    """
    cat = s.cat
    p = cat.p
    keys, identities, compositions = _extension_skeleton(cat)
    shapes = {(a, b, i): (s.dims[a], q.dims[b]) for a, b, i in keys}
    # C(beta . alpha) = S(alpha) C(beta) + C(alpha) Q(beta)
    equations = identities + [
        terms + [(-1, s.action[alpha], beta, None), (-1, None, alpha, q.action[beta])]
        for alpha, beta, terms in compositions
    ]
    sol, _, _ = matrix_kernel(p, shapes, equations)
    # the coboundary S(alpha) h_b - h_a Q(alpha) of the unit h = E_uv at
    # object o, written straight into the packed vector (each block
    # row-major, in `shapes` order): when b = o, column u of S(alpha) goes
    # into column v; when a = o, row v of Q(alpha) is subtracted in row u
    offs = {}
    total = 0
    for key, (r, c) in shapes.items():
        offs[key] = total
        total += r * c
    cob_vecs = []
    for o in cat.objects:
        for u in range(s.dims[o]):
            for v in range(q.dims[o]):
                vec = [0] * total
                for (a, b, i), off in offs.items():
                    width = q.dims[b]
                    if b == o:
                        for r, row in enumerate(s.action[(a, b, i)].entries):
                            vec[off + r * width + v] += row[u]
                    if a == o:
                        for j, x in enumerate(q.action[(a, b, i)].entries[v], off + u * width):
                            vec[j] -= x
                cob_vecs.append(vec)
    cob = Subspace.from_vectors(p, sol.ambient, cob_vecs)
    # reduce is linear, so the reduced cocycles are the span of the reduced
    # basis (its zero vectors dropped before the RREF): Ext^1, as the
    # subspace of Z^1 that vanishes at the pivots of B^1
    ext = Subspace.from_vectors(p, sol.ambient, [v for v in map(cob.reduce, sol.basis_vectors()) if any(v)])
    check_vector_cap(p ** ext.dim, "extension scan: p^dim Ext")
    reps = sorted(filter(is_line_first, ext.vectors()))
    dims = {a: s.dims[a] + q.dims[a] for a in cat.objects}
    out = []
    for vec in reps:
        # the rows of [[S(alpha), C(alpha)], [0, Q(alpha)]], C(alpha) read
        # off the packed vector row by row
        action = {}
        for (a, b, i), off in offs.items():
            width = q.dims[b]
            pad = (0,) * s.dims[b]
            top = s.action[(a, b, i)].entries
            action[(a, b, i)] = Mat._new(p, dims[a], dims[b], tuple(
                [row + vec[off + r * width: off + (r + 1) * width] for r, row in enumerate(top)]
                + [pad + row for row in q.action[(a, b, i)].entries]))
        out.append(FinModule(cat, dims, action))
    return out


def enumerate_modules(cat: FinCat, total_dim_bound: int) -> list:
    """All modules of total dimension <= bound, one per isomorphism class:
    the classes of `module_census`."""
    return module_census(cat, total_dim_bound).classes


class ModuleCensus:
    """The modules of total dimension <= bound, one per isomorphism class
    (`classes`, the zero module first), their `IsoClasses` index, which
    keeps the class index of every module it finds, and for each class i
    the set `sub_quot[i]` of the class pairs (S, M/S) of its simple
    submodules S.  `module_census` keeps one per category and bound.

    Crawl: every nonzero module is an extension of a smaller module by a
    simple submodule, so level n is assembled from extensions of level
    (n - dim S) classes by each simple S, deduplicated up to iso and sorted
    by dims and fingerprint.  The crawl meets every pair (S, M/S): each
    candidate of `_extensions(s, q)` has its s block as a simple submodule,
    with quotient q; conversely, for a simple S <= M, M is an extension of
    M/S by S, the census holds a class q of M/S one level down and a simple
    s isomorphic to S, and `_extensions(s, q)` lists one candidate per
    line of extension classes, each isomorphic to the other classes of its
    line, so one of them is isomorphic to M.

    These pairs generate the same closure as the pairs of all submodules and
    the pairwise direct sums: in finite length, every subquotient and every
    extension is assembled one simple submodule at a time, through modules
    no larger than the census member it starts from (see `close`).
    """

    def __init__(self, cat: FinCat, bound: int):
        simples = simple_modules(cat)
        self.classes = [zero_module(cat)]
        self.sub_quot = [set()]
        self.zero_index = 0
        starts = [0]  # the census index of the first class of each level
        simple_index = {}  # position in `simples` -> census index
        for n in range(1, bound + 1):
            starts.append(len(self.classes))
            index = IsoClasses([])
            found = []  # (index in this level's `index`, position of S in `simples`, census index of M/S)
            for k, s in enumerate(simples):
                ds = s.total_dim()
                for q in range(starts[n - ds], starts[n - ds + 1]) if ds <= n else ():
                    for cand in _extensions(s, self.classes[q]):
                        idx = index.find(cand)
                        found.append((index.add(cand) if idx is None else idx, k, q))
            order = sorted(range(len(index.classes)), key=lambda i: (
                tuple(index.classes[i].dims[a] for a in cat.objects), index.classes[i].fingerprint()))
            census_index = {idx: starts[n] + r for r, idx in enumerate(order)}
            self.classes.extend(index.classes[idx] for idx in order)
            self.sub_quot.extend(set() for _ in order)
            for idx, k, q in found:
                i = census_index[idx]
                if q == self.zero_index:  # the extension of 0 by S is S
                    simple_index[k] = i
                self.sub_quot[i].add((simple_index[k], q))
        self.index = IsoClasses(self.classes)
        self._partners = [[] for _ in self.classes]  # j -> (i, partner) for each pair of i holding j
        for i, pairs in enumerate(self.sub_quot):
            for s_idx, q_idx in pairs:
                self._partners[s_idx].append((i, q_idx))
                self._partners[q_idx].append((i, s_idx))

    def close(self, member) -> frozenset:
        """The hereditary closure of a set of class indices: the least superset
        closed under submodules, quotients, direct sums and extensions, inside
        the census.

        Two rules reach it: a member M adds S and M/S for each simple S <= M,
        and a class M joins once some simple S <= M has S and M/S both
        members.  Each is an instance of a closure property, so the result F
        lies inside the closure; F is also closed, by induction on length,
        peeling off one simple S <= M each time:
        - quotients: for 0 != N <= M in F, take S <= N; M/S is in F and
          M/N = (M/S)/(N/S) with N/S shorter than N;
        - submodules: for 0 != N <= M in F, take S <= N; S and M/S are in F,
          so N/S <= M/S is in F (M/S is shorter than M), and then N is;
        - extensions: for A -> E -> B with A != 0 and A, B in F, take S <= A;
          S and A/S are in F, E/S extends A/S (shorter) by B, so E/S is in F,
          and then E is.  A direct sum is an extension.
        Every module these steps pass through is a subquotient of a census
        member, so it lies within the bound and in the census.

        A worklist applies the rules: each member is popped once, adds S and
        M/S of its own pairs, and adds every class i with a pair (j, partner)
        or (partner, j) whose partner is already a member (`_partners[j]`).
        Once both halves of a pair are members, the later one to be popped
        adds i.  The rules only ever add members, so the result is the least
        set closed under them, whatever the pop order.
        """
        member = set(member)
        todo = list(member)
        while todo:
            j = todo.pop()
            new = [k for pair in self.sub_quot[j] for k in pair]
            new += [i for i, partner in self._partners[j] if partner in member]
            for k in new:
                if k not in member:
                    member.add(k)
                    todo.append(k)
        return frozenset(member)


def module_census(cat: FinCat, bound: int) -> ModuleCensus:
    """The census of modules of total dimension <= bound, built once per
    category and bound."""
    return derived(cat, ("census", bound), lambda: ModuleCensus(cat, bound))


def ideal_actions(m: FinModule, ideal):
    """(a, b, M(w)) for every basis vector w of every I(a, b): the matrices
    M(w): M(b) -> M(a) by which the ideal acts, pair by pair."""
    for (a, b), s in ideal.spaces.items():
        for w in s.basis_vectors():
            yield a, b, m.act(Morphism(a, b, w))


def module_times_ideal(m: FinModule, ideal) -> Submodule:
    """MI(a) = sum of images of M(alpha) over alpha in I(a, b), all b."""
    spaces = {a: Subspace.zero(m.p, m.dims[a]) for a in m.cat.objects}
    for a, _, mat in ideal_actions(m, ideal):
        spaces[a] = subspace_sum(spaces[a], image_basis(mat))
    return Submodule(m, spaces)


def killed_by(m: FinModule, ideal) -> bool:
    """Every element of the ideal acts on M by zero."""
    return all(mat.is_zero() for _, _, mat in ideal_actions(m, ideal))


def annihilator(m: FinModule, ideal) -> Submodule:
    """The largest submodule killed by the ideal: intersection of action kernels."""
    rows = {a: [] for a in m.cat.objects}
    for _, b, mat in ideal_actions(m, ideal):
        rows[b].extend(mat.entries)
    return Submodule(m, {a: kernel_basis(Mat(m.p, len(r), m.dims[a], r)) for a, r in rows.items()})
