"""Reference oracles and fixtures that only the tests read.

Each one is a plain, direct computation of something the package computes
another way (or builds on), kept here as the independent side of a test: the
naturality and functoriality checks written basis pair by basis pair, the
subspace lattice listed by RREF shape, the torsion radical scanned vector by
vector, traces summed map by map, the center's multiplication table read
coordinate by coordinate, the hereditary closure of a census rescanned until
it stops growing, the rank profiles of a module read element by element, the
simple-kernel sequences of a module read off its own simple submodules, and
the corner of a recollement datum on all its witnesses at once.  Nothing in
`src/ringoid` imports this module.
"""

from __future__ import annotations

import itertools

from ringoid.category import FinCat, cat_to_json
from ringoid.center import CenterAlgebra, CenterElement
from ringoid.completion import AdditiveClosure, CornerCategory, closure_on
from ringoid.ideals import Ideal
from ringoid.linalg import Mat, Subspace, check_vector_cap, is_line_first, kernel_basis, solve
from ringoid.modules import (
    FinModule,
    ModuleCensus,
    ModuleMap,
    Submodule,
    all_submodules,
    full_submodule,
    hom_space,
    image,
    quotient_module,
    representable,
    restrict_along,
    simple_submodules,
    submodule_module,
    zero_submodule,
)
from ringoid.torsion import Topology, yoneda_kernel


def cats_equal(a: FinCat, b: FinCat) -> bool:
    return cat_to_json(a) == cat_to_json(b)


def solve_matrix(m: Mat, b: Mat):
    """X with m @ X = b, solved column by column; None if any column fails."""
    cols = []
    for j in range(b.cols):
        x = solve(m, b.col(j))
        if x is None:
            return None
        cols.append(x)
    return Mat.from_cols(m.p, m.cols, cols)


def enumerate_subspaces(n: int, p: int) -> list:
    """Every subspace of F_p^n exactly once, via direct RREF-shape generation.

    Refuses when p^n exceeds the cap, since callers downstream scan vectors
    of the ambient space at comparable cost.
    """
    check_vector_cap(p ** n, "enumerate_subspaces: p^n")
    out = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = []
            for i in range(k):
                for j in range(pivots[i] + 1, n):
                    if j not in pivots:
                        free.append((i, j))
            for vals in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for i in range(k):
                    rows[i][pivots[i]] = 1
                for (i, j), x in zip(free, vals):
                    rows[i][j] = x
                out.append(Subspace(p, n, Mat(p, k, n, rows)))
    out.sort(key=lambda s: (s.dim, s.key()))
    return out


def validate_module(m: FinModule) -> list:
    """Identity actions and contravariant functoriality on all basis pairs."""
    cat = m.cat
    report = []
    for a in cat.objects:
        if m.act(cat.identity(a)) != Mat.identity(cat.p, m.dims[a]):
            report.append({"kind": "identity-action", "object": a})
    for a in cat.objects:
        for b in cat.objects:
            for i in range(cat.hom_dim[(a, b)]):
                f = cat.basis(a, b)[i]
                for c in cat.objects:
                    for j in range(cat.hom_dim[(b, c)]):
                        g = cat.basis(b, c)[j]
                        lhs = m.act(cat.compose(g, f))
                        rhs = m.action[(a, b, i)] @ m.action[(b, c, j)]
                        if lhs != rhs:
                            report.append({"kind": "functoriality", "pair": ((a, b, i), (b, c, j))})
    return report


def check_naturality(phi: ModuleMap) -> bool:
    cat = phi.src.cat
    for a in cat.objects:
        for b in cat.objects:
            for i in range(cat.hom_dim[(a, b)]):
                lhs = phi.comps[a] @ phi.src.action[(a, b, i)]
                rhs = phi.tgt.action[(a, b, i)] @ phi.comps[b]
                if lhs != rhs:
                    return False
    return True


def simple_kernel_sequences(m: FinModule):
    """Yields (incl, proj): the inclusion S -> M and the projection
    M -> M/S of every simple submodule S, in `simple_submodules` order, one
    pair at a time.  Not memoized: a caller that rereads them keeps them."""
    for s in simple_submodules(m):
        yield submodule_module(s)[1], quotient_module(m, s)[1]


def kernel(phi: ModuleMap) -> Submodule:
    return Submodule(phi.src, {a: kernel_basis(phi.comps[a]) for a in phi.comps})


def trace(sources, m: FinModule) -> Submodule:
    """Sum of the images of every map from the given modules into M."""
    t = zero_submodule(m)
    for s in sources:
        for phi in hom_space(s, m):
            t = t.sum(image(phi))
    return t


def gen_witness(generators, m: FinModule):
    """Greedy epi witness for membership in Gen(generators), or None.

    Collects basis maps from the generators until their images sum to all of
    M; returns the witness list when they do.
    """
    t = zero_submodule(m)
    witness = []
    for g in generators:
        for phi in hom_space(g, m):
            u = t.sum(image(phi))
            if u.total_dim() > t.total_dim():
                t = u
                witness.append((g, phi))
            if t.is_full():
                return witness
    return witness if t.is_full() else None


def maximal_topology(cat: FinCat) -> Topology:
    return Topology(cat, {a: [full_submodule(representable(cat, a))] for a in cat.objects})


def full_topology(cat: FinCat) -> Topology:
    return Topology(cat, {a: all_submodules(representable(cat, a)) for a in cat.objects})


def torsion_radical(topo: Topology, m: FinModule) -> Submodule:
    """The largest torsion submodule: elements whose classifying kernel covers."""
    cat = topo.cat
    spaces = {}
    for a in cat.objects:
        check_vector_cap(cat.p ** m.dims[a], f"torsion_radical: p^dim M({a})")
        good = [
            v
            for v in itertools.product(range(cat.p), repeat=m.dims[a])
            if topo.covers(a, yoneda_kernel(cat, m, a, v))
        ]
        sub = Subspace.from_vectors(cat.p, m.dims[a], good)
        if cat.p ** sub.dim != len(good):
            raise RuntimeError("radical values do not form a subspace")
        spaces[a] = sub
    t = Submodule(m, spaces)
    if not t.is_closed():
        raise RuntimeError("radical is not a submodule")
    return t


def restrict_module(closure: AdditiveClosure, n: FinModule) -> FinModule:
    """Restriction along the singleton embedding."""
    base = closure.base
    units = {pair: Mat.identity(base.p, d) for pair, d in base.hom_dim.items()}
    return restrict_along(base, {a: n.dims[closure.embed_object(a)] for a in base.objects},
                          lambda f: n.act(closure.embed_morphism(f)), units, f"res({n.name})" if n.name else "")


def witness_corner(data) -> CornerCategory:
    """The corner of a recollement datum on all its witnesses at once, `e0`,
    `e1`, ... in witness order, over the closure of their tuples alone: the
    whole-witness j^* that the shadows read one witness at a time."""
    witnesses = {f"e{i}": eps for i, (_, eps) in enumerate(data.witness)}
    return CornerCategory(closure_on(data.cat, dict.fromkeys(t for t, _ in data.witness)), witnesses, "corner")


def trace_ideal(cat: FinCat, modules) -> Ideal:
    """The trace of a family of modules in the regular bimodule:
    I(a, b) = trace of the family in H_b, evaluated at a."""
    modules = list(modules)
    spaces = {}
    for b in cat.objects:
        hb = representable(cat, b)
        t = trace(modules, hb)
        for a in cat.objects:
            spaces[(a, b)] = t.spaces[a]
    return Ideal(cat, spaces)


def is_natural(z: CenterElement) -> bool:
    """The center element's components commute with every hom basis element."""
    cat = z.cat
    for a in cat.objects:
        for b in cat.objects:
            for u in cat.basis(a, b):
                if cat.compose(z.components[b], u) != cat.compose(u, z.components[a]):
                    return False
    return True


def multiply(z: CenterAlgebra, x, y):
    """The product of two coordinate vectors of the center, read off its
    multiplication table."""
    p = z.cat.p
    out = [0] * z.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            for k, c in enumerate(z.mult[i][j]):
                out[k] = (out[k] + xi * yj * c) % p
    return tuple(out)


def reference_close(census: ModuleCensus, member) -> frozenset:
    """`ModuleCensus.close` by a fixed-point loop: add S and M/S of the pairs
    of every member, then every class with a pair of members, and repeat
    both passes over all classes until nothing changes."""
    member = set(member)
    sub_quot = census.sub_quot
    changed = True
    while changed:
        changed = False
        for i in list(member):
            for s_idx, q_idx in sub_quot[i]:
                for j in (s_idx, q_idx):
                    if j not in member:
                        member.add(j)
                        changed = True
        for i in range(len(census.classes)):
            if i in member:
                continue
            if any(s in member and q in member for s, q in sub_quot[i]):
                member.add(i)
                changed = True
    return frozenset(member)


def reference_fingerprint(m: FinModule):
    """`FinModule.fingerprint` with the lines of each small hom space found
    element by element: one rank per line, at its first vector, copied to
    the line's other multiples."""
    p = m.cat.p
    dims = tuple(m.dims[a] for a in m.cat.objects)
    ranks = []
    for a in m.cat.objects:
        for b in m.cat.objects:
            d = m.cat.hom_dim[(a, b)]
            if d == 0:
                continue
            basis_ranks = tuple(m.action[(a, b, i)].rank() for i in range(d))
            if p ** d <= 81:
                line_rank = {}
                for f in m.cat.elements(a, b):
                    v = f.coords
                    if not is_line_first(v):
                        continue
                    nonzero = [i for i, x in enumerate(v) if x]
                    if not nonzero:
                        r = 0
                    elif len(nonzero) == 1:
                        r = basis_ranks[nonzero[0]]
                    else:
                        r = m.act(f).rank()
                    for c in range(1, p):
                        line_rank[tuple(c * x % p for x in v)] = r
                prof = tuple(line_rank[f.coords] for f in m.cat.elements(a, b))
            else:
                prof = basis_ranks
            ranks.append(((a, b), prof))
    return (dims, tuple(ranks))
