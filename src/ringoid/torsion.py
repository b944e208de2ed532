"""Linear Grothendieck topologies and their torsion machinery.

A topology assigns to every object a set of submodules of its representable,
subject to the identity, pullback, and glueing axioms.  The pullback axiom is
checked against every morphism, not just basis vectors, because pulling back
is not linear in the morphism.  Everything downstream of the axioms (the
membership test, the roundtrip with torsion classes) is a finite computation
at this scale.
"""

from __future__ import annotations

import itertools

from .category import FinCat, Morphism, derived
from .linalg import Mat, check_vector_cap, is_line_first, kernel_basis, preimage
from .modules import (
    FinModule,
    IsoClasses,
    ModuleCensus,
    Submodule,
    cyclic_submodule,
    full_submodule,
    join_closure,
    module_census,
    quotient_module,
    representable,
    representable_quotients,
    simple_modules,
    simple_submodules,
    submodule_module,
    zero_submodule,
)


class Topology:
    """families[a]: the set of covering submodules of H_a, canonically keyed."""

    def __init__(self, cat: FinCat, families):
        self.cat = cat
        self.families = {}
        self._keys = {}
        for a in cat.objects:
            fam = sorted(families.get(a, []), key=lambda s: (s.total_dim(), s.key()))
            self.families[a] = fam
            self._keys[a] = frozenset(s.key() for s in fam)

    def covers(self, a: str, sub: Submodule) -> bool:
        return sub.key() in self._keys[a]

    def key(self):
        return tuple((a, tuple(sorted(self._keys[a]))) for a in self.cat.objects)

    def __eq__(self, other):
        return isinstance(other, Topology) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def size(self) -> int:
        return sum(len(f) for f in self.families.values())

    def __repr__(self):
        return f"Topology({ {a: len(f) for a, f in self.families.items()} })"


def pullback_submodule(cat: FinCat, r: Morphism, target: Submodule) -> Submodule:
    """r^{-1}R for R <= H_a and r: a' -> a: componentwise preimage under
    postcomposition with r.  Built once per category, r and R; it holds
    only subspaces of the shared representable H_{a'}."""
    key = ("pullback", r.src, r.tgt, tuple(r.coords), target.key())
    return derived(cat, key, lambda: _build_pullback(cat, r, target))


def _build_pullback(cat: FinCat, r: Morphism, target: Submodule) -> Submodule:
    spaces = {}
    for b in cat.objects:
        post = cat.postcompose_matrix(r, b)  # A(b, a') -> A(b, a)
        spaces[b] = preimage(post, target.spaces[b])
    return Submodule(representable(cat, r.src), spaces)


def check_topology(cat: FinCat, topo: Topology) -> list:
    """Violations of the identity, pullback, and glueing axioms.

    Glueing quantifies over every submodule of every representable, read
    from `representable_quotients`, and over the morphisms r of each
    covering submodule, one per line (`is_line_first`): the pullback along
    cr is the pullback along r for c != 0.  The pullback and glueing loops
    need no cap of their own: they run over vectors of H_a, and
    `all_submodules(H_a)` has capped those vectors."""
    report = []
    for a in cat.objects:
        h = representable(cat, a)
        if not topo.covers(a, full_submodule(h)):
            report.append({"axiom": "identity", "object": a})
    for a in cat.objects:
        for rsub in topo.families[a]:
            for a2 in cat.objects:
                for r in cat.elements(a2, a):
                    pb = pullback_submodule(cat, r, rsub)
                    if not topo.covers(a2, pb):
                        report.append(
                            {"axiom": "pullback", "object": a, "along": (a2, r.coords)}
                        )
    for a, rsub, _ in representable_quotients(cat):
        if topo.covers(a, rsub):
            continue
        for ssub in topo.families[a]:
            hypothesis = True
            for a2 in cat.objects:
                for v in filter(is_line_first, ssub.spaces[a2].vectors()):
                    r = Morphism(a2, a, v)
                    if not topo.covers(a2, pullback_submodule(cat, r, rsub)):
                        hypothesis = False
                        break
                if not hypothesis:
                    break
            if hypothesis:
                report.append(
                    {"axiom": "glueing", "object": a, "missing_dim": rsub.total_dim()}
                )
                break
    return report


def yoneda_kernel(cat: FinCat, m: FinModule, a: str, v) -> Submodule:
    """The kernel of the map H_a -> M classified by v in M(a):
    at b, the morphisms r with M(r) v = 0."""
    h = representable(cat, a)
    spaces = {}
    for b in cat.objects:
        d = cat.hom_dim[(b, a)]
        cols = [m.action[(b, a, i)].apply(v) for i in range(d)]
        spaces[b] = kernel_basis(Mat.from_cols(cat.p, m.dims[b], cols))
    return Submodule(h, spaces)


def yoneda_kernels(cat: FinCat, m: FinModule) -> list:
    """[(a, K)]: the `yoneda_kernel` K of every object a, in object order,
    and every element v of M(a) that is the first of its line
    (`is_line_first`), in `itertools.product` order.  Built once per
    category and module; the kernels are shared by every topology, which
    tests its own covering on them."""
    return derived(cat, ("yoneda kernels", m.key()), lambda: _build_yoneda_kernels(cat, m))


def _build_yoneda_kernels(cat: FinCat, m: FinModule) -> list:
    out = []
    for a in cat.objects:
        check_vector_cap(cat.p ** m.dims[a], f"torsion_membership: p^dim M({a})")
        for v in itertools.product(range(cat.p), repeat=m.dims[a]):
            if is_line_first(v):
                out.append((a, yoneda_kernel(cat, m, a, v)))
    return out


def torsion_membership(topo: Topology, m: FinModule) -> bool:
    """Membership in the torsion class: every element of every value space
    classifies a map out of a representable with covering kernel.  The map
    of cv has the kernel of the map of v for c != 0, so one element per
    line is tested (`yoneda_kernels`)."""
    return all(topo.covers(a, k) for a, k in yoneda_kernels(topo.cat, m))


def topology_from_class(cat: FinCat, oracle) -> Topology:
    """G_a = the submodules R of H_a whose quotient H_a/R passes the
    membership predicate `oracle`."""
    families = {}
    for a, sub, q in representable_quotients(cat):
        if oracle(q):
            families.setdefault(a, []).append(sub)
    return Topology(cat, families)


def gabriel_roundtrip(topo: Topology) -> bool:
    """Topology -> torsion membership -> topology is the identity, bit-exactly."""
    back = topology_from_class(topo.cat, lambda m: torsion_membership(topo, m))
    return back == topo


def composition_factors(m: FinModule, simples: IsoClasses) -> frozenset:
    """The class indices in `simples` of the composition factors of m, found
    by peeling off one simple submodule at a time (by Jordan-Hoelder the set
    does not depend on which one)."""
    out = set()
    while m.total_dim():
        sub = simple_submodules(m)[0]
        out.add(simples.find(submodule_module(sub)[0]))
        m, _ = quotient_module(m, sub)
    return frozenset(out)


def enumerate_topologies(cat: FinCat) -> list:
    """Every Grothendieck topology, one for each set S of simple modules.

    Mod-A is locally finite, so every hereditary torsion class is a Serre
    class, fixed by the simples it contains (Gabriel, "Des categories
    abeliennes", 1962, ch. IV; Stenstroem, Rings of Quotients, 1975, ch. VI):
    J_S(a) holds the R <= H_a whose quotient H_a/R has every composition
    factor in S.  The factors of each quotient are found once, and each J_S
    is still checked against the axioms."""
    simples = IsoClasses(simple_modules(cat))
    check_vector_cap(2 ** len(simples.classes), "enumerate_topologies: sets of simple modules")
    factored = [(a, sub, composition_factors(q, simples))
                for a, sub, q in representable_quotients(cat)]
    out = []
    for picks in itertools.product([False, True], repeat=len(simples.classes)):
        chosen = frozenset(i for i, take in enumerate(picks) if take)
        families = {}
        for a, sub, factors in factored:
            if factors <= chosen:
                families.setdefault(a, []).append(sub)
        topo = Topology(cat, families)
        violations = check_topology(cat, topo)
        if violations:
            raise RuntimeError(f"topology of simples {sorted(chosen)} fails the {violations[0]['axiom']} axiom")
        out.append(topo)
    out.sort(key=lambda t: (t.size(), t.key()))
    return out


def has_fg_basis(topo: Topology) -> bool:
    """Below every covering submodule sits a finitely generated covering one.

    In this finite-dimensional setting every submodule is generated by its
    finitely many elements, so the submodule itself qualifies; the check is
    performed literally all the same."""
    for a in topo.cat.objects:
        h = representable(topo.cat, a)
        for rsub in topo.families[a]:
            found = False
            for cand in topo.families[a]:
                if not rsub.contains(cand):
                    continue
                regen = zero_submodule(h)
                for b in topo.cat.objects:
                    for v in cand.spaces[b].basis_vectors():
                        regen = regen.sum(cyclic_submodule(h, b, v))
                if regen.key() == cand.key():
                    found = True
                    break
            if not found:
                return False
    return True


def topology_seeds(topo: Topology) -> list:
    """The quotients H_a / R of the representables by every covering
    submodule R: the seeds whose hereditary closure is the topology's
    torsion class."""
    return [q for a, sub, q in representable_quotients(topo.cat) if topo.covers(a, sub)]


def _seed_indices(census: ModuleCensus, seeds, bound: int) -> set:
    """The census class indices of the seeds of dimension <= bound; larger
    seeds are skipped, and a bounded seed outside the census raises."""
    out = set()
    for s in seeds:
        if s.total_dim() <= bound:
            idx = census.index.find(s)
            if idx is None:
                raise RuntimeError("seed not found in census")
            out.add(idx)
    return out


def hereditary_closure_oracle(cat: FinCat, seeds, bound: int):
    """Close the seed iso-classes under submodules, quotients, direct sums and
    extensions, inside the census of modules of dimension <= bound.  The
    closure is generated from the simple-submodule pairs (S, M/S) of the
    census members; `ModuleCensus.close` shows that these reach every
    subquotient and every extension inside the bound.

    Sound by construction (every member has a construction tree); complete on
    the census whenever the target class is generated by the seeds, since a
    bounded module built from quotients of seeds assembles through modules of
    no larger dimension.  The membership is total on the census and raises
    beyond it.  The predicate carries the closed class indices as
    `census_fingerprint`.
    """
    census = module_census(cat, bound)
    member = census.close(_seed_indices(census, seeds, bound) | {census.zero_index})

    def membership(m: FinModule) -> bool:
        if m.total_dim() > bound:
            raise ValueError(f"closure oracle is only total up to dimension {bound}")
        return census.index.find(m) in member

    membership.census_fingerprint = member
    return membership


def hereditary_class_sweep(cat: FinCat, bound: int):
    """Every hereditary torsion class fingerprint on the census, found without
    the topology axioms: the closures of all subsets of the
    quotients-of-representables seed family, reached by joining one seed at
    a time to the closed classes already found.

    Any hereditary torsion class is generated by the quotients H_a/R it
    contains, so the closures of the seed subsets reach every class whose
    generators sit inside the census.  Closure is a closure operator, so
    cl(S + s) = cl(cl(S) + s): starting from the closure of zero and adding
    each seed missing from each class found reaches every cl(S) with one
    closure per (class, missing seed).  An independent count for the
    topology enumeration.
    """
    census = module_census(cat, bound)
    seeds = [q for _, _, q in representable_quotients(cat)]
    seed_indices = sorted(_seed_indices(census, seeds, bound))
    fingerprints = join_closure(
        census.close({census.zero_index}),
        lambda closed: seed_indices,
        lambda closed, s: closed if s in closed else census.close(closed | {s}),
        lambda closed: closed,
    )
    return sorted(fingerprints, key=sorted)
