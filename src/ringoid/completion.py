"""Additive closure and idempotent completion of a FinCat, with bounded tuples.

The full Cauchy completion is infinite; every operation here takes an
explicit tuple-length bound and is a bounded approximation, which is all the
desk-scale checks ever need.  Objects of the closure are tuples of base
objects (the empty tuple is the zero object); morphisms are matrices of base
morphisms and compose by row-by-column multiplication.
"""

from __future__ import annotations

import functools
import itertools

from .category import FinCat, Morphism, derived, list_idempotents, transfer_category
from .linalg import CapExceeded, Mat, Subspace, check_vector_cap
from .modules import (
    FinModule,
    ModuleMap,
    cyclic_submodule,
    direct_sum,
    enumerate_modules,
    image,
    kernel,
    representable,
    submodule_module,
    zero_module,
    zero_submodule,
)

MAX_CLOSURE_OBJECTS = 130
CLOSURE_OBJECTS = "additive_closure: tuple objects"


def tuple_id(components) -> str:
    return "(" + ",".join(components) + ")"


class AdditiveClosure:
    """The bounded additive closure: tuple objects and matrix morphisms."""

    def __init__(self, base: FinCat, bound: int):
        if bound < 1:
            raise ValueError("tuple bound must be at least 1")
        self.base = base
        self.bound = bound
        tuples = [()]
        for l in range(1, bound + 1):
            tuples.extend(itertools.product(base.objects, repeat=l))
        if len(tuples) > MAX_CLOSURE_OBJECTS:
            raise CapExceeded(
                f"additive closure would have {len(tuples)} objects, over cap {MAX_CLOSURE_OBJECTS}",
                CLOSURE_OBJECTS, len(tuples), MAX_CLOSURE_OBJECTS,
            )
        self.tuples = {tuple_id(t): t for t in tuples}
        objects = [tuple_id(t) for t in tuples]
        self._layout = {}
        hom = {}
        for s_id, s in self.tuples.items():
            for t_id, t in self.tuples.items():
                layout = []
                offs = {}
                total = 0
                for i, si in enumerate(s):
                    for j, tj in enumerate(t):
                        d = base.hom_dim[(si, tj)]
                        offs[(i, j)] = total
                        for k in range(d):
                            layout.append((i, j, k))
                        total += d
                self._layout[(s_id, t_id)] = (layout, offs, total)
                hom[(s_id, t_id)] = total
        comp = {}
        p = base.p
        for s_id, s in self.tuples.items():
            for t_id, t in self.tuples.items():
                d1 = hom[(s_id, t_id)]
                if d1 == 0:
                    continue
                lay1, _, _ = self._layout[(s_id, t_id)]
                for u_id, u in self.tuples.items():
                    d2 = hom[(t_id, u_id)]
                    d3 = hom[(s_id, u_id)]
                    if d2 == 0 or d3 == 0:
                        continue
                    lay2, _, _ = self._layout[(t_id, u_id)]
                    _, offs3, _ = self._layout[(s_id, u_id)]
                    table = []
                    for (i, j, k) in lay1:
                        row = []
                        for (j2, l, k2) in lay2:
                            vec = [0] * d3
                            if j == j2:
                                coeffs = base.compose_basis(s[i], t[j], u[l], k, k2)
                                off = offs3[(i, l)]
                                for k3, cf in enumerate(coeffs):
                                    vec[off + k3] = cf
                            row.append(tuple(vec))
                        table.append(tuple(row))
                    comp[(s_id, t_id, u_id)] = tuple(table)
        ids = {}
        for s_id, s in self.tuples.items():
            _, offs, total = self._layout[(s_id, s_id)]
            v = [0] * total
            for i, si in enumerate(s):
                off = offs[(i, i)]
                for k, cf in enumerate(base.id_coords[si]):
                    v[off + k] = cf
            ids[s_id] = tuple(v)
        self.cat = FinCat(p, objects, hom, comp, ids,
                          name=f"add({base.name},{bound})" if base.name else "additive-closure")

    def embed_object(self, a: str) -> str:
        return tuple_id((a,))

    def embed_morphism(self, f: Morphism) -> Morphism:
        return Morphism(self.embed_object(f.src), self.embed_object(f.tgt), f.coords)

    def block(self, f: Morphism, i: int, j: int) -> Morphism:
        """Component s_i -> t_j of a matrix morphism."""
        s = self.tuples[f.src]
        t = self.tuples[f.tgt]
        _, offs, _ = self._layout[(f.src, f.tgt)]
        d = self.base.hom_dim[(s[i], t[j])]
        off = offs[(i, j)]
        return Morphism(s[i], t[j], f.coords[off: off + d])

    def from_blocks(self, s_tuple, t_tuple, blocks) -> Morphism:
        """Assemble a matrix morphism from components blocks[(i, j)]."""
        s_id, t_id = tuple_id(s_tuple), tuple_id(t_tuple)
        _, offs, total = self._layout[(s_id, t_id)]
        v = [0] * total
        for (i, j), g in blocks.items():
            if (g.src, g.tgt) != (s_tuple[i], t_tuple[j]):
                raise ValueError(f"block ({i},{j}) has wrong endpoints")
            off = offs[(i, j)]
            for k, cf in enumerate(g.coords):
                v[off + k] = cf
        return Morphism(s_id, t_id, v)

    def act(self, m: FinModule, f: Morphism) -> Mat:
        """The matrix of the induced module at f, without inducing it: block
        (i, j) is m at the component s_i -> t_j."""
        s, t = self.tuples[f.src], self.tuples[f.tgt]
        return Mat.from_blocks(m.p, [m.dims[c] for c in s], [m.dims[c] for c in t], {
            (i, j): m.act(self.block(f, i, j)) for i in range(len(s)) for j in range(len(t))
        })


def additive_closure(base: FinCat, bound: int) -> AdditiveClosure:
    return derived(base, ("additive-closure", bound), lambda: AdditiveClosure(base, bound))


def induce_module(closure: AdditiveClosure, m: FinModule) -> FinModule:
    """The canonical extension of a base module: block sums on tuples."""
    sizes = {t_id: [m.dims[c] for c in t] for t_id, t in closure.tuples.items()}
    action = {}
    for (s_id, t_id), (layout, _, _) in closure._layout.items():
        s, t = closure.tuples[s_id], closure.tuples[t_id]
        for idx, (i, j, k) in enumerate(layout):
            action[(s_id, t_id, idx)] = Mat.from_blocks(
                m.p, sizes[s_id], sizes[t_id], {(i, j): m.action[(s[i], t[j], k)]}
            )
    dims = {t_id: sum(sz) for t_id, sz in sizes.items()}
    return FinModule(closure.cat, dims, action, name=f"ind({m.name})" if m.name else "")


def restrict_module(closure: AdditiveClosure, n: FinModule) -> FinModule:
    """Restriction along the singleton embedding."""
    base = closure.base
    dims = {a: n.dims[closure.embed_object(a)] for a in base.objects}
    action = {}
    for a in base.objects:
        for b in base.objects:
            for k in range(base.hom_dim[(a, b)]):
                action[(a, b, k)] = n.action[(closure.embed_object(a), closure.embed_object(b), k)]
    return FinModule(base, dims, action, name=f"res({n.name})" if n.name else "")


def coproduct_of_representables(cat: FinCat, components) -> FinModule:
    """The direct sum of H_c over the given base objects, in component order."""
    out = functools.reduce(direct_sum, [representable(cat, c) for c in components], zero_module(cat))
    out.name = "+".join(f"H_{c}" for c in components) or "0"
    return out


def blocks_map(cat: FinCat, src_tuple, tgt_tuple, blocks) -> ModuleMap:
    """The module map between coproducts of representables induced by a block
    matrix of base morphisms (blocks[i][j]: src_i -> tgt_j)."""
    comps = {
        a: Mat.from_blocks(cat.p, [cat.hom_dim[(a, t)] for t in tgt_tuple],
                           [cat.hom_dim[(a, s)] for s in src_tuple],
                           {(j, i): cat.postcompose_matrix(blocks[i][j], a)
                            for i in range(len(src_tuple)) for j in range(len(tgt_tuple))})
        for a in cat.objects
    }
    return ModuleMap(coproduct_of_representables(cat, src_tuple),
                     coproduct_of_representables(cat, tgt_tuple), comps)


def pseudo_kernel(cat: FinCat, src_tuple, tgt_tuple, blocks):
    """A pseudo-kernel of a map between coproducts of representables.

    Returns (ker_tuple, psi_blocks): a tuple of base objects and a block
    matrix psi with phi . psi = 0, through which every map from a
    representable into the kernel factors.  Construction: take the module
    kernel, pick generators, and read the corresponding matrix off Yoneda.
    """
    phi = blocks_map(cat, src_tuple, tgt_tuple, blocks)
    k = kernel(phi)
    msrc = phi.src
    gens = []
    acc = zero_submodule(msrc)
    for c in cat.objects:
        for v in k.spaces[c].basis_vectors():
            grown = acc.sum(cyclic_submodule(msrc, c, v))
            if grown.total_dim() > acc.total_dim():
                acc = grown
                gens.append((c, v))
        if acc.total_dim() == k.total_dim():
            break
    ker_tuple = tuple(c for c, _ in gens)
    psi_blocks = []
    for c, v in gens:
        # v lies in the sum of the A(c, s_i), one block per component
        row = []
        off = 0
        for si in src_tuple:
            d = cat.hom_dim[(c, si)]
            row.append(Morphism(c, si, v[off: off + d]))
            off += d
        psi_blocks.append(row)
    return ker_tuple, psi_blocks


def compose_block_matrices(cat: FinCat, f_blocks, g_blocks):
    """(g . f) for block matrices f: s -> t, g: t -> u of base morphisms."""
    out = []
    for i, frow in enumerate(f_blocks):
        row = []
        for l in range(len(g_blocks[0]) if g_blocks else 0):
            acc = None
            for j, fij in enumerate(frow):
                term = cat.compose(g_blocks[j][l], fij)
                acc = term if acc is None else cat.add(acc, term)
            row.append(acc)
        out.append(row)
    return out


def idempotent_subcategory(closure: AdditiveClosure, idempotents, name: str):
    """The full subcategory of the Karoubi envelope on named idempotents of
    closure objects, as (category, lift).

    The hom space eps1 -> eps2 is the sandwich image eps2 . A . eps1, which
    for idempotents is the subspace of morphisms f with eps2 f eps1 = f, and
    the identity of eps is eps itself.  lift[(o1, o2)] holds the RREF basis of
    that subspace as columns of closure coordinates.
    """
    ccat = closure.cat
    lift = {}
    encode = {}
    for o1, e1 in idempotents.items():
        for o2, e2 in idempotents.items():
            sub = Subspace.from_vectors(ccat.p, ccat.hom_dim[(e1.src, e2.src)], [
                ccat.compose(ccat.compose(e2, f), e1).coords for f in ccat.basis(e1.src, e2.src)
            ])
            lift[(o1, o2)] = sub.basis_matrix()
            encode[(o1, o2)] = sub.coords
    cat = transfer_category(
        ccat,
        list(idempotents),
        {o: e.src for o, e in idempotents.items()},
        lift,
        encode,
        {o: e.coords for o, e in idempotents.items()},
        name=name,
    )
    return cat, lift


class IdemObject:
    def __init__(self, carrier_id: str, carrier, idem: Morphism):
        self.carrier_id = carrier_id
        self.carrier = carrier
        self.idem = idem


class IdempotentCompletion:
    """The Karoubi envelope of the bounded additive closure.

    Objects are pairs (tuple object, idempotent endomorphism); the hom space
    of (t, r) -> (u, s) is the subspace of closure morphisms fixed by the
    two-sided sandwich with s and r, and the identity of (t, r) is r itself.
    """

    def __init__(self, base: FinCat, bound: int):
        self.base = base
        self.closure = additive_closure(base, bound)
        ccat = self.closure.cat
        self.objects_meta = {}
        for t_id in ccat.objects:
            for n, eps in enumerate(list_idempotents(ccat, t_id)):
                self.objects_meta[f"{t_id}#{n}"] = IdemObject(t_id, self.closure.tuples[t_id], eps)
        self.cat, _ = idempotent_subcategory(
            self.closure,
            {o: m.idem for o, m in self.objects_meta.items()},
            f"karoubi({base.name},{bound})" if base.name else "karoubi",
        )


def idempotent_completion(base: FinCat, bound: int) -> IdempotentCompletion:
    return IdempotentCompletion(base, bound)


def proj_module_of_idempotent(closure: AdditiveClosure, eps: Morphism):
    """The finitely generated projective base module cut out by an idempotent
    endomorphism of a tuple object: the image of postcomposition with it."""
    ccat = closure.cat
    if ccat.compose(eps, eps) != eps:
        raise ValueError("not an idempotent")
    base = closure.base
    x_id = eps.src
    amb = restrict_h(closure, x_id)
    comps = {a: ccat.postcompose_matrix(eps, closure.embed_object(a)) for a in base.objects}
    phi = ModuleMap(amb, amb, comps)
    p_sub = image(phi)
    mod, incl = submodule_module(p_sub)
    return mod, incl


def restrict_h(closure: AdditiveClosure, t_id: str) -> FinModule:
    """The base module c -> closure(c, t), the coproduct of representables."""
    return restrict_module(closure, representable(closure.cat, t_id))


def objects_isomorphic(cat: FinCat, a: str, b: str) -> bool:
    """Exhaustive mutually-inverse morphism search, behind a hom-dim prefilter."""
    if a == b:
        return True
    if (
        cat.hom_dim[(a, b)] != cat.hom_dim[(b, a)]
        or cat.hom_dim[(a, a)] != cat.hom_dim[(b, b)]
    ):
        return False
    check_vector_cap(cat.p ** cat.hom_dim[(a, b)], f"objects_isomorphic: p^dim A({a},{b})")
    ida, idb = cat.identity(a), cat.identity(b)
    for f in cat.elements(a, b):
        gf_candidates = [g for g in cat.elements(b, a) if cat.compose(g, f) == ida]
        if any(cat.compose(f, g) == idb for g in gf_candidates):
            return True
    return False


def morita_invariants(cat: FinCat, census_bound: int = 4) -> dict:
    """The completion-stable fingerprint: center dimension, idempotent counts
    per endo algebra, and the module census profile by total dimension.

    Equality of these invariants never certifies a Morita equivalence; a
    candidate equivalence can be checked explicitly with
    check_equivalence_candidate.
    """
    from .center import compute_center  # local: center imports ideals, which imports this module

    idem_counts = sorted(len(list_idempotents(cat, a)) for a in cat.objects)
    census = enumerate_modules(cat, census_bound)
    profile = [0] * (census_bound + 1)
    for m in census:
        profile[m.total_dim()] += 1
    return {
        "center_dim": compute_center(cat).dim,
        "idempotent_counts": idem_counts,
        "census_profile": profile,
    }


def check_equivalence_candidate(src: FinCat, tgt: FinCat, object_map, coord_maps) -> dict:
    """Verify a user-supplied functor as an equivalence.

    object_map sends source objects to target objects; coord_maps[(a, b)] is
    the matrix taking coordinates in src(a, b) to coordinates in
    tgt(object_map[a], object_map[b]).  Checks: identities and composition are
    preserved, every hom matrix is invertible (full faithfulness), and every
    target object is isomorphic to an image object (essential surjectivity,
    decided by exhaustive inverse search).
    """
    functorial = True
    for a in src.objects:
        fa = object_map[a]
        mapped = coord_maps[(a, a)].apply(src.id_coords[a])
        if mapped != tgt.id_coords[fa]:
            functorial = False
    for a in src.objects:
        for b in src.objects:
            for f in src.basis(a, b):
                for c in src.objects:
                    for g in src.basis(b, c):
                        lhs = coord_maps[(a, c)].apply(src.compose(g, f).coords)
                        rhs = tgt.compose(
                            Morphism(object_map[b], object_map[c], coord_maps[(b, c)].apply(g.coords)),
                            Morphism(object_map[a], object_map[b], coord_maps[(a, b)].apply(f.coords)),
                        ).coords
                        if lhs != rhs:
                            functorial = False
    fully_faithful = all(
        coord_maps[(a, b)].rows == coord_maps[(a, b)].cols == src.hom_dim[(a, b)]
        and tgt.hom_dim[(object_map[a], object_map[b])] == src.hom_dim[(a, b)]
        and coord_maps[(a, b)].rank() == src.hom_dim[(a, b)]
        for a in src.objects
        for b in src.objects
    )
    hit = set(object_map[a] for a in src.objects)
    essentially_surjective = all(
        any(objects_isomorphic(tgt, t, h) for h in hit) for t in tgt.objects
    )
    return {
        "functorial": functorial,
        "fully_faithful": fully_faithful,
        "essentially_surjective": essentially_surjective,
        "equivalence": functorial and fully_faithful and essentially_surjective,
    }


def find_oplus_generator(base: FinCat, bound: int):
    """A tuple g such that every identity factors through a power of g.

    Factorization through some finite power is a span condition: id_a must lie
    in the span of composites (g -> a) . (a -> g).  Returns the first tuple in
    the deterministic object order, or None within the bound.
    """
    closure = additive_closure(base, bound)
    ccat = closure.cat
    for g_id in ccat.objects:
        ok = True
        for a in base.objects:
            a_id = closure.embed_object(a)
            vecs = []
            for u in ccat.basis(a_id, g_id):
                for v in ccat.basis(g_id, a_id):
                    vecs.append(ccat.compose(v, u).coords)
            span = Subspace.from_vectors(base.p, base.hom_dim[(a, a)], vecs)
            if not span.contains(base.id_coords[a]):
                ok = False
                break
        if ok:
            return closure.tuples[g_id]
    return None
