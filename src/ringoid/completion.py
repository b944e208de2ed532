"""Additive closure of a FinCat and the full subcategories of its idempotent
completion (corners, the completion itself among them), with bounded tuples.

The full Cauchy completion is infinite; every operation here takes an
explicit tuple-length bound and is a bounded approximation, which is all the
desk-scale checks ever need.  Objects of the closure are tuples of base
objects (the empty tuple is the zero object); morphisms are matrices of base
morphisms and compose by row-by-column multiplication.
"""

from __future__ import annotations

import itertools
import json

from .category import FinCat, Morphism, derived, list_idempotents, transfer_category
from .linalg import CapExceeded, Mat, Subspace, image_basis
from .modules import (FinModule, ModuleMap, direct_sum, image, representable, restrict_along, submodule_module,
                      zero_module)

MAX_CLOSURE_OBJECTS = 130
CLOSURE_OBJECTS = "additive_closure: tuple objects"
ENVELOPE_OBJECTS = "idempotent_completion: idempotent objects"


def tuple_id(components) -> str:
    """The object id of a tuple: its components in parentheses, separated by
    commas.  A component that is empty or holds a comma or a double quote is
    JSON-quoted, so distinct tuples get distinct ids."""
    return "(" + ",".join(json.dumps(c) if c == "" or "," in c or '"' in c else c for c in components) + ")"


def closure_tuples(objects, bound: int):
    """The tuples of the closure at `bound`, in closure order: the empty
    tuple, then lengths 1 .. bound in `itertools.product` order."""
    if bound < 1:
        raise ValueError("tuple bound must be at least 1")
    return itertools.chain([()], *(itertools.product(objects, repeat=l) for l in range(1, bound + 1)))


def check_closure_objects(count: int) -> None:
    """Refuse a closure of more than MAX_CLOSURE_OBJECTS tuple objects."""
    if count > MAX_CLOSURE_OBJECTS:
        raise CapExceeded(f"additive closure would have {count} objects, over cap {MAX_CLOSURE_OBJECTS}",
                          CLOSURE_OBJECTS, count, MAX_CLOSURE_OBJECTS)


def check_envelope_objects(count: int) -> None:
    """Refuse a Karoubi envelope of more than MAX_CLOSURE_OBJECTS idempotent
    objects."""
    if count > MAX_CLOSURE_OBJECTS:
        raise CapExceeded(f"idempotent completion would have {count} objects, over cap {MAX_CLOSURE_OBJECTS}",
                          ENVELOPE_OBJECTS, count, MAX_CLOSURE_OBJECTS)


class AdditiveClosure:
    """The additive closure on the given tuples: tuple objects and matrix
    morphisms.  `bound` is the longest tuple length."""

    def __init__(self, base: FinCat, tuples):
        tuples = list(tuples)
        self.base = base
        self.bound = max(map(len, tuples), default=0)
        check_closure_objects(len(tuples))
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
                    zero = (0,) * d3
                    table = []
                    for (i, j, k) in lay1:
                        row = []
                        for (j2, l, k2) in lay2:
                            if j != j2:
                                row.append(zero)
                                continue
                            coeffs = base.compose_basis(s[i], t[j], u[l], k, k2)
                            off = offs3[(i, l)]
                            row.append(zero[:off] + coeffs + zero[off + len(coeffs):])
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
        self.cat = FinCat._built(p, objects, hom, comp, ids,
                                 f"add({base.name},{self.bound})" if base.name else "additive-closure")

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
    """The closure on every tuple of length at most `bound`, refused from the
    count 1 + n + ... + n^bound of n objects before any tuple is listed."""
    check_closure_objects(sum(len(base.objects) ** l for l in range(bound + 1)))
    return closure_on(base, closure_tuples(base.objects, bound))


def closure_on(base: FinCat, tuples) -> AdditiveClosure:
    """The closure on the given tuples, built once per category and tuple
    list."""
    tuples = tuple(tuples)
    return derived(base, ("additive-closure", tuples), lambda: AdditiveClosure(base, tuples))


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


class CornerCategory:
    """The full subcategory of the Karoubi envelope on named idempotents of
    closure objects, with the restriction j^* of closure modules to it.
    `carrier` maps each object to its idempotent.

    The hom space eps1 -> eps2 is the sandwich image eps2 . A . eps1, which
    for idempotents is the subspace of morphisms f with eps2 f eps1 = f, and
    the identity of eps is eps itself.  _lift[(o1, o2)] holds the RREF basis
    of that subspace as columns of closure coordinates.

    Column j of post[(o2, t1)] @ pre[(o1, t2)] is e2 . f_j . e1 for the j-th
    basis element f_j of A(t1, t2), where t = e.src is a carrier, so the
    pre- and postcomposition matrices are built once per (idempotent,
    carrier) and each hom space is the image of one product.
    """

    def __init__(self, closure: AdditiveClosure, idempotents: dict, name: str):
        ccat = closure.cat
        for eps in idempotents.values():
            if ccat.compose(eps, eps) != eps:
                raise ValueError("corner objects must be idempotent endomorphisms")
        self.closure = closure
        self.carrier = idempotents
        carriers = list(dict.fromkeys(e.src for e in idempotents.values()))
        pre = {(o, t): ccat.precompose_matrix(e, t) for o, e in idempotents.items() for t in carriers}
        post = {(o, s): ccat.postcompose_matrix(e, s) for o, e in idempotents.items() for s in carriers}
        self._lift = {}
        encode = {}
        for o1, e1 in idempotents.items():
            for o2, e2 in idempotents.items():
                sub = image_basis(post[(o2, e1.src)] @ pre[(o1, e2.src)])
                self._lift[(o1, o2)] = sub.basis_matrix()
                encode[(o1, o2)] = sub.coords
        self.cat = transfer_category(ccat, list(idempotents), {o: e.src for o, e in idempotents.items()},
                                     self._lift, encode, {o: e.coords for o, e in idempotents.items()}, name=name)

    def restriction_data(self, m: FinModule):
        """(j* module, per-object image subspaces), built once per module."""
        return derived(self.cat, ("j*", m.key()), lambda: self._restrict(m))

    def _restrict(self, m: FinModule):
        """j* M(o) is the image of M(eps_o); a corner morphism o1 -> o2 acts
        by M of its closure lift, read from image o2 into image o1."""
        images = {o: image_basis(self.closure.act(m, eps)) for o, eps in self.carrier.items()}
        lifts = {o: img.basis_matrix() for o, img in images.items()}

        def act(f: Morphism) -> Mat:
            gamma = Morphism(self.carrier[f.src].src, self.carrier[f.tgt].src, f.coords)
            moved = self.closure.act(m, gamma) @ lifts[f.tgt]
            read = images[f.src].coords_matrix(moved.transpose().entries)
            if read is None:
                raise RuntimeError("corner action does not preserve the images")
            return read

        mod = restrict_along(self.cat, {o: img.dim for o, img in images.items()}, act, self._lift,
                             f"j*({m.name})" if m.name else "")
        return mod, images


def idempotent_completion(base: FinCat, bound: int) -> CornerCategory:
    """The Karoubi envelope of the bounded additive closure: the corner on
    every idempotent of every closure object, `{t}#{n}` naming the n-th
    idempotent of t.  The tables grow with the cube of the object count, so
    more than MAX_CLOSURE_OBJECTS objects are refused before any table is
    built."""
    closure = additive_closure(base, bound)
    idempotents = {f"{t}#{n}": eps for t in closure.cat.objects
                   for n, eps in enumerate(list_idempotents(closure.cat, t))}
    check_envelope_objects(len(idempotents))
    return CornerCategory(closure, idempotents, f"karoubi({base.name},{bound})" if base.name else "karoubi")


def proj_module_of_idempotent(closure: AdditiveClosure, eps: Morphism):
    """The finitely generated projective base module cut out by an idempotent
    endomorphism of a tuple object t: the image of eps on H_t1 + ... + H_tk,
    whose block (l, j) at a is postcomposition with eps_jl: t_j -> t_l."""
    if closure.cat.compose(eps, eps) != eps:
        raise ValueError("not an idempotent")
    base, t = closure.base, closure.tuples[eps.src]
    amb = direct_sum(*(representable(base, c) for c in t)) if t else zero_module(base)
    sizes = {a: [base.hom_dim[(a, c)] for c in t] for a in base.objects}
    comps = {a: Mat.from_blocks(base.p, sizes[a], sizes[a], {
        (l, j): base.postcompose_matrix(closure.block(eps, j, l), a) for j in range(len(t)) for l in range(len(t))
    }) for a in base.objects}
    return submodule_module(image(ModuleMap(amb, amb, comps)))


def find_oplus_generator(base: FinCat, bound: int):
    """A tuple g such that every identity factors through a power of g.

    Factorization through some finite power is a span condition: id_a must lie
    in the span of composites (g -> a) . (a -> g), which is the span of the
    sandwiches of the id_{g_i} in A(a, a).  Returns the first tuple in
    closure order, or None within the bound.
    """
    through = {(c, a): base.sandwich_span(base.identity(c), a, a) for c in base.objects for a in base.objects}
    for g in closure_tuples(base.objects, bound):
        if all(Subspace.from_vectors(base.p, base.hom_dim[(a, a)], [v for c in g for v in through[(c, a)]])
               .contains(base.id_coords[a]) for a in base.objects):
            return g
    return None
