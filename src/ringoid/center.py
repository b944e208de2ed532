"""The center of a FinCat: natural transformations of the identity functor.

An element is a family of endomorphisms commuting with every morphism; the
defining equations are linear, so the center is a kernel computation.  Its
idempotents classify the direct-sum decompositions of the regular bimodule,
which is the combinatorial heart of the split-TTF detection.
"""

from __future__ import annotations

from .category import FinCat, Morphism, derived
from .ideals import Ideal, enumerate_ideals
from .linalg import Mat, check_vector_cap, kernel_basis, matrix_kernel, packed_idempotents


class CenterElement:
    """One endomorphism per object, natural against every hom basis element."""

    def __init__(self, cat: FinCat, components):
        self.cat = cat
        self.components = {a: components[a] for a in cat.objects}

    def __eq__(self, other):
        return isinstance(other, CenterElement) and self.components == other.components

    def __hash__(self):
        return hash(tuple(self.components[a] for a in self.cat.objects))

    def __repr__(self):
        return f"CenterElement({ {a: m.coords for a, m in self.components.items()} })"


class CenterAlgebra:
    """A basis of the center with its multiplication table and unit coordinates."""

    def __init__(self, cat: FinCat, basis, mult, unit):
        self.cat = cat
        self.basis = list(basis)
        self.mult = mult  # mult[i][j]: coordinates of basis_i * basis_j
        self.unit = tuple(unit)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coords) -> CenterElement:
        cat = self.cat
        comps = {}
        for a in cat.objects:
            m = cat.zero(a, a)
            for c, z in zip(coords, self.basis):
                if c:
                    m = cat.add(m, cat.scale(c, z.components[a]))
            comps[a] = m
        return CenterElement(cat, comps)


def compute_center(cat: FinCat) -> CenterAlgebra:
    """Solve the naturality system and assemble the multiplication table."""
    return derived(cat, ("center",), lambda: _build_center(cat))


def _build_center(cat: FinCat) -> CenterAlgebra:
    p = cat.p
    # z_a is the row of its coordinates in A(a, a)
    shapes = {a: (1, cat.hom_dim[(a, a)]) for a in cat.objects}
    equations = []
    for a in cat.objects:
        for b in cat.objects:
            for u in cat.basis(a, b):
                # z_b . u - u . z_a = 0 in A(a, b); row k composes with basis z_k
                left = cat.precompose_matrix(u, b).transpose()
                right = cat.postcompose_matrix(u, a).transpose()
                equations.append([(1, None, b, left), (-1, None, a, right)])
    ker, pack, unpack = matrix_kernel(p, shapes, equations)
    basis = []
    for v in ker.basis_vectors():
        comps = unpack(v)
        basis.append(CenterElement(cat, {a: Morphism(a, a, comps[a].row(0)) for a in cat.objects}))

    def to_coords(elem: CenterElement):
        coords = ker.coords(pack({a: Mat.from_rows(p, [elem.components[a].coords]) for a in cat.objects}))
        if coords is None:
            raise RuntimeError("element is not central")
        return coords

    mult = []
    for zi in basis:
        row = []
        for zj in basis:
            prod = CenterElement(
                cat, {a: cat.compose(zi.components[a], zj.components[a]) for a in cat.objects}
            )
            row.append(to_coords(prod))
        mult.append(row)
    identity = CenterElement(cat, {a: cat.identity(a) for a in cat.objects})
    unit = to_coords(identity)
    return CenterAlgebra(cat, basis, mult, unit)


def center_idempotents(z: CenterAlgebra) -> list:
    """All solutions of e * e = e in the center, by exhaustive scan of the
    packed multiplication table (`packed_idempotents`), once per category."""
    check_vector_cap(z.cat.p ** z.dim, "center_idempotents: p^dim Z")
    return derived(z.cat, ("center idempotents",), lambda: [(c, z.element(c)) for c in packed_idempotents(z.cat.p, z.mult)])


def ideal_of_idempotent(cat: FinCat, eps: CenterElement):
    """(I, I'): the ideal of morphisms fixed by the idempotent and its
    complementary ideal of morphisms killed by it."""
    fixed = {}
    killed = {}
    for a in cat.objects:
        for b in cat.objects:
            post = cat.postcompose_matrix(eps.components[b], a)
            fixed[(a, b)] = kernel_basis(post - Mat.identity(cat.p, cat.hom_dim[(a, b)]))
            killed[(a, b)] = kernel_basis(post)
    return Ideal(cat, fixed), Ideal(cat, killed)


def central_idempotent_ideals(cat: FinCat) -> list:
    """(coords, eps, I_eps, I'_eps) for every central idempotent, in
    `center_idempotents` order, built once per category."""
    return derived(cat, ("central idempotent ideals",), lambda: [
        (coords, eps, *ideal_of_idempotent(cat, eps))
        for coords, eps in center_idempotents(compute_center(cat))
    ])


def summand_bijection_check(cat: FinCat) -> dict:
    """Compare the direct summands of the regular bimodule with the central
    idempotents: counts match, complements are unique, every summand is I_e."""
    ideals = enumerate_ideals(cat)
    idems = central_idempotent_ideals(cat)
    summands = []
    complements = {}
    for i in ideals:
        comps = [j for j in ideals if i.sum(j).is_full() and i.intersect(j).is_zero()]
        if comps:
            summands.append(i)
            complements[i.key()] = comps
    images = {i_eps.key(): (coords, i_comp) for coords, _, i_eps, i_comp in idems}
    report = {
        "summands": len(summands),
        "central_idempotents": len(idems),
        "counts_match": len(summands) == len(idems),
        "unique_complements": all(len(v) == 1 for v in complements.values()),
        "every_summand_is_image": all(s.key() in images for s in summands),
        "injective": len(images) == len(idems),
    }
    report["pass"] = all(
        report[k] for k in ("counts_match", "unique_complements", "every_summand_is_image", "injective")
    )
    return report
