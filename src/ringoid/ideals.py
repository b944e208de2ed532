"""Two-sided ideal calculus for a FinCat.

An ideal assigns a subspace of A(a, b) to every ordered pair, closed under
composition with arbitrary morphisms on both sides.  Enumeration rests on the
fact that every ideal is a sum of principal ideals of its elements, so the
joins of the zero ideal with principal ideals are the whole ideal lattice.
"""

from __future__ import annotations

from .category import FinCat, Morphism, derived, list_idempotents, transfer_category
from .completion import closure_on, closure_tuples, tuple_id
from .linalg import Subspace, SubspaceFamily, check_vector_cap, complement_data, vector_cap
from .modules import FinModule, module_times_ideal, quotient_module, quotient_point_walk, restrict_along


class Ideal(SubspaceFamily):
    """spaces[(a, b)]: a canonical subspace of the coordinates of A(a, b)."""

    def __init__(self, cat: FinCat, spaces):
        self.cat = cat
        super().__init__(cat.p, cat.hom_dim, spaces)

    def __repr__(self):
        dims = {pair: s.dim for pair, s in self.spaces.items() if s.dim}
        return f"Ideal(dims={dims or 0})"

    def contains_morphism(self, f: Morphism) -> bool:
        return self.spaces[(f.src, f.tgt)].contains(f.coords)

    def morphism_basis(self, a: str, b: str):
        return [Morphism(a, b, v) for v in self.spaces[(a, b)].basis_vectors()]

    def validate(self) -> list:
        """Two-sided closure on basis elements; violations reported, not raised."""
        cat = self.cat
        report = []
        for (a, b), s in self.spaces.items():
            for v in s.basis_vectors():
                f = Morphism(a, b, v)
                for c in cat.objects:
                    for l in cat.basis(b, c):
                        if not self.contains_morphism(cat.compose(l, f)):
                            report.append({"kind": "left", "at": (a, b, c)})
                    for r in cat.basis(c, a):
                        if not self.contains_morphism(cat.compose(f, r)):
                            report.append({"kind": "right", "at": (c, a, b)})
        return report


def zero_ideal(cat: FinCat) -> Ideal:
    return Ideal(cat, {})


def unit_ideal(cat: FinCat) -> Ideal:
    return Ideal(
        cat,
        {(a, b): Subspace.full(cat.p, cat.hom_dim[(a, b)]) for a in cat.objects for b in cat.objects},
    )


def generated_by(cat: FinCat, gens) -> Ideal:
    """Smallest ideal containing the generators.

    A general element is a sum of sandwiches (post) . g . (pre), bilinear in
    the padding morphisms, so the span over basis paddings is already
    two-sidedly closed; no fixpoint is needed.
    """
    gens = list(gens)
    spaces = {}
    for a in cat.objects:
        for b in cat.objects:
            vecs = [v for g in gens for v in cat.sandwich_span(g, a, b)]
            spaces[(a, b)] = Subspace.from_vectors(cat.p, cat.hom_dim[(a, b)], vecs)
    return Ideal(cat, spaces)


def principal(cat: FinCat, f: Morphism) -> Ideal:
    return generated_by(cat, [f])


def product(i: Ideal, j: Ideal) -> Ideal:
    """(I.J)(a, b): spans of composites through every middle object."""
    cat = i.cat
    spaces = {}
    for a in cat.objects:
        for b in cat.objects:
            vecs = []
            for c in cat.objects:
                psis = j.spaces[(a, c)].basis_vectors()
                for phi in i.morphism_basis(c, b):
                    vecs.extend(map(cat.postcompose_matrix(phi, a).apply, psis))
            spaces[(a, b)] = Subspace.from_vectors(cat.p, cat.hom_dim[(a, b)], vecs)
    return Ideal(cat, spaces)


def is_idempotent(i: Ideal) -> bool:
    return product(i, i) == i


def _check_morphism_scan(cat: FinCat) -> None:
    """The one cap on the principal-ideal scans: their generators are the
    nonzero morphisms."""
    check_vector_cap(sum(cat.p ** d - 1 for d in cat.hom_dim.values()), "principal_ideals: nonzero morphisms")


def principal_ideals(cat: FinCat) -> list:
    """The distinct principal ideals of the nonzero morphisms, in key order:
    every ideal is a sum of these."""
    _check_morphism_scan(cat)
    principals = {}
    for a in cat.objects:
        for b in cat.objects:
            for f in cat.elements(a, b):
                if f.is_zero():
                    continue
                ideal = principal(cat, f)
                principals.setdefault(ideal.key(), ideal)
    return [principals[k] for k in sorted(principals)]


def enumerate_ideals(cat: FinCat) -> list:
    """Every two-sided ideal, by `quotient_point_walk` from the zero ideal
    with the principal ideals (r) of one morphism r per point of each
    A(a, b) / I(a, b)."""
    _check_morphism_scan(cat)
    return quotient_point_walk(zero_ideal(cat), lambda pair, r: principal(cat, Morphism(*pair, r)))


def enumerate_idempotent_ideals(cat: FinCat) -> list:
    return [i for i in enumerate_ideals(cat) if is_idempotent(i)]


class QuotientCategory:
    """The quotient category A/I with its projection and a chosen basis lift."""

    def __init__(self, cat: FinCat, ideal: Ideal):
        self.base = cat
        self.ideal = ideal
        proj = {}
        lift = {}
        for pair, s in ideal.spaces.items():
            proj[pair], lift[pair] = complement_data(s)
        self.cat = transfer_category(
            cat,
            cat.objects,
            {a: a for a in cat.objects},
            lift,
            {pair: pr.apply for pair, pr in proj.items()},
            cat.id_coords,
            name=f"{cat.name}/I" if cat.name else "quotient",
        )
        self.proj = proj
        self.lift = lift


def quotient_category(cat: FinCat, ideal: Ideal) -> QuotientCategory:
    return QuotientCategory(cat, ideal)


def restrict_along_quotient(qdata: QuotientCategory, n: FinModule) -> FinModule:
    """A module over A/I viewed over A: the action factors through the projection."""
    return restrict_along(qdata.base, n.dims, n.act, qdata.proj, n.name)


def read_over_quotient(qdata: QuotientCategory, n: FinModule, name: str) -> FinModule:
    """A module killed by the ideal as a module over A/I: read along the
    chosen lift, on which the ideal acts by zero, so any lift gives the
    same action."""
    return restrict_along(qdata.cat, n.dims, n.act, qdata.lift, name)


def extend_to_quotient(qdata: QuotientCategory, m: FinModule) -> FinModule:
    """M / M.I as a module over A/I."""
    q, _ = quotient_module(m, module_times_ideal(m, qdata.ideal))
    return read_over_quotient(qdata, q, f"{m.name}/MI" if m.name else "")


def is_trace_of_projectives(cat: FinCat, ideal: Ideal, bound: int = 3):
    """A witness set of idempotent endomorphisms of tuple objects, of length
    at most `bound`, whose generated ideal is the given one, or None."""
    return derived(cat, ("witness", ideal.key(), bound), lambda: _trace_witness(cat, ideal, bound))


def _tuple_idempotent_ideals(cat: FinCat, t: tuple) -> list:
    """(eps, base ideal it generates) for the first nonzero idempotent eps of
    End(t) that generates each distinct ideal, in `list_idempotents` order.

    End(t) is read on the `closure_on` closure of t alone, which a datum
    witnessed on t reuses.  The projective that eps cuts out has as trace
    the ideal generated by the entries eps_ij, since
    y . eps . x = sum_ij y_j . eps_ij . x_i.  An End(t) whose element count
    exceeds the vector cap is skipped; that is the documented bounded-search
    caveat.
    """
    if cat.p ** sum(cat.hom_dim[(a, b)] for a in t for b in t) > vector_cap():
        return []
    closure = closure_on(cat, [t])
    out = {}
    for eps in list_idempotents(closure.cat, tuple_id(t)):
        if not eps.is_zero():
            j = generated_by(cat, [closure.block(eps, i, k) for i in range(len(t)) for k in range(len(t))])
            out.setdefault(j.key(), (eps, j))
    return list(out.values())


def _trace_witness(cat: FinCat, ideal: Ideal, bound: int):
    """The greedy witness: one pass over the tuples in closure order, picking
    each idempotent whose base ideal lies in the given one and is not yet in
    the sum of those picked, until that sum is the ideal.

    Length 1 is expected to suffice.  By Jans's correspondence an
    idempotent ideal is the trace of a finitely generated projective; by
    Krull-Schmidt that is the sum of the traces of its indecomposable
    summands, and each of them is the image of an idempotent of a
    representable H_a, that is of an idempotent of A(a, a), whose trace is
    the ideal it generates (Jans, Pacific J. Math. 15, 1965; Auslander,
    Reiten and Smalø, Representation Theory of Artin Algebras, 1995,
    ch. I-II).  Nothing here relies on it: when length 1 falls short,
    longer tuples are scanned.
    """
    witness = []
    acc = zero_ideal(cat)
    for t in closure_tuples(cat.objects, bound):
        for eps, j in derived(cat, ("tuple idempotent ideals", t), lambda: _tuple_idempotent_ideals(cat, t)):
            if ideal.contains(j) and not acc.contains(j):
                acc = acc.sum(j)
                witness.append(eps)
        if acc == ideal:
            return witness
    return None
