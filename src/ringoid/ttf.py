"""TTF triples from idempotent ideals, split detection, j^* on the maps of
a corner category, and canonical recollement data.

The bijection with idempotent ideals is exercised exactly: the reverse map
evaluates the torsion vanishing condition on the quotients of the
representables, which hold the canonical test modules (the quotients by the
ideal), so the finite intersection computes the honest infinite one.
"""

from __future__ import annotations

from .category import FinCat, Morphism, derived
from .center import central_idempotent_ideals
from .completion import CornerCategory, closure_on, closure_tuples, proj_module_of_idempotent, tuple_id
from .ideals import (
    Ideal,
    enumerate_idempotent_ideals,
    extend_to_quotient,
    is_idempotent,
    is_trace_of_projectives,
    quotient_category,
    read_over_quotient,
    restrict_along_quotient,
)
from .linalg import Mat, kernel_basis
from .modules import (
    FinModule,
    ModuleMap,
    annihilator,
    enumerate_modules,
    hom_dim,
    killed_by,
    module_times_ideal,
    representable_quotients,
    simple_kernel_sequences,
    submodule_module,
)


class TTFTriple:
    """An idempotent ideal with the three classes it cuts out of Mod A."""

    def __init__(self, cat: FinCat, ideal: Ideal):
        if not is_idempotent(ideal):
            raise ValueError("TTF triples require an idempotent ideal")
        self.cat = cat
        self.ideal = ideal

    def in_torsion(self, m: FinModule) -> bool:
        """Every ideal element acts by zero."""
        return killed_by(m, self.ideal)

    def in_closed(self, m: FinModule) -> bool:
        """M . I = M (the left class of the triple)."""
        return module_times_ideal(m, self.ideal).is_full()

    def in_free(self, m: FinModule) -> bool:
        """No nonzero submodule is killed by the ideal."""
        return annihilator(m, self.ideal).is_zero()

    def radicals(self, m: FinModule):
        """(c(M), t(M)): the closed radical M.I and the torsion radical, the
        largest submodule killed by the ideal."""
        return module_times_ideal(m, self.ideal), annihilator(m, self.ideal)

    def census_fingerprint(self, census) -> tuple:
        return tuple(self.in_torsion(m) for m in census)


def ttf_from_ideal(cat: FinCat, ideal: Ideal) -> TTFTriple:
    return TTFTriple(cat, ideal)


def ideal_from_ttf(cat: FinCat, membership) -> Ideal:
    """The ideal of morphisms killed by every module of a class closed under
    submodules, such as a torsion class.

    Each v in M(b) spans a cyclic submodule, a copy of some H_b/R, so the
    quotients of the representables test exactly; H_b/H_b.I is among them."""
    members = [q for _, _, q in representable_quotients(cat) if membership(q)]
    spaces = {}
    for a in cat.objects:
        for b in cat.objects:
            d = cat.hom_dim[(a, b)]
            rows = []
            for m in members:
                # M(r) = sum r_i M(alpha_i) must vanish; linear in r
                for row_idx in range(m.dims[a]):
                    for col_idx in range(m.dims[b]):
                        rows.append(
                            [m.action[(a, b, i)].entries[row_idx][col_idx] for i in range(d)]
                        )
            spaces[(a, b)] = kernel_basis(Mat(cat.p, len(rows), d, rows))
    return Ideal(cat, spaces)


def jans_roundtrip(cat: FinCat, census_bound: int = 4) -> dict:
    """Idempotent ideal -> TTF -> ideal is the identity, with pairwise
    distinct torsion fingerprints on the census."""
    ideals = enumerate_idempotent_ideals(cat)
    census = enumerate_modules(cat, census_bound)
    results = []
    fingerprints = []
    for ideal in ideals:
        triple = ttf_from_ideal(cat, ideal)
        back = ideal_from_ttf(cat, triple.in_torsion)
        results.append(back == ideal)
        fingerprints.append(triple.census_fingerprint(census))
    return {
        "idempotent_ideals": len(ideals),
        "roundtrips": results,
        "all_roundtrip": all(results),
        "fingerprints_distinct": len(set(fingerprints)) == len(fingerprints),
        "pass": all(results) and len(set(fingerprints)) == len(fingerprints),
    }


def is_split(cat: FinCat, triple: TTFTriple, census_bound: int = 4) -> dict:
    """The three split criteria, evaluated independently and compared.

    (1) every census module decomposes as c(M) + t(M);
    (2) some central idempotent induces the ideal (exact, not census-bound);
    (3) the closed and free classes agree on the census.
    """
    census = enumerate_modules(cat, census_bound)
    central = next((eps for _, eps, i_eps, _ in central_idempotent_ideals(cat) if i_eps == triple.ideal), None)
    # M is closed when c(M) = M, free when t(M) = 0 and torsion when t(M) = M
    radicals = [triple.radicals(m) for m in census]
    decomposes = all(c.sum(t).is_full() and c.intersect(t).is_zero() for c, t in radicals)
    classes_agree = all(c.is_full() == t.is_zero() for c, t in radicals)
    verdicts = {
        "decomposition": decomposes,
        "central_idempotent": central is not None,
        "closed_equals_free": classes_agree,
    }
    report = {
        **verdicts,
        "agree": len(set(verdicts.values())) == 1,
        "split": central is not None,
    }
    if central is not None:
        report["class_formulas"] = all(
            c.is_full() == all(m.act(central.components[a]).rank() == m.dims[a] for a in cat.objects)
            and t.is_full() == all(m.act(central.components[a]).is_zero() for a in cat.objects)
            for m, (c, t) in zip(census, radicals)
        )
    return report


def corner_restriction_map(corner: CornerCategory, phi: ModuleMap) -> ModuleMap:
    """j* on maps: the induced map on a tuple (c_1, ..., c_k) is block
    diagonal, so each source image basis vector is moved slice by slice by
    phi.comps[c_k] and read in the target image's coordinates."""
    src_mod, src_images = corner.restriction_data(phi.src)
    tgt_mod, tgt_images = corner.restriction_data(phi.tgt)
    comps = {}
    for o, eps in corner.carrier.items():
        t = corner.closure.tuples[eps.src]
        cols = []
        for v in src_images[o].basis_vectors():
            moved = []
            start = 0
            for c in t:
                end = start + phi.src.dims[c]
                moved.extend(phi.comps[c].apply(v[start:end]))
                start = end
            cols.append(moved)
        comps[o] = tgt_images[o].coords_matrix(cols)
        if comps[o] is None:
            raise RuntimeError("induced map does not preserve idempotent images")
    return ModuleMap(src_mod, tgt_mod, comps)


class RecollementData:
    """The canonical recollement datum of a trace-of-projectives ideal: the
    quotient category with restriction and extension of scalars on one side,
    the witness idempotents, each on its tuple, on the other."""

    def __init__(self, cat: FinCat, ideal: Ideal, bound: int = 3):
        witness = is_trace_of_projectives(cat, ideal, bound)
        if witness is None:
            raise ValueError(
                "no idempotent witness at this bound: recollement data needs an"
                " ideal that is the trace of finitely generated projectives"
            )
        self.cat = cat
        self.ideal = ideal
        self.bound = bound
        self.witness = witness
        self.quotient = quotient_category(cat, ideal)
        # the witnesses come in closure order: one pass over the tuples up to the last
        tuples = closure_tuples(cat.objects, bound)
        found = {s: next(t for t in tuples if tuple_id(t) == s) for s in dict.fromkeys(eps.src for eps in witness)}
        self.tuples = [found[eps.src] for eps in witness]
        self.triple = ttf_from_ideal(cat, ideal)

    def inclusion(self, n: FinModule) -> FinModule:
        """i_*: a module over A/I viewed over A."""
        return restrict_along_quotient(self.quotient, n)

    def extension(self, m: FinModule) -> FinModule:
        """i^*: M / M.I over A/I."""
        return extend_to_quotient(self.quotient, m)

    def coextension(self, m: FinModule) -> FinModule:
        """i^!: the largest submodule killed by the ideal, read over A/I."""
        t_mod, _ = submodule_module(annihilator(m, self.ideal))
        return read_over_quotient(self.quotient, t_mod, t_mod.name)

    def witness_facts(self, census_bound: int) -> list:
        """The `corner_facts` of each witness idempotent, in witness order."""
        return [corner_facts(self.cat, t, eps.coords, census_bound) for t, eps in zip(self.tuples, self.witness)]

    def corner_kernel(self, census_bound: int) -> tuple:
        """Ker j^* on the census up to census_bound, as a fingerprint: for
        each census module, whether its image is zero at every witness."""
        dims = [d for d, _, _ in self.witness_facts(census_bound)]
        census = enumerate_modules(self.cat, census_bound)
        return tuple(all(d[i] == 0 for d in dims) for i in range(len(census)))


def recollement_data(cat: FinCat, ideal: Ideal, bound: int = 3) -> RecollementData:
    return RecollementData(cat, ideal, bound)


def _hom_dim(m: FinModule, n: FinModule) -> int:
    """hom_dim, kept in the memo of the modules' own category: the modules
    that i_*, i^* and i^! give recur across census pairs and ideals, and a
    base pair and a quotient pair with equal keys stay apart."""
    return derived(m.cat, ("hom_dim", m.key(), n.key()), lambda: hom_dim(m, n))


def corner_facts(cat: FinCat, t: tuple, coords: tuple, census_bound: int) -> tuple:
    """(dims, generator, exact) for the idempotent e with coordinates
    `coords` in End(t), on the census up to census_bound: dim M(e) for each
    census module, and whether the generator identity and exactness hold at
    e.  Built once per category, idempotent and bound.

    End(t) has a basis that depends on t alone, so `coords` name the same
    idempotent eps in every closure holding t, and j^* at eps is the same
    functor M -> M(eps) there.  The facts are read on the one-object corner
    of eps over the closure of t alone, the closure the witness search kept
    for t.
    """
    return derived(cat, ("corner facts", t, coords, census_bound),
                   lambda: _corner_facts(cat, t, coords, census_bound))


def _corner_facts(cat: FinCat, t: tuple, coords: tuple, census_bound: int) -> tuple:
    closure = closure_on(cat, [t])
    eps = Morphism(tuple_id(t), tuple_id(t), coords)
    corner = CornerCategory(closure, {"e0": eps}, "corner")
    (o,) = corner.cat.objects
    census = enumerate_modules(cat, census_bound)
    dims = tuple(corner.restriction_data(m)[0].dims[o] for m in census)
    p_mod, _ = proj_module_of_idempotent(closure, eps)
    generator = all(hom_dim(p_mod, m) == d for m, d in zip(census, dims))

    def exact(incl: ModuleMap, proj: ModuleMap) -> bool:
        inc = corner_restriction_map(corner, incl).comps[o]
        pro = corner_restriction_map(corner, proj).comps[o]
        r_inc, r_pro = inc.rank(), pro.rank()
        return (r_inc == inc.cols and r_pro == pro.rows and (pro @ inc).is_zero()
                and r_inc + r_pro == inc.rows)

    exactness = all(exact(incl, proj) for m in census
                    for incl, proj in derived(cat, ("sequences", m.key()),
                                              lambda: list(simple_kernel_sequences(m))))
    return dims, generator, exactness


def recollement_shadows(data: RecollementData, census_bound: int = 4) -> dict:
    """The finite shadows of the recollement axioms on the module census:
    Ker(j^*) is the torsion class, both adjunction dimension identities hold
    on census pairs, and j^* is exact on the census sequences
    0 -> S -> M -> M/S -> 0 with S simple.  The A/I modules of the pairs are
    the census classes killed by I, read over A/I: i_* is full and faithful
    onto the A-modules killed by I, which is invariant under isomorphism.

    The corner side breaks down by corner object: j^* M is zero when it is
    zero at every witness, the generator identity dim Hom(P_e, M) =
    dim M(e) holds per witness e, and so does exactness, as j^* M(e) is the
    image of M(e).  Those facts are built once per witness idempotent by
    `corner_facts` and shared by every ideal it witnesses.  The adjunction
    side is read per ideal, through A/I.

    Exactness on these gives exactness on every short exact sequence
    0 -> N -> M -> M/N -> 0 with M within the bound, because j^* is additive
    (j^* 0 = 0), is a functor (commuting squares and zero composites stay
    so) and carries isomorphisms to isomorphisms.  The census holds a module
    of every iso class within the bound, and `simple_kernel_sequences` every
    simple submodule of it, so each simple-kernel sequence of a module
    within the bound is isomorphic to a checked one and stays exact with it.
    Induct on the length of M, reading a module by its census class, as M/S
    is read below.  For N = 0 or N = M there is nothing to show; otherwise
    take a simple S <= N and the 3x3 diagram with columns
    0 -> S -> N -> N/S -> 0, 0 -> S -> M -> M/S -> 0 and
    0 -> 0 -> M/N -> M/N -> 0, and rows 0 -> S -> S -> 0 -> 0,
    0 -> N -> M -> M/N -> 0 and 0 -> N/S -> M/S -> M/N -> 0.  Under j^* the
    columns stay exact (the simple-kernel sequences of N and of M, and a
    trivial one), so do the top row (trivial) and the bottom row (by
    induction, M/S being shorter than M), and the middle row stays a
    complex; by the nine lemma the middle row is exact.

    The maps are moved by `corner_restriction_map`.  A sequence is
    exact at a witness when j^*(incl) is injective, j^*(proj) surjective,
    their composite zero and their ranks add up to dim j^*M: the image of
    j^*(incl) then lies in the kernel of j^*(proj) with the same dimension.
    What this check cannot see is a j^* on maps that is not a functor,
    exact on the simple kernels only; a test walks every submodule for that.
    """
    cat = data.cat
    census = enumerate_modules(cat, census_bound)
    torsion = data.triple.census_fingerprint(census)
    facts = data.witness_facts(census_bound)

    left_adjunction = True
    right_adjunction = True
    extended = [data.extension(m) for m in census]
    included = [(n, data.inclusion(n)) for n, t in zip(extended, torsion) if t]
    for m, em in zip(census, extended):
        cm = data.coextension(m)
        for n, i_n in included:
            if _hom_dim(em, n) != _hom_dim(m, i_n):
                left_adjunction = False
            if _hom_dim(i_n, m) != _hom_dim(n, cm):
                right_adjunction = False

    report = {
        "kernel_of_corner_is_torsion": data.corner_kernel(census_bound) == torsion,
        "generator_adjunction": all(generator for _, generator, _ in facts),
        "left_adjunction": left_adjunction,
        "right_adjunction": right_adjunction,
        "corner_exactness": all(exact for _, _, exact in facts),
    }
    report["pass"] = all(report.values())
    return report
