from collections import Counter

import pytest

from ringoid import cli, ideals, ttf
from ringoid.category import CATALOG_NAMES, Morphism, catalog, list_idempotents, validate
from ringoid.completion import (additive_closure, closure_on, induce_module, proj_module_of_idempotent,
                                tuple_id)
from ringoid.ideals import (
    Ideal,
    enumerate_idempotent_ideals,
    extend_to_quotient,
    generated_by,
    is_trace_of_projectives,
    unit_ideal,
    zero_ideal,
)
from ringoid.linalg import Mat, Subspace, image_basis, kernel_basis
from ringoid.modules import (
    FinModule,
    IsoClasses,
    ModuleMap,
    Submodule,
    all_submodules,
    annihilator,
    enumerate_modules,
    extension_sequences,
    hom_dim,
    hom_space,
    is_iso,
    module_census,
    module_times_ideal,
    quotient_module,
    representable,
    simple_modules,
    submodule_module,
    zero_module,
)
from ringoid.torsion import check_topology, topology_from_class, torsion_membership
from ringoid.ttf import (
    CornerCategory,
    corner_restriction_map,
    ideal_from_ttf,
    is_split,
    jans_roundtrip,
    recollement_data,
    recollement_shadows,
    ttf_from_ideal,
)
from reference import check_naturality, simple_kernel_sequences, witness_corner


def short_exact_sequences(m):
    """Reference: [(incl, proj)] for every submodule S of m, in
    all_submodules order, where the recollement shadow reads only the
    crawl's extension sequences, one per simple-kernel sequence up to
    isomorphism."""
    return [(submodule_module(s)[1], quotient_module(m, s)[1]) for s in all_submodules(m)]


def a2cat_simples():
    cat = catalog("a2cat(2)")
    s1 = s2 = None
    for s in simple_modules(cat):
        if s.dims["1"] == 1:
            s1 = s
        else:
            s2 = s
    return cat, s1, s2


def test_triple_requires_idempotent_ideal():
    cat = catalog("dual(2)")
    ix = generated_by(cat, [Morphism("x", "x", (0, 1))])
    with pytest.raises(ValueError):
        ttf_from_ideal(cat, ix)


def test_unit_ideal_classes():
    cat = catalog("a2cat(2)")
    triple = ttf_from_ideal(cat, unit_ideal(cat))
    for m in enumerate_modules(cat, 3):
        assert triple.in_closed(m)
        assert triple.in_torsion(m) == (m.total_dim() == 0)
        assert triple.in_free(m)


def test_zero_ideal_classes():
    cat = catalog("a2cat(2)")
    triple = ttf_from_ideal(cat, zero_ideal(cat))
    for m in enumerate_modules(cat, 3):
        assert triple.in_torsion(m)
        assert triple.in_closed(m) == (m.total_dim() == 0)
        assert triple.in_free(m) == (m.total_dim() == 0)


def test_e1_triple_on_simples():
    cat, s1, s2 = a2cat_simples()
    triple = ttf_from_ideal(cat, generated_by(cat, [cat.identity("1")]))
    assert triple.in_torsion(s2)
    assert not triple.in_torsion(s1)


def test_ideal_from_trivial_classes():
    cat = catalog("a2cat(2)")
    assert ideal_from_ttf(cat, lambda m: m.total_dim() == 0) == unit_ideal(cat)
    assert ideal_from_ttf(cat, lambda m: True) == zero_ideal(cat)


def test_ideal_from_ttf_roundtrip_single():
    cat = catalog("a2cat(2)")
    ideal = generated_by(cat, [cat.identity("1")])
    triple = ttf_from_ideal(cat, ideal)
    assert ideal_from_ttf(cat, triple.in_torsion) == ideal


def census_ideal_from_ttf(cat, membership):
    """Reference: the ideal of morphisms killed by every member of the
    census up to the dimension of the largest representable, a census that
    holds the canonical witnesses H_b/H_b.I."""
    bound = max(
        (sum(cat.hom_dim[(a, b)] for a in cat.objects) for b in cat.objects),
        default=0,
    )
    members = [m for m in enumerate_modules(cat, bound) if membership(m)]
    spaces = {}
    for a in cat.objects:
        for b in cat.objects:
            d = cat.hom_dim[(a, b)]
            rows = []
            for m in members:
                for row_idx in range(m.dims[a]):
                    for col_idx in range(m.dims[b]):
                        rows.append(
                            [m.action[(a, b, i)].entries[row_idx][col_idx] for i in range(d)]
                        )
            spaces[(a, b)] = kernel_basis(Mat(cat.p, len(rows), d, rows))
    return Ideal(cat, spaces)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_ideal_from_ttf_matches_the_census_reference(name, p):
    cat = catalog(name, p)
    for ideal in enumerate_idempotent_ideals(cat):
        in_torsion = ttf_from_ideal(cat, ideal).in_torsion
        back = ideal_from_ttf(cat, in_torsion)
        assert back.key() == census_ideal_from_ttf(cat, in_torsion).key() == ideal.key()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_ideal_from_ttf_needs_the_canonical_witnesses(name, p, monkeypatch):
    # with every H_b/H_b.I hidden from the test modules, the roundtrip misses
    # some ideal of every catalog category but mat2.  The ideals of mat2 are
    # 0 and the unit: H_b = S + S keeps a faithful simple quotient S in place
    # of H_b, and hiding H_b/H_b = 0 leaves no member, so no row
    cat = catalog(name, p)
    real = ttf.representable_quotients
    missed = 0
    for ideal in enumerate_idempotent_ideals(cat):
        canonical = {(b, module_times_ideal(representable(cat, b), ideal)) for b in cat.objects}
        monkeypatch.setattr(ttf, "representable_quotients",
                            lambda c: [(b, r, q) for b, r, q in real(c) if (b, r) not in canonical])
        missed += ideal_from_ttf(cat, ttf_from_ideal(cat, ideal).in_torsion) != ideal
    assert bool(missed) == (name != "mat2")


@pytest.mark.parametrize(
    "name,count",
    [("pt(2)", 2), ("dual(2)", 2), ("a2cat(2)", 4), ("prod(2)", 4), ("mat2(2)", 2)],
)
def test_jans_roundtrip(name, count):
    rep = jans_roundtrip(catalog(name))
    assert rep["pass"]
    assert rep["idempotent_ideals"] == count


def test_radical_of_representable_is_ideal_values():
    cat = catalog("a2cat(2)")
    for ideal in enumerate_idempotent_ideals(cat):
        triple = ttf_from_ideal(cat, ideal)
        for a in cat.objects:
            from ringoid.modules import representable

            h = representable(cat, a)
            c, _ = triple.radicals(h)
            expected = Submodule(h, {b: ideal.spaces[(b, a)] for b in cat.objects})
            assert c.key() == expected.key()


def test_radical_class_memberships():
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 4)
    for ideal in enumerate_idempotent_ideals(cat):
        triple = ttf_from_ideal(cat, ideal)
        for m in census:
            c, t = triple.radicals(m)
            c_mod, _ = submodule_module(c)
            t_mod, _ = submodule_module(t)
            m_over_c, _ = quotient_module(m, c)
            coradical, _ = quotient_module(m, t)
            assert triple.in_closed(c_mod)
            assert triple.in_torsion(m_over_c)
            assert triple.in_torsion(t_mod)
            assert triple.in_free(coradical)
            assert triple.in_torsion(m) == t.is_full()


def test_orthogonality_of_classes():
    for name in ["a2cat(2)", "prod(2)"]:
        cat = catalog(name)
        census = enumerate_modules(cat, 3)
        for ideal in enumerate_idempotent_ideals(cat):
            triple = ttf_from_ideal(cat, ideal)
            closed = [m for m in census if triple.in_closed(m)]
            torsion = [m for m in census if triple.in_torsion(m)]
            free = [m for m in census if triple.in_free(m)]
            for c in closed:
                for t in torsion:
                    assert len(hom_space(c, t)) == 0
            for t in torsion:
                for f in free:
                    assert len(hom_space(t, f)) == 0


def test_torsion_class_laws_on_census():
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 4)
    from ringoid.modules import all_submodules, direct_sum, quotient_module

    for ideal in enumerate_idempotent_ideals(cat):
        triple = ttf_from_ideal(cat, ideal)
        members = [m for m in census if triple.in_torsion(m)]
        for m in members:
            for sub in all_submodules(m):
                sub_mod, _ = submodule_module(sub)
                q, _ = quotient_module(m, sub)
                assert triple.in_torsion(sub_mod) and triple.in_torsion(q)
        for m in members:
            for n in members:
                if m.total_dim() + n.total_dim() <= 4:
                    assert triple.in_torsion(direct_sum(m, n))
        for m in census:
            if triple.in_torsion(m):
                continue
            for sub in all_submodules(m):
                sub_mod, _ = submodule_module(sub)
                q, _ = quotient_module(m, sub)
                assert not (triple.in_torsion(sub_mod) and triple.in_torsion(q))


def test_triple_membership_matches_induced_topology():
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 3)
    for ideal in enumerate_idempotent_ideals(cat):
        triple = ttf_from_ideal(cat, ideal)
        topo = topology_from_class(cat, triple.in_torsion)
        assert check_topology(cat, topo) == []
        for m in census:
            assert triple.in_torsion(m) == torsion_membership(topo, m)


@pytest.mark.parametrize(
    "name,count",
    [("dual(3)", 2), ("a2cat(3)", 4), ("prod(3)", 4)],
)
def test_jans_roundtrip_p3(name, count):
    rep = jans_roundtrip(catalog(name))
    assert rep["pass"]
    assert rep["idempotent_ideals"] == count


@pytest.mark.parametrize(
    "name,split_count",
    [("prod(2)", 4), ("a2cat(2)", 2), ("dual(2)", 2), ("pt(2)", 2), ("mat2(2)", 2),
     ("prod(3)", 4), ("a2cat(3)", 2), ("dual(3)", 2)],
)
def test_split_counts(name, split_count):
    cat = catalog(name)
    found = 0
    for ideal in enumerate_idempotent_ideals(cat):
        rep = is_split(cat, ttf_from_ideal(cat, ideal))
        assert rep["agree"], rep
        if rep["split"]:
            assert rep["class_formulas"]
            found += 1
    assert found == split_count


def reference_is_split(cat, triple, census_bound=4):
    """Reference: the split check that scans the central idempotents for the
    ideal, rebuilding each one's ideal, and reads the classes one module at
    a time."""
    from ringoid.center import center_idempotents, compute_center, ideal_of_idempotent

    census = enumerate_modules(cat, census_bound)
    central = None
    for coords, eps in center_idempotents(compute_center(cat)):
        i_eps, _ = ideal_of_idempotent(cat, eps)
        if i_eps == triple.ideal:
            central = (coords, eps)
            break
    decomposes = True
    for m in census:
        c, t = module_times_ideal(m, triple.ideal), annihilator(m, triple.ideal)
        if not (c.sum(t).is_full() and c.intersect(t).is_zero()):
            decomposes = False
            break
    classes_agree = all(triple.in_closed(m) == triple.in_free(m) for m in census)
    verdicts = {
        "decomposition": decomposes,
        "central_idempotent": central is not None,
        "closed_equals_free": classes_agree,
    }
    report = {**verdicts, "agree": len(set(verdicts.values())) == 1, "split": central is not None}
    if central is not None:
        _, eps = central
        report["class_formulas"] = all(
            triple.in_closed(m)
            == all(m.act(eps.components[a]).rank() == m.dims[a] for a in cat.objects)
            and triple.in_torsion(m)
            == all(m.act(eps.components[a]).is_zero() for a in cat.objects)
            for m in census
        )
    return report


WALK_QUIVERS = {
    "a4": "vertices 1 2 3 4 ; arrow a: 1 -> 2 ; arrow b: 2 -> 3 ; arrow c: 3 -> 4 ;"
          " relation a*b ; relation b*c ; field 2 ; maxlen 3 ;",
    "kronecker3": "vertices 1 2 ; arrow a: 1 -> 2 ; arrow b: 1 -> 2 ; arrow c: 1 -> 2 ; field 2 ; maxlen 1 ;",
    "star": "vertices 1 2 3 4 ; arrow a: 1 -> 4 ; arrow b: 2 -> 4 ; arrow c: 3 -> 4 ; field 2 ; maxlen 1 ;",
    # k[x]/(x^3) over F_3
    "kx3": "vertices 1 ; arrow x: 1 -> 1 ; relation x*x*x ; field 3 ; maxlen 3 ;",
}


@pytest.mark.parametrize("name, bound", [(f"{n}({p})", 3 if p == 5 else 4) for p in (2, 3, 5)
                                         for n in CATALOG_NAMES] + [(q, 4) for q in sorted(WALK_QUIVERS)])
def test_split_reports_match_the_reference(name, bound):
    from ringoid.quiver import parse_quiver_dsl, path_category

    cat = path_category(parse_quiver_dsl(WALK_QUIVERS[name])) if name in WALK_QUIVERS else catalog(name)
    for ideal in enumerate_idempotent_ideals(cat):
        triple = ttf_from_ideal(cat, ideal)
        assert is_split(cat, triple, bound) == reference_is_split(cat, triple, bound)


def test_the_census_builds_each_central_idempotent_ideal_once(monkeypatch, capsys):
    from ringoid import center

    cat = catalog("prod(2)")
    calls = []
    real = center.ideal_of_idempotent

    def counting(c, eps):
        calls.append(eps)
        return real(c, eps)

    # a module that imported the function by name is counted too
    for mod in (center, ttf, cli):
        monkeypatch.setattr(mod, "ideal_of_idempotent", counting, raising=False)
    monkeypatch.setattr(cli, "load_category", lambda source, p: (cat, []))
    assert cli.main(["census", "catalog:prod", "--p", "2", "--json"]) == 0
    capsys.readouterr()
    idempotents = [eps for _, eps in center.center_idempotents(center.compute_center(cat))]
    assert len(idempotents) == 4
    assert calls == idempotents


def test_is_split_multiplies_each_census_module_by_the_ideal_once(monkeypatch):
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 3)
    calls = []
    real = ttf.module_times_ideal

    def counting(m, ideal):
        calls.append((m.key(), ideal.key()))
        return real(m, ideal)

    monkeypatch.setattr(ttf, "module_times_ideal", counting)
    ideals = enumerate_idempotent_ideals(cat)
    for ideal in ideals:
        is_split(cat, ttf_from_ideal(cat, ideal), 3)
    assert Counter(calls) == Counter((m.key(), i.key()) for i in ideals for m in census)


def test_corner_of_identity_is_endo_algebra():
    cat = catalog("a2cat(2)")
    closure = additive_closure(cat, 1)
    corner = CornerCategory(closure, {"e0": closure.embed_morphism(cat.identity("1"))}, "corner")
    assert validate(corner.cat) == []
    assert corner.cat.hom_dim[("e0", "e0")] == 1


def test_corner_of_prod_idempotent_is_point():
    cat = catalog("prod(2)")
    closure = additive_closure(cat, 1)
    corner = CornerCategory(closure, {"e0": closure.embed_morphism(Morphism("x", "x", (1, 0)))}, "corner")
    assert corner.cat.hom_dim[("e0", "e0")] == 1
    assert validate(corner.cat) == []


def test_corner_agrees_with_karoubi_homs():
    # the corner category on a set of idempotents has the same hom dimensions
    # as the corresponding objects of the idempotent completion
    from ringoid.completion import idempotent_completion

    cat = catalog("prod(2)")
    comp = idempotent_completion(cat, 1)
    closure = comp.closure
    carriers = [
        (obj, eps) for obj, eps in comp.carrier.items()
        if comp.closure.tuples[eps.src] == ("x",)
    ]
    eps_list = [eps for _, eps in carriers]
    corner = CornerCategory(closure, {f"e{i}": eps for i, eps in enumerate(eps_list)}, "corner")
    for i, (obj_i, _) in enumerate(carriers):
        for j, (obj_j, _) in enumerate(carriers):
            assert (
                corner.cat.hom_dim[(f"e{i}", f"e{j}")]
                == comp.cat.hom_dim[(obj_i, obj_j)]
            )


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_idempotent_subcategory_homs_are_the_sandwich_fixed_spaces(name, p):
    # the Karoubi formula: the hom space e1 -> e2 is the kernel of f -> e2 f e1 - f
    closure = additive_closure(catalog(name, p), 1)
    ccat = closure.cat
    idems = {f"{t}#{n}": eps for t in ccat.objects for n, eps in enumerate(list_idempotents(ccat, t))}
    lift = CornerCategory(closure, idems, "probe")._lift
    for o1, e1 in idems.items():
        for o2, e2 in idems.items():
            moved = [
                tuple((x - y) % p for x, y in zip(ccat.compose(ccat.compose(e2, f), e1).coords, f.coords))
                for f in ccat.basis(e1.src, e2.src)
            ]
            fixed = kernel_basis(Mat.from_cols(p, ccat.hom_dim[(e1.src, e2.src)], moved))
            assert lift[(o1, o2)] == fixed.basis_matrix(), (o1, o2)


def sandwich_lifts(closure, idems):
    """Reference for the lift of `CornerCategory`: the span of
    e2 . f . e1 over the basis f of A(e1.src, e2.src), two generic compose
    calls per basis element."""
    ccat = closure.cat
    return {
        (o1, o2): Subspace.from_vectors(ccat.p, ccat.hom_dim[(e1.src, e2.src)], [
            ccat.compose(ccat.compose(e2, f), e1).coords for f in ccat.basis(e1.src, e2.src)
        ]).basis_matrix()
        for o1, e1 in idems.items() for o2, e2 in idems.items()
    }


@pytest.mark.parametrize(
    "name, p, bound",
    [(name, p, 1) for name in CATALOG_NAMES for p in (2, 3)]
    + [("dual", 2, 2), ("a2cat", 2, 2), ("a2cat", 3, 2)],
)
def test_idempotent_subcategory_lift_matches_compose_reference(name, p, bound):
    closure = additive_closure(catalog(name, p), bound)
    ccat = closure.cat
    idems = {f"{t}#{n}": eps for t in ccat.objects for n, eps in enumerate(list_idempotents(ccat, t))}
    lift = CornerCategory(closure, idems, "probe")._lift
    assert list(lift.items()) == list(sandwich_lifts(closure, idems).items())


def induced_restriction(corner, m):
    """j*(m) through the induced module: induce m over the whole closure,
    take the images of the corner idempotents, restrict the action."""
    mhat = induce_module(corner.closure, m)
    images = {o: image_basis(mhat.act(eps)) for o, eps in corner.carrier.items()}
    action = {}
    for o1, e1 in corner.carrier.items():
        for o2, e2 in corner.carrier.items():
            for i in range(corner.cat.hom_dim[(o1, o2)]):
                gamma = Morphism(e1.src, e2.src, corner._lift[(o1, o2)].col(i))
                moved = mhat.act(gamma) @ images[o2].basis_matrix()
                cols = [images[o1].coords(moved.col(j)) for j in range(moved.cols)]
                action[(o1, o2, i)] = Mat.from_cols(m.p, images[o1].dim, cols)
    return FinModule(corner.cat, {o: img.dim for o, img in images.items()}, action), images


def induced_restriction_map(corner, phi, restrict):
    """j*(phi) from the induced block-diagonal map on the reference images."""
    src_mod, src_images = restrict(phi.src)
    tgt_mod, tgt_images = restrict(phi.tgt)
    comps = {}
    for o, eps in corner.carrier.items():
        t = corner.closure.tuples[eps.src]
        induced = Mat.from_blocks(phi.src.p, [phi.tgt.dims[c] for c in t], [phi.src.dims[c] for c in t],
                                  {(k, k): phi.comps[c] for k, c in enumerate(t)})
        moved = induced @ src_images[o].basis_matrix()
        comps[o] = Mat.from_cols(moved.p, tgt_mod.dims[o], [tgt_images[o].coords(moved.col(j)) for j in range(moved.cols)])
    return ModuleMap(src_mod, tgt_mod, comps)


def assert_restriction_matches_the_induced_module(corner, census):
    reference = {}

    def restrict(m):
        if m.key() not in reference:
            reference[m.key()] = induced_restriction(corner, m)
        return reference[m.key()]

    for m in census:
        mod, images = corner._restrict(m)
        ref_mod, ref_images = restrict(m)
        assert mod.key() == ref_mod.key() and images == ref_images
        for phi in (map_ for pair in short_exact_sequences(m) for map_ in pair):
            got = corner_restriction_map(corner, phi)
            want = induced_restriction_map(corner, phi, restrict)
            assert got.src.key() == want.src.key() and got.tgt.key() == want.tgt.key()
            assert got.comps == want.comps


def test_corner_restriction_map_refuses_a_map_that_leaves_the_image():
    # the swap of the two idempotent lines of prod(3) is not natural: it
    # moves the image of e = (0, 1) on H_x onto the image of (1, 0)
    cat = catalog("prod(3)")
    closure = additive_closure(cat, 1)
    eps = Morphism("(x)", "(x)", (0, 1))
    corner = CornerCategory(closure, {"e0": eps}, "corner")
    h = representable(cat, "x")
    assert corner.restriction_data(h)[1]["e0"].basis_vectors() == ((0, 1),)
    identity = ModuleMap(h, h, {"x": Mat.identity(3, 2)})
    assert corner_restriction_map(corner, identity).comps == {"e0": Mat.identity(3, 1)}
    swap = ModuleMap(h, h, {"x": Mat.from_rows(3, [(0, 1), (1, 0)])})
    with pytest.raises(RuntimeError, match="does not preserve idempotent images"):
        corner_restriction_map(corner, swap)


@pytest.mark.parametrize("name", ["a2cat(2)", "a2cat(3)", "prod(3)"])
def test_corner_restriction_matches_the_induced_module(name):
    cat = catalog(name)
    census = enumerate_modules(cat, 4)
    witnessed = [i for i in enumerate_idempotent_ideals(cat) if is_trace_of_projectives(cat, i, 3) is not None]
    assert witnessed
    for ideal in witnessed:
        assert_restriction_matches_the_induced_module(witness_corner(recollement_data(cat, ideal, 3)), census)


@pytest.mark.parametrize("name", ["a2cat(2)", "a2cat(3)", "dual(2)", "prod(2)"])
def test_corner_on_tuple_idempotents_matches_the_induced_module(name):
    # the trace witnesses sit on one-object tuples; these idempotents of
    # two-object tuples have nonzero off-diagonal blocks
    cat = catalog(name)
    closure = additive_closure(cat, 2)
    mixed = [
        eps for t_id, t in closure.tuples.items() if len(t) == 2
        for eps in list_idempotents(closure.cat, t_id)
        if not (closure.block(eps, 0, 1).is_zero() and closure.block(eps, 1, 0).is_zero())
    ]
    assert mixed
    corner = CornerCategory(closure, {f"e{i}": eps for i, eps in enumerate(mixed[:3])}, "corner")
    assert_restriction_matches_the_induced_module(corner, enumerate_modules(cat, 3))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_corner_actions_match_the_block_action_formula(name, p):
    # a corner basis morphism o1 -> o2 acts on j* M by the block action of
    # its closure lift on the image of o2, read column by column in the
    # image of o1; the corner holds every nonzero idempotent of a base object
    cat = catalog(name, p)
    closure = additive_closure(cat, 1)
    nonzero = [eps for t in closure.cat.objects for eps in list_idempotents(closure.cat, t) if not eps.is_zero()]
    corner = CornerCategory(closure, {f"e{i}": eps for i, eps in enumerate(nonzero)}, "corner")
    for m in enumerate_modules(cat, 3):
        mod, images = corner.restriction_data(m)
        assert mod.dims == {o: images[o].dim for o in corner.carrier}
        for o1, e1 in corner.carrier.items():
            for o2, e2 in corner.carrier.items():
                for i in range(corner.cat.hom_dim[(o1, o2)]):
                    gamma = Morphism(e1.src, e2.src, corner._lift[(o1, o2)].col(i))
                    moved = closure.act(m, gamma) @ images[o2].basis_matrix()
                    cols = [images[o1].coords(moved.col(j)) for j in range(moved.cols)]
                    assert mod.action[(o1, o2, i)] == Mat.from_cols(p, images[o1].dim, cols)


def test_corner_objects_must_be_idempotent():
    closure = additive_closure(catalog("dual(2)"), 1)
    with pytest.raises(ValueError, match="idempotent"):
        CornerCategory(closure, {"e0": Morphism("(x)", "(x)", (0, 1))}, "corner")


def test_corner_restriction_of_representable():
    cat = catalog("a2cat(2)")
    closure = additive_closure(cat, 1)
    eps = closure.embed_morphism(cat.identity("2"))
    corner = CornerCategory(closure, {"e0": eps}, "corner")
    from ringoid.modules import representable
    from reference import validate_module

    jm, _ = corner.restriction_data(representable(cat, "2"))
    assert validate_module(jm) == []
    assert jm.dims["e0"] == 1


def test_recollement_requires_witness():
    cat = catalog("dual(2)")
    ix = generated_by(cat, [Morphism("x", "x", (0, 1))])
    assert recollement_data(cat, ix, bound=2) is None


def test_recollement_unit_ideal():
    cat = catalog("a2cat(2)")
    data = recollement_data(cat, unit_ideal(cat), bound=2)
    assert data.quotient.cat.total_dim() == 0
    corner = witness_corner(data)
    census = enumerate_modules(cat, 3)
    # with everything closed, j* reflects hom dimensions
    for m in census:
        for n in census:
            assert len(hom_space(m, n)) == len(
                hom_space(corner.restriction_data(m)[0], corner.restriction_data(n)[0])
            )


def test_recollement_zero_ideal():
    cat = catalog("dual(2)")
    data = recollement_data(cat, zero_ideal(cat), bound=1)
    assert data.witness == []
    assert len(witness_corner(data).cat.objects) == 0
    from reference import cats_equal

    assert cats_equal(data.quotient.cat, cat)
    for m in enumerate_modules(cat, 3):
        back = data.inclusion(data.extension(m))
        assert back.key() == m.key()


def test_recollement_e2_quotient_and_corner():
    cat = catalog("a2cat(2)")
    ideal = generated_by(cat, [cat.identity("2")])
    data = recollement_data(cat, ideal, bound=2)
    dims = [data.quotient.cat.hom_dim[(a, b)] for a in cat.objects for b in cat.objects]
    assert dims == [1, 0, 0, 0]
    corner = witness_corner(data)
    endo_dims = [corner.cat.hom_dim[(o, o)] for o in corner.cat.objects]
    assert 1 in endo_dims


@pytest.mark.parametrize("name", ["a2cat(2)", "prod(2)"])
def test_recollement_shadows(name):
    cat = catalog(name)
    for ideal in enumerate_idempotent_ideals(cat):
        data = recollement_data(cat, ideal, bound=2)
        rep = recollement_shadows(data, census_bound=3)
        assert rep["pass"], (name, rep)


def test_recollement_closure_has_the_witness_length():
    # every witness of a2cat(3) lies on the singletons, so the corner is
    # built on a closure of singletons, the zero ideal's on no tuple; the
    # requested bound caps the length of every witness tuple
    cat = catalog("a2cat(3)")
    sizes = []
    for ideal in enumerate_idempotent_ideals(cat):
        data = recollement_data(cat, ideal, bound=3)
        closure = witness_corner(data).closure
        assert all(len(t) <= 3 for t, _ in data.witness) and closure.bound == (1 if data.witness else 0)
        sizes.append(len(closure.cat.objects))
    assert sizes == [0, 1, 1, 2]


@pytest.mark.parametrize("p", [2, 3])
def test_recollement_closure_holds_the_witness_tuples_alone(p):
    # in witness order, and a witness on one tuple reuses the closure the
    # search kept for that tuple; the datum keeps each witness's tuple
    for name in CATALOG_NAMES:
        cat = catalog(name, p)
        for data in witnessed_recollements(cat):
            assert all(eps.src == tuple_id(t) for t, eps in data.witness)
            closure = witness_corner(data).closure
            ids = list(dict.fromkeys(eps.src for _, eps in data.witness))
            assert list(closure.tuples) == ids
            if len(ids) == 1:
                assert closure is closure_on(cat, closure.tuples.values())


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_zero_ideal_datum_has_no_closure_object(name):
    cat = catalog(name, 2)
    data = recollement_data(cat, zero_ideal(cat), bound=3)
    corner = witness_corner(data)
    assert (data.witness, corner.closure.tuples, len(corner.cat.objects)) == ([], {}, 0)
    assert recollement_shadows(data, census_bound=3)["pass"]


def test_recollement_on_longer_witnesses_uses_their_closure(monkeypatch):
    # with the singletons hidden from the witness scan, every nonzero ideal
    # is witnessed on pairs, and the datum is built on the witness pairs
    # alone: 0, 1, 1 and 2 objects, where the whole length-2 closure has 7
    cat = catalog("a2cat(2)")
    hidden = {tuple_id((a,)) for a in cat.objects}
    real = ideals.list_idempotents
    monkeypatch.setattr(ideals, "list_idempotents", lambda c, t: [] if t in hidden else real(c, t))
    sizes = []
    for ideal in enumerate_idempotent_ideals(cat):
        data = recollement_data(cat, ideal, bound=3)
        closure = witness_corner(data).closure
        assert closure.bound == (2 if data.witness else 0)
        assert set(closure.tuples) == {eps.src for _, eps in data.witness}
        sizes.append(len(closure.cat.objects))
        assert recollement_shadows(data, census_bound=3)["pass"]
    assert sizes == [0, 1, 1, 2]


def counting_hom_dim(monkeypatch) -> list:
    """Patches `ttf.hom_dim` to append the source module's category to the
    returned list once per call."""
    calls = []
    real = ttf.hom_dim
    monkeypatch.setattr(ttf, "hom_dim", lambda m, n: calls.append(m.cat) or real(m, n))
    return calls


def test_an_off_by_one_quotient_hom_dim_fails_the_left_adjunction(monkeypatch):
    cat = catalog("a2cat(3)")
    ideal = generated_by(cat, [cat.identity("2")])
    assert recollement_shadows(recollement_data(cat, ideal), census_bound=3)["left_adjunction"]
    data = recollement_data(cat, ideal)
    real = ttf.hom_dim
    monkeypatch.setattr(ttf, "hom_dim", lambda m, n: real(m, n) + (m.cat is data.quotient.cat))
    rep = recollement_shadows(data, census_bound=3)
    assert not rep["left_adjunction"] and not rep["pass"]


def test_zero_ideal_hom_pairs_are_kept_apart_by_category(monkeypatch):
    # over the zero ideal, i_*, i^* and i^! keep module keys, so each
    # quotient pair has a base pair with an equal key; both are solved
    cat = catalog("a2cat(3)")
    data = recollement_data(cat, zero_ideal(cat))
    calls = counting_hom_dim(monkeypatch)
    assert recollement_shadows(data, census_bound=3)["pass"]
    base = {key for key, _cap in cat._derived if key[0] == "hom_dim"}
    quotient = {key for key, _cap in data.quotient.cat._derived if key[0] == "hom_dim"}
    assert base & quotient
    assert (calls.count(cat), calls.count(data.quotient.cat)) == (len(base), len(quotient))
    assert len(calls) == len(base) + len(quotient)


def test_the_a2cat3_census_solves_each_hom_pair_once(monkeypatch, capsys):
    # four hom_dim calls per census x quotient-census pair of every ideal,
    # and the generator adjunction's, were 2,992; the memo solves each
    # distinct pair of a category once (1,107), and the generator rows are
    # read once per witness idempotent, which the unit ideal shares with e1
    # and e2 (1,063)
    calls = counting_hom_dim(monkeypatch)
    assert cli.main(["census", "catalog:a2cat", "--p", "3", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1063


def witnessed_recollements(cat, bound=3):
    return [recollement_data(cat, ideal, bound) for ideal in enumerate_idempotent_ideals(cat)
            if is_trace_of_projectives(cat, ideal, bound) is not None]


def reference_recollement_shadows(data, census_bound=4):
    """The shadows read per ideal on the corner of all its witnesses at once
    (`witness_corner`): every map moved through all witnesses at once, and
    exactness read as image_basis(j^* incl) == kernel_basis(j^* proj) on each
    corner object."""
    cat = data.cat
    census = enumerate_modules(cat, census_bound)
    torsion = [data.triple.in_torsion(m) for m in census]
    corner = witness_corner(data)

    kernel_matches = all(
        (corner.restriction_data(m)[0].total_dim() == 0) == t for m, t in zip(census, torsion)
    )

    generator_adjunction = True
    for o, eps in corner.carrier.items():
        p_mod, _ = proj_module_of_idempotent(corner.closure, eps)
        for m in census:
            if hom_dim(p_mod, m) != corner.restriction_data(m)[0].dims[o]:
                generator_adjunction = False
                break
        if not generator_adjunction:
            break

    left_adjunction = True
    right_adjunction = True
    extended = [data.extension(m) for m in census]
    included = [(n, data.inclusion(n)) for n, t in zip(extended, torsion) if t]
    for m, em in zip(census, extended):
        cm = data.coextension(m)
        for n, i_n in included:
            if hom_dim(em, n) != hom_dim(m, i_n):
                left_adjunction = False
            if hom_dim(i_n, m) != hom_dim(n, cm):
                right_adjunction = False

    sequences = [seq for m in census for seq in simple_kernel_sequences(m)]
    exactness = inexact_sequences(corner, sequences) == []

    report = {
        "kernel_of_corner_is_torsion": kernel_matches,
        "generator_adjunction": generator_adjunction,
        "left_adjunction": left_adjunction,
        "right_adjunction": right_adjunction,
        "corner_exactness": exactness,
    }
    report["pass"] = all(report.values())
    return report


REFERENCE_QUIVERS = {
    "a4": "vertices 1 2 3 4 ; arrow a: 1 -> 2 ; arrow b: 2 -> 3 ; arrow c: 3 -> 4 ;"
          " relation a*b ; relation b*c ; field 2 ; maxlen 3 ;",
    "kronecker3": "vertices 1 2 ; arrow a: 1 -> 2 ; arrow b: 1 -> 2 ; arrow c: 1 -> 2 ; field 2 ; maxlen 1 ;",
    "star": "vertices 1 2 3 4 ; arrow a: 1 -> 4 ; arrow b: 2 -> 4 ; arrow c: 3 -> 4 ; field 2 ; maxlen 1 ;",
}


REFERENCE_CASES = [f"{n}({p})" for p in (2, 3) for n in CATALOG_NAMES] + sorted(REFERENCE_QUIVERS)


def reference_category(name):
    """A freshly built catalog category or path category of `REFERENCE_QUIVERS`."""
    from ringoid.quiver import parse_quiver_dsl, path_category

    return path_category(parse_quiver_dsl(REFERENCE_QUIVERS[name])) if name in REFERENCE_QUIVERS else catalog(name)


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_recollement_shadows_match_the_reference(name):
    # the corner facts are shared by every ideal a witness idempotent
    # witnesses; the reference reads each datum's corner afresh
    cat = reference_category(name)
    recollements = witnessed_recollements(cat)
    assert len(recollements) == len(enumerate_idempotent_ideals(cat))
    for data in recollements:
        rep = recollement_shadows(data, census_bound=3)
        assert rep == reference_recollement_shadows(data, census_bound=3)
        assert rep["pass"], (name, rep)


def class_triples(census, sequences) -> set:
    """The census classes (S, M, M/S) of the sequences 0 -> S -> M -> M/S -> 0."""
    find = census.index.find
    return {(find(incl.src), find(incl.tgt), find(proj.tgt)) for incl, proj in sequences}


def simple_kernel_triples(census) -> set:
    """`class_triples` of the simple-kernel sequences of every census class."""
    return class_triples(census, [seq for m in census.classes for seq in simple_kernel_sequences(m)])


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_extension_sequences_cover_the_simple_kernel_sequences(name):
    # the shadow checks exactness on the crawl's extension sequences: up to
    # isomorphism of sequences they are the simple-kernel sequences of the
    # census, read here off each class's own simple submodules
    cat = reference_category(name)
    census = module_census(cat, 3)
    sequences = extension_sequences(cat, 3)
    assert class_triples(census, sequences) == simple_kernel_triples(census)
    for incl, proj in sequences:
        assert check_naturality(incl) and check_naturality(proj)
        for a in cat.objects:
            inc, pro = incl.comps[a], proj.comps[a]
            assert inc.rank() == inc.cols and pro.rank() == pro.rows
            assert image_basis(inc) == kernel_basis(pro)


def test_extension_sequences_without_a_line_miss_a_simple_kernel_sequence(monkeypatch):
    # each candidate of `_extensions` stands for one line of extension
    # classes: with the last one dropped whenever there are two or more,
    # some simple-kernel sequence of the census is met by no candidate
    from ringoid import modules

    real = modules._extensions

    def dropping_the_last(s, q):
        out = real(s, q)
        return out[:-1] if len(out) >= 2 else out

    missed = []
    for name in REFERENCE_CASES:
        cat = reference_category(name)
        census = module_census(cat, 3)
        with monkeypatch.context() as patch:
            patch.setattr(modules, "_extensions", dropping_the_last)
            sequences = extension_sequences(cat, 3)
        if class_triples(census, sequences) != simple_kernel_triples(census):
            missed.append(name)
    assert missed


@pytest.mark.parametrize("p", [2, 3])
def test_recollement_shadows_on_pair_witnesses_match_the_reference(p, monkeypatch):
    # with the singletons hidden from the witness scan, every nonzero ideal
    # of a2cat is witnessed on pairs, and the unit ideal on two of them
    cat = catalog("a2cat", p)
    hidden = {tuple_id((a,)) for a in cat.objects}
    real = ideals.list_idempotents
    monkeypatch.setattr(ideals, "list_idempotents", lambda c, t: [] if t in hidden else real(c, t))
    recollements = witnessed_recollements(cat)
    assert [len(data.witness) for data in recollements] == [0, 1, 1, 2]
    for data in recollements:
        closure = witness_corner(data).closure
        assert all(len(closure.tuples[eps.src]) == 2 for _, eps in data.witness)
        assert recollement_shadows(data, census_bound=3) == reference_recollement_shadows(data, census_bound=3)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_coextension_is_the_annihilator_modulo_its_zero_product(name, p):
    # i^! reads the largest submodule t(M) killed by I over A/I directly;
    # t(M).I is zero, so i^* of t(M), its quotient by t(M).I, is the same
    # module over the same category
    cat = catalog(name, p)
    census = enumerate_modules(cat, 3)
    recollements = witnessed_recollements(cat)
    assert recollements
    for data in recollements:
        for m in census:
            t_mod, _ = submodule_module(annihilator(m, data.ideal))
            got, want = data.coextension(m), extend_to_quotient(data.quotient, t_mod)
            assert got.cat is want.cat is data.quotient.cat
            assert got.key() == want.key()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_killed_census_classes_are_the_quotient_census(name, p):
    # the shadows read the A/I census off the base census; the crawl of the
    # quotient category is the reference, matched one for one up to iso
    cat = catalog(name, p)
    census = enumerate_modules(cat, 3)
    for data in witnessed_recollements(cat):
        crawled = IsoClasses(enumerate_modules(data.quotient.cat, 3))
        found = [crawled.find(data.extension(m)) for m in census if data.triple.in_torsion(m)]
        assert None not in found
        assert sorted(found) == list(range(len(crawled.classes)))


def inexact_sequences(corner, sequences, restrict_map=corner_restriction_map):
    """The indices of the sequences that j* to the corner (by restrict_map)
    does not carry to short exact sequences: the per-sequence test of the
    shadow."""
    out = []
    for k, (incl, proj) in enumerate(sequences):
        j_incl = restrict_map(corner, incl)
        j_proj = restrict_map(corner, proj)
        for o in corner.cat.objects:
            inc_mat, proj_mat = j_incl.comps[o], j_proj.comps[o]
            if (inc_mat.rank() != j_incl.src.dims[o] or proj_mat.rank() != j_proj.tgt.dims[o]
                    or image_basis(inc_mat) != kernel_basis(proj_mat)):
                out.append(k)
                break
    return out


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_corner_restriction_is_exact_on_every_submodule_sequence(name, p):
    # the shadow checks the crawl's extension sequences only; this reference
    # walks every submodule of every census module, for each witnessed ideal
    cat = catalog(name, p)
    sequences = [seq for m in enumerate_modules(cat, 3) for seq in short_exact_sequences(m)]
    recollements = witnessed_recollements(cat)
    assert recollements
    for data in recollements:
        assert inexact_sequences(witness_corner(data), sequences) == []
        assert recollement_shadows(data, census_bound=3)["corner_exactness"]


def is_simple(m):
    return len(all_submodules(m)) == 2


def dropping_one_vector(which, dropped):
    """corner_restriction_map, except on the injective maps phi out of a
    nonzero module with which(phi): there the image of the first basis
    vector of the first nonzero j* of the source is dropped (its column
    zeroed), and phi is recorded in dropped."""
    def mutated(corner, phi):
        out = corner_restriction_map(corner, phi)
        injective = all(c.rank() == phi.src.dims[a] for a, c in phi.comps.items())
        if not (injective and phi.src.total_dim() > 0 and which(phi)):
            return out
        o = next((o for o, c in out.comps.items() if c.cols), None)
        if o is None:
            return out
        mat = out.comps[o]
        cols = [[0] * mat.rows] + [mat.col(j) for j in range(1, mat.cols)]
        dropped.append(phi)
        return ModuleMap(out.src, out.tgt, {**out.comps, o: Mat.from_cols(mat.p, mat.rows, cols)})

    return mutated


MUTATION_CASES = [("a2cat", 2), ("a2cat", 3), ("prod", 3), ("dual", 2)]


@pytest.mark.parametrize("name, p", MUTATION_CASES)
def test_a_drop_on_a_non_simple_submodule_fails_the_reference(name, p, monkeypatch):
    # a j* that is not a functor on the proper non-simple inclusions: the
    # all-submodule reference sees it, the shadow by design does not (each
    # inclusion it moves starts at a simple module)
    cat = catalog(name, p)
    sequences = [seq for m in enumerate_modules(cat, 3) for seq in short_exact_sequences(m)]
    dropped = []
    mutated = dropping_one_vector(
        lambda phi: phi.src.total_dim() < phi.tgt.total_dim() and not is_simple(phi.src), dropped)
    monkeypatch.setattr(ttf, "corner_restriction_map", mutated)
    fired = 0
    for data in witnessed_recollements(cat):
        dropped.clear()
        bad = inexact_sequences(witness_corner(data), sequences, mutated)
        assert len(bad) == len(dropped)
        fired += len(bad)
        dropped.clear()
        assert recollement_shadows(data, census_bound=3)["pass"]
        assert dropped == []
    assert fired


def assert_exactness_fails_when_fired(name, p, monkeypatch, mutation):
    """Patches ttf.corner_restriction_map with mutation(fired), which
    records in fired each map it corrupts, and checks that the corner
    exactness shadow of each witnessed datum of catalog(name, p) fails
    exactly when the mutation fired on it, and that it fired on some.

    The corner facts of a witness idempotent are shared by every ideal it
    witnesses, so each datum is built on a freshly loaded category: a later
    ideal would otherwise move no maps."""
    fired = []
    monkeypatch.setattr(ttf, "corner_restriction_map", mutation(fired))
    count = 0
    for k in range(len(witnessed_recollements(catalog(name, p)))):
        data = witnessed_recollements(catalog(name, p))[k]
        fired.clear()
        assert recollement_shadows(data, census_bound=3)["corner_exactness"] == (not fired)
        count += bool(fired)
    assert count


@pytest.mark.parametrize("name, p", MUTATION_CASES)
def test_a_drop_on_a_simple_kernel_fails_the_shadow(name, p, monkeypatch):
    assert_exactness_fails_when_fired(
        name, p, monkeypatch, lambda fired: dropping_one_vector(lambda phi: is_simple(phi.src), fired))


def shifting_the_image(moved):
    """corner_restriction_map, except on the injective maps phi out of a
    simple module: there each component has its rows shifted cyclically, so
    it stays injective, and phi is recorded in moved when that moves its
    image."""
    def mutated(corner, phi):
        out = corner_restriction_map(corner, phi)
        injective = all(c.rank() == phi.src.dims[a] for a, c in phi.comps.items())
        if not (injective and is_simple(phi.src)):
            return out
        comps = {o: Mat.from_rows(c.p, c.entries[1:] + c.entries[:1]) if c.rows else c
                 for o, c in out.comps.items()}
        if any(image_basis(comps[o]) != image_basis(c) for o, c in out.comps.items()):
            moved.append(phi)
        return ModuleMap(out.src, out.tgt, comps)

    return mutated


@pytest.mark.parametrize("name, p", MUTATION_CASES)
def test_an_inclusion_off_the_kernel_fails_the_shadow(name, p, monkeypatch):
    # j^*(incl) injective, j^*(proj) surjective and the ranks adding up, but
    # the image of j^*(incl) is not the kernel of j^*(proj): only the zero
    # composite sees it
    assert_exactness_fails_when_fired(name, p, monkeypatch, shifting_the_image)


def collapsing_the_quotient(collapsed):
    """corner_restriction_map, except on the proper surjections phi: there
    j^*(phi) is replaced by the map onto the zero module, which is still
    surjective with a zero composite, and phi is recorded in collapsed when
    j^* of its target is not zero."""
    def mutated(corner, phi):
        out = corner_restriction_map(corner, phi)
        surjective = all(c.rank() == phi.tgt.dims[a] for a, c in phi.comps.items())
        if not (surjective and phi.tgt.total_dim() < phi.src.total_dim()):
            return out
        if out.tgt.total_dim():
            collapsed.append(phi)
        return ModuleMap(out.src, zero_module(corner.cat), {})

    return mutated


@pytest.mark.parametrize("name, p", MUTATION_CASES)
def test_a_quotient_lost_by_j_star_fails_the_shadow(name, p, monkeypatch):
    # j^*(incl) injective, j^*(proj) surjective and their composite zero,
    # but j^* of the quotient is lost: only the ranks adding up to
    # dim j^*M see it
    assert_exactness_fails_when_fired(name, p, monkeypatch, collapsing_the_quotient)


def test_corner_restrictions_validate():
    from reference import validate_module

    cat = catalog("a2cat(2)")
    for ideal in enumerate_idempotent_ideals(cat):
        corner = witness_corner(recollement_data(cat, ideal, bound=2))
        for m in enumerate_modules(cat, 3):
            jm, _ = corner.restriction_data(m)
            assert validate_module(jm) == []


def test_triple_reproduced_from_recollement_kernels():
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 3)
    qcache = {}
    for ideal in enumerate_idempotent_ideals(cat):
        data = recollement_data(cat, ideal, bound=2)
        triple = data.triple
        qcensus = enumerate_modules(data.quotient.cat, 3)
        for m in census:
            in_c = data.extension(m).total_dim() == 0
            in_f = data.coextension(m).total_dim() == 0
            in_t = any(is_iso(m, data.inclusion(n)) for n in qcensus)
            assert in_c == triple.in_closed(m)
            assert in_f == triple.in_free(m)
            assert in_t == triple.in_torsion(m)


def test_fingerprints_distinct_across_triples():
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 4)
    fps = [
        ttf_from_ideal(cat, ideal).census_fingerprint(census)
        for ideal in enumerate_idempotent_ideals(cat)
    ]
    assert len(set(fps)) == len(fps)
