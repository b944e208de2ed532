import functools
import json

import pytest

from ringoid import completion
from ringoid.category import CATALOG_NAMES, FinCat, Morphism, cat_from_json, catalog, list_idempotents, validate
from ringoid.completion import (
    additive_closure,
    closure_tuples,
    find_oplus_generator,
    idempotent_completion,
    induce_module,
    proj_module_of_idempotent,
    tuple_id,
)
from ringoid.linalg import CapExceeded, DimensionMismatch, Subspace, vector_cap
from ringoid.modules import ModuleMap, enumerate_modules, hom_space, image, representable, submodule_module
from ringoid.quiver import parse_quiver_dsl, path_category
from reference import restrict_module, validate_module

CATALOG = ["pt(2)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)", "a2(2)"]


@pytest.mark.parametrize("name", CATALOG)
def test_closure_validates(name):
    closure = additive_closure(catalog(name), 2)
    assert validate(closure.cat) == []


@pytest.mark.parametrize("name", CATALOG)
def test_singleton_embedding_fully_faithful(name):
    cat = catalog(name)
    closure = additive_closure(cat, 2)
    for a in cat.objects:
        for b in cat.objects:
            assert closure.cat.hom_dim[(closure.embed_object(a), closure.embed_object(b))] == cat.hom_dim[(a, b)]
            for f in cat.basis(a, b):
                for g in cat.basis(b, a) if cat.hom_dim[(b, a)] else []:
                    lhs = closure.cat.compose(closure.embed_morphism(g), closure.embed_morphism(f))
                    rhs = closure.embed_morphism(cat.compose(g, f))
                    assert lhs == rhs


def test_pair_hom_dims_double():
    cat = catalog("dual(2)")
    closure = additive_closure(cat, 2)
    pair = tuple_id(("x", "x"))
    single = closure.embed_object("x")
    assert closure.cat.hom_dim[(pair, single)] == 2 * cat.hom_dim[("x", "x")]
    assert closure.cat.hom_dim[(pair, pair)] == 4 * cat.hom_dim[("x", "x")]


def test_pt_pair_endos_are_two_by_two_matrices():
    cat = catalog("pt(2)")
    closure = additive_closure(cat, 2)
    pair = tuple_id(("x", "x"))
    assert closure.cat.hom_dim[(pair, pair)] == 4
    # the endo algebra of the pair is the 2x2 matrix algebra: 8 idempotents
    idems = list_idempotents(closure.cat, pair)
    assert len(idems) == 8


def test_biproduct_equations():
    cat = catalog("a2cat(2)")
    closure = additive_closure(cat, 2)
    pair = ("1", "2")
    pid = tuple_id(pair)
    # inclusions and projections between the pair and its components
    for k, comp in enumerate(pair):
        single = (comp,)
        inc = closure.from_blocks(single, pair, {(0, k): cat.identity(comp)})
        proj = closure.from_blocks(pair, single, {(k, 0): cat.identity(comp)})
        assert closure.cat.compose(proj, inc) == closure.embed_morphism(cat.identity(comp))
    total = None
    for k, comp in enumerate(pair):
        single = (comp,)
        inc = closure.from_blocks(single, pair, {(0, k): cat.identity(comp)})
        proj = closure.from_blocks(pair, single, {(k, 0): cat.identity(comp)})
        term = closure.cat.compose(inc, proj)
        total = term if total is None else closure.cat.add(total, term)
    assert total == Morphism(pid, pid, closure.cat.id_coords[pid])


def test_closure_object_cap():
    # 2^0 + ... + 2^7 = 255 tuples of length <= 7 over two objects
    with pytest.raises(CapExceeded, match="255 objects, over cap 130"):
        additive_closure(catalog("a2cat(2)"), 7)


def test_closure_object_cap_refuses_before_listing_tuples(monkeypatch):
    # bound 18 over two objects: 2^19 - 1 tuples, refused from their count
    # before one more than the cap is drawn from closure_tuples
    from ringoid import completion

    real = completion.closure_tuples

    def guarded(objects, bound):
        for n, t in enumerate(real(objects, bound)):
            assert n < completion.MAX_CLOSURE_OBJECTS, "tuples listed past the cap"
            yield t

    monkeypatch.setattr(completion, "closure_tuples", guarded)
    with pytest.raises(CapExceeded) as refusal:
        additive_closure(catalog("a2cat(2)"), 18)
    e = refusal.value
    assert (e.operation, e.needed, e.cap) == (completion.CLOSURE_OBJECTS, 2 ** 19 - 1, 130)


def test_maxlen_one_recovers_base():
    cat = catalog("dual(2)")
    closure = additive_closure(cat, 1)
    # objects: the empty tuple and one singleton
    assert len(closure.cat.objects) == 2
    a = closure.embed_object("x")
    assert closure.cat.hom_dim[(a, a)] == 2


@pytest.mark.parametrize("name", CATALOG)
def test_karoubi_validates(name):
    comp = idempotent_completion(catalog(name), 1)
    assert validate(comp.cat) == []


def test_karoubi_bound_two_validates_and_keeps_center():
    from ringoid.center import compute_center

    for name in ["a2cat(2)", "dual(2)"]:
        cat = catalog(name)
        comp = idempotent_completion(cat, 2)
        assert validate(comp.cat) == []
        assert compute_center(comp.cat).dim == compute_center(cat).dim


def test_karoubi_composes_and_encodes_each_distinct_composite_once(monkeypatch):
    # dual(2) at bound 2 has 84,564 table entries but 2,307 distinct basis
    # pairs and 2,892 distinct (target space, composite) encodings;
    # composing and encoding per entry made 96,489 and 84,593 calls.  The
    # pre- and postcomposition matrices of the sandwich spaces read the
    # tables and make none (648 when they composed once per column, 11,664
    # at two per basis element)
    counts = {"compose": 0, "coords": 0}
    compose, coords = FinCat.compose, Subspace.coords

    def counted_compose(self, g, f):
        counts["compose"] += 1
        return compose(self, g, f)

    def counted_coords(self, v):
        counts["coords"] += 1
        return coords(self, v)

    monkeypatch.setattr(FinCat, "compose", counted_compose)
    monkeypatch.setattr(Subspace, "coords", counted_coords)
    idempotent_completion(catalog("dual", 2), 2)
    assert counts["compose"] <= 2_400
    assert counts["coords"] <= 3_000


def test_extension_enumeration_cap_refusal(monkeypatch):
    # at cap 7 the submodule scans of the crawl fit, and an extension space
    # of dimension 3 (8 elements) is the first scan to refuse
    monkeypatch.setenv("RINGOID_CAP_VECTORS", "7")
    with pytest.raises(CapExceeded, match=r"^extension scan: p\^dim Ext = 8 exceeds cap 7"):
        enumerate_modules(catalog("a2cat(2)"), 4)


def test_identity_object_keeps_endo_algebra():
    cat = catalog("dual(2)")
    comp = idempotent_completion(cat, 1)
    # find (x, id): its endo algebra must have the base dimension
    for obj, eps in comp.carrier.items():
        if comp.closure.tuples[eps.src] == ("x",) and eps.coords == tuple(cat.id_coords["x"]):
            assert comp.cat.hom_dim[(obj, obj)] == cat.hom_dim[("x", "x")]
            break
    else:
        pytest.fail("identity idempotent not found")


def test_every_idempotent_splits():
    # hom dims against (t, id) decompose along (t, r) + (t, id - r)
    cat = catalog("prod(2)")
    comp = idempotent_completion(cat, 1)
    ccat = comp.cat
    by_carrier = {}
    for obj, eps in comp.carrier.items():
        by_carrier.setdefault(eps.src, []).append((obj, eps))
    for carrier_id, objs in by_carrier.items():
        ids = comp.closure.cat.id_coords[carrier_id]
        id_obj = next(o for o, m in objs if m.coords == tuple(ids))
        for o, eps in objs:
            r = eps
            complement = Morphism(
                carrier_id, carrier_id,
                tuple((x - y) % 2 for x, y in zip(ids, r.coords)),
            )
            comp_obj = next(
                oo for oo, mm in objs if mm.coords == complement.coords
            )
            for other, _ in objs:
                lhs = ccat.hom_dim[(id_obj, other)]
                rhs = ccat.hom_dim[(o, other)] + ccat.hom_dim[(comp_obj, other)]
                assert lhs == rhs


def test_mat2_completion_has_rank_one_object():
    comp = idempotent_completion(catalog("mat2(2)"), 1)
    endo_dims = sorted(
        comp.cat.hom_dim[(o, o)] for o in comp.cat.objects
    )
    assert 1 in endo_dims  # a column idempotent cuts out a dim-1 endo algebra
    assert 4 in endo_dims  # the identity keeps the full matrix algebra


def test_oplus_generator_pt():
    assert find_oplus_generator(catalog("pt(3)"), 2) == ("x",)


def test_oplus_generator_a2cat():
    assert find_oplus_generator(catalog("a2cat(2)"), 2) == ("1", "2")


def test_oplus_generator_disconnected():
    text = "vertices 1 2 ; field 2 ; maxlen 1 ;"
    cat = path_category(parse_quiver_dsl(text))
    assert find_oplus_generator(cat, 2) == ("1", "2")


def test_oplus_generator_none_within_bound():
    # over the two-object category, no singleton generates; bound 1 only sees
    # singletons, so the search comes back empty
    cat = catalog("a2cat(2)")
    assert find_oplus_generator(cat, 1) is None


A4_DSL = ("vertices 1 2 3 4 ; arrow a: 1 -> 2 ; arrow b: 2 -> 3 ; arrow c: 3 -> 4 ;"
          " relation a*b ; relation b*c ; field 2 ; maxlen 3 ;")


def closure_oplus_generator(base, bound):
    """The generator search as the closure reads it: the first closure
    object g whose identity, sandwiched into each singleton (a), spans id_a."""
    closure = additive_closure(base, bound)
    ccat = closure.cat
    for g_id in ccat.objects:
        if all(Subspace.from_vectors(base.p, base.hom_dim[(a, a)], ccat.sandwich_span(
                ccat.identity(g_id), closure.embed_object(a), closure.embed_object(a))).contains(base.id_coords[a])
               for a in base.objects):
            return closure.tuples[g_id]
    return None


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("name", [f"{n}({p})" for p in (2, 3) for n in CATALOG_NAMES] + ["a4"])
def test_oplus_generator_matches_the_closure_search(name, bound):
    cat = path_category(parse_quiver_dsl(A4_DSL)) if name == "a4" else catalog(name)
    found = find_oplus_generator(cat, bound)
    assert not any(key[0] == "additive-closure" for key, _cap in cat._derived)
    assert found == closure_oplus_generator(cat, bound)
    if (name, bound) == ("a2cat(3)", 3):
        assert found == ("1", "2")


def test_closure_order_lists_the_empty_tuple_then_each_length():
    assert list(closure_tuples(["a", "b"], 2)) == [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    with pytest.raises(ValueError):
        closure_tuples(["a"], 0)


# objects a, b and "a,b", each with endomorphisms F_2 and no other morphisms
COMMA_OBJECTS = json.dumps({
    "p": 2,
    "objects": ["a", "b", "a,b"],
    "hom": {f"{o}|{o}": 1 for o in ("a", "b", "a,b")},
    "comp": {f"{o}|{o}|{o}": [[[1]]] for o in ("a", "b", "a,b")},
    "id": {o: [1] for o in ("a", "b", "a,b")},
})


def test_tuple_ids_are_injective():
    closure = additive_closure(cat_from_json(COMMA_OBJECTS), 2)
    assert len(closure.cat.objects) == len(set(closure.cat.objects)) == 13
    assert tuple_id(("a", "b")) == "(a,b)" and tuple_id(("a,b",)) == '("a,b")'
    assert tuple_id(()) != tuple_id(("",))
    # names without a comma or a double quote keep their ids
    assert tuple_id(("x", "1", "(y)")) == "(x,1,(y))"
    assert validate(closure.cat) == []


def test_induce_restrict_roundtrip():
    cat = catalog("a2cat(2)")
    closure = additive_closure(cat, 2)
    for m in enumerate_modules(cat, 3):
        mhat = induce_module(closure, m)
        assert validate_module(mhat) == []
        assert restrict_module(closure, mhat).key() == m.key()


@pytest.mark.parametrize("name", ["a2cat(2)", "dual(2)", "prod(3)"])
def test_block_action_is_the_induced_module_action(name):
    cat = catalog(name)
    closure = additive_closure(cat, 2)
    ccat = closure.cat
    for m in enumerate_modules(cat, 2):
        mhat = induce_module(closure, m)
        for s in ccat.objects:
            for t in ccat.objects:
                basis = list(ccat.basis(s, t))
                # the sum of the basis has every block nonzero where the hom space is
                for f in basis + [functools.reduce(ccat.add, basis, ccat.zero(s, t))]:
                    assert closure.act(m, f) == mhat.act(f), (s, t, f.coords)


def test_proj_module_of_identity_is_representable():
    cat = catalog("a2cat(2)")
    closure = additive_closure(cat, 1)
    from ringoid.modules import is_iso

    p_mod, _ = proj_module_of_idempotent(closure, closure.embed_morphism(cat.identity("2")))
    assert is_iso(p_mod, representable(cat, "2"))


def reference_proj_module(closure, eps):
    """P_e through the closure: its representable at eps.src, restricted
    along the singleton embedding to the base module c -> closure(c, eps.src),
    cut by postcomposition with eps in the closure."""
    ccat = closure.cat
    amb = restrict_module(closure, representable(ccat, eps.src))
    comps = {a: ccat.postcompose_matrix(eps, closure.embed_object(a)) for a in closure.base.objects}
    return submodule_module(image(ModuleMap(amb, amb, comps)))


def bound_2_idempotents(p):
    """(closure, eps) for every idempotent of every bound-2 catalog closure
    at p, skipping the End spaces over the vector cap."""
    for name in CATALOG_NAMES:
        closure = additive_closure(catalog(name, p), 2)
        ccat = closure.cat
        for t in ccat.objects:
            if p ** ccat.hom_dim[(t, t)] <= vector_cap():
                for eps in list_idempotents(ccat, t):
                    yield closure, eps


def proj_module_mismatches(p):
    """(idempotents compared, those whose P_e or inclusion differs from the
    closure route)."""
    seen = differ = 0
    for closure, eps in bound_2_idempotents(p):
        (p_mod, incl), (ref_mod, ref_incl) = proj_module_of_idempotent(closure, eps), reference_proj_module(closure, eps)
        seen += 1
        differ += (p_mod.key(), incl.comps) != (ref_mod.key(), ref_incl.comps)
    return seen, differ


def test_proj_module_from_the_base_is_the_closure_route():
    # 530 idempotents, 12 of them the zero endomorphism of the zero tuple
    assert [proj_module_mismatches(p) for p in (2, 3)] == [(432, 0), (98, 0)]


def test_proj_module_with_transposed_blocks_fails_the_closure_route(monkeypatch):
    # reading the component t_l -> t_j into block (l, j) breaks P_e on
    # tuples of one repeated object, and refuses a block of the wrong shape
    # on the others
    real = completion.AdditiveClosure.block
    monkeypatch.setattr(completion.AdditiveClosure, "block", lambda self, f, i, j: real(self, f, j, i))
    cat = catalog("a2cat(2)")
    closure = additive_closure(cat, 2)
    same = [eps for t_id, t in closure.tuples.items() if len(set(t)) == 1
            for eps in list_idempotents(closure.cat, t_id)]
    assert any(proj_module_of_idempotent(closure, eps)[1].comps != reference_proj_module(closure, eps)[1].comps
               for eps in same)
    with pytest.raises(DimensionMismatch):
        proj_module_of_idempotent(closure, closure.from_blocks(("1", "2"), ("1", "2"), {
            (0, 0): cat.identity("1"), (1, 1): cat.identity("2")}))


def test_yoneda_dim_identity_on_projective_cut():
    cat = catalog("prod(2)")
    closure = additive_closure(cat, 1)
    e = Morphism("x", "x", (1, 0))
    p_mod, _ = proj_module_of_idempotent(closure, closure.embed_morphism(e))
    for m in enumerate_modules(cat, 3):
        # hom from the idempotent cut equals the rank of the idempotent action
        assert len(hom_space(p_mod, m)) == m.act(e).rank()


def test_endo_algebra_four_term_decomposition():
    # End(t, id) splits into the four sandwich blocks of r and id - r
    for name in ["prod(2)", "mat2(2)"]:
        cat = catalog(name)
        comp = idempotent_completion(cat, 1)
        ccat = comp.cat
        by_carrier = {}
        for obj, eps in comp.carrier.items():
            by_carrier.setdefault(eps.src, []).append((obj, eps))
        for carrier_id, objs in by_carrier.items():
            ids = comp.closure.cat.id_coords[carrier_id]
            id_obj = next(o for o, m in objs if m.coords == tuple(ids))
            for o, eps in objs:
                complement_coords = tuple(
                    (x - y) % cat.p for x, y in zip(ids, eps.coords)
                )
                co = next(oo for oo, mm in objs if mm.coords == complement_coords)
                total = (
                    ccat.hom_dim[(o, o)]
                    + ccat.hom_dim[(co, co)]
                    + ccat.hom_dim[(o, co)]
                    + ccat.hom_dim[(co, o)]
                )
                assert total == ccat.hom_dim[(id_obj, id_obj)]
