import copy
import json
import random

import pytest

from ringoid.category import (
    CATALOG_NAMES,
    FinCat,
    Morphism,
    cat_from_json,
    cat_to_json,
    catalog,
    from_ring_table,
    list_idempotents,
    opposite,
    transfer_category,
    validate,
)
from ringoid.completion import AdditiveClosure, additive_closure, closure_tuples, idempotent_completion
from ringoid.ideals import enumerate_idempotent_ideals, is_trace_of_projectives, quotient_category
from ringoid.linalg import Mat, Subspace, vector_cap
from ringoid.ttf import CornerCategory
from reference import cats_equal


def _validate_scalar(cat):
    """Reference for validate: both identity laws, then associativity basis
    triple by basis triple, with every coordinate reduced mod p."""
    report = []
    for a in cat.objects:
        for b in cat.objects:
            ida, idb = cat.identity(a), cat.identity(b)
            for f in cat.basis(a, b):
                if cat.compose(f, ida) != f:
                    report.append({"kind": "right-identity", "at": (a, b), "basis": f.coords})
                if cat.compose(idb, f) != f:
                    report.append({"kind": "left-identity", "at": (a, b), "basis": f.coords})
    p = cat.p
    for a in cat.objects:
        for b in cat.objects:
            d_ab = cat.hom_dim[(a, b)]
            if d_ab == 0:
                continue
            for c in cat.objects:
                d_bc = cat.hom_dim[(b, c)]
                if d_bc == 0:
                    continue
                t_abc = cat.comp.get((a, b, c))
                for d in cat.objects:
                    d_cd = cat.hom_dim[(c, d)]
                    if d_cd == 0:
                        continue
                    d_ad = cat.hom_dim[(a, d)]
                    t_acd = cat.comp.get((a, c, d))
                    t_bcd = cat.comp.get((b, c, d))
                    t_abd = cat.comp.get((a, b, d))
                    for i in range(d_ab):
                        for j in range(d_bc):
                            gf = t_abc[i][j] if t_abc else None
                            for k in range(d_cd):
                                lhs = [0] * d_ad
                                if gf is not None and t_acd:
                                    for m, cf in enumerate(gf):
                                        if cf:
                                            for x, y in enumerate(t_acd[m][k]):
                                                if y:
                                                    lhs[x] = (lhs[x] + cf * y) % p
                                rhs = [0] * d_ad
                                hg = t_bcd[j][k] if t_bcd else None
                                if hg is not None and t_abd:
                                    for m, cf in enumerate(hg):
                                        if cf:
                                            for x, y in enumerate(t_abd[i][m]):
                                                if y:
                                                    rhs[x] = (rhs[x] + cf * y) % p
                                if lhs != rhs:
                                    report.append(
                                        {
                                            "kind": "associativity",
                                            "objects": (a, b, c, d),
                                            "basis": (i, j, k),
                                        }
                                    )
    return report


def _corrupted(cat, seed):
    """cat with one composition coordinate moved to another residue."""
    rng = random.Random(seed)
    key = rng.choice(sorted(cat.comp))
    table = [[list(vec) for vec in row] for row in cat.comp[key]]
    i = rng.randrange(len(table))
    j = rng.randrange(len(table[i]))
    m = rng.randrange(len(table[i][j]))
    table[i][j][m] = (table[i][j][m] + rng.randrange(1, cat.p)) % cat.p
    comp = dict(cat.comp)
    comp[key] = table
    return FinCat(cat.p, cat.objects, cat.hom_dim, comp, cat.id_coords)


def test_one_object_f2_is_valid():
    cat = from_ring_table(2, 1, [[(1,)]], (1,))
    assert validate(cat) == []


def test_broken_table_is_detected():
    # dim-2 endo algebra where b*b = 1 but 1 is not a two-sided unit for b
    table = [
        [(1, 0), (0, 0)],
        [(0, 1), (1, 0)],
    ]
    cat = from_ring_table(2, 2, table, (1, 0))
    report = validate(cat)
    assert report, "violation should be reported"
    kinds = {entry["kind"] for entry in report}
    assert kinds & {"associativity", "left-identity", "right-identity"}


def test_nonassociative_triple_reported():
    # x*x = 1, x*1 = 1*x = x is associative; twist one entry to break it:
    # set x*x = x so that (x*x)*x = x*x = x but x*(x*x) = x*x = x ... pick
    # a genuinely broken table instead: x*1 = 1 (identity law broken too),
    # with 1 still declared as the unit.
    table = [
        [(1, 0), (0, 1)],
        [(1, 0), (1, 0)],
    ]
    cat = from_ring_table(2, 2, table, (1, 0))
    report = validate(cat)
    assert any(entry["kind"] == "right-identity" for entry in report) or any(
        entry["kind"] == "associativity" for entry in report
    )


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_catalog_categories_validate(name, p):
    cat = catalog(name, p)
    assert validate(cat) == _validate_scalar(cat) == []


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_validate_matches_scalar_on_closures(name, p):
    cat = additive_closure(catalog(name, p), 2).cat
    assert validate(cat) == _validate_scalar(cat) == []


def test_validate_matches_scalar_on_karoubi_envelope():
    cat = idempotent_completion(catalog("a2cat", 2), 2).cat
    assert validate(cat) == _validate_scalar(cat) == []


@pytest.mark.parametrize("name", ["mat2(2)", "a2cat(2)", "mat2(5)", "a2(7)", "a2cat(3)"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_validate_matches_scalar_on_corrupted_closures(name, seed):
    cat = _corrupted(additive_closure(catalog(name), 2).cat, seed)
    report = validate(cat)
    assert report == _validate_scalar(cat)
    assert any(entry["kind"] == "associativity" for entry in report)


def test_validate_at_the_largest_modulus():
    # slots widen with p; coordinates near p/2 in size still compare exactly
    p = 2 ** 31 - 1
    cat = additive_closure(catalog("a2", p), 2).cat
    assert validate(cat) == _validate_scalar(cat) == []
    broken = _corrupted(cat, 5)
    assert validate(broken) == _validate_scalar(broken) != []


def test_catalog_name_with_embedded_prime():
    assert cats_equal(catalog("dual(2)"), catalog("dual", 2))
    with pytest.raises(KeyError):
        catalog("nosuch(2)")
    with pytest.raises(KeyError):
        catalog("dual")


def test_a2cat_shape():
    cat = catalog("a2cat", 2)
    assert cat.total_dim() == 3
    assert cat.hom_dim[("1", "2")] == 1
    assert cat.hom_dim[("2", "1")] == 0


def test_prod_has_four_idempotents():
    cat = catalog("prod", 2)
    idems = list_idempotents(cat)
    assert len(idems) == 4


def test_dual_has_only_trivial_idempotents():
    cat = catalog("dual", 2)
    idems = list_idempotents(cat)
    coords = sorted(e.coords for e in idems)
    assert coords == [(0, 0), (1, 0)]


def test_pt_idempotents():
    cat = catalog("pt", 3)
    assert sorted(e.coords for e in list_idempotents(cat)) == [(0,), (1,)]


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_packed_idempotent_scan_matches_compose(name, p, bound):
    # reference: square every element with the generic compose, in
    # `elements` order, on each closure object whose scan fits the cap
    ccat = additive_closure(catalog(name, p), bound).cat
    scanned = 0
    for a in ccat.objects:
        if p ** ccat.hom_dim[(a, a)] > vector_cap():
            continue
        want = [f for f in ccat.elements(a, a) if ccat.compose(f, f) == f]
        assert list_idempotents(ccat, a) == want, a
        scanned += 1
    assert scanned >= 2


def _precompose_reference(cat, r, t):
    """Reference for `precompose_matrix`: one generic compose per column."""
    return Mat.from_cols(cat.p, cat.hom_dim[(r.src, t)], [cat.compose(x, r).coords for x in cat.basis(r.tgt, t)])


def _postcompose_reference(cat, r, s):
    """Reference for `postcompose_matrix`: one generic compose per column."""
    return Mat.from_cols(cat.p, cat.hom_dim[(s, r.tgt)], [cat.compose(r, x).coords for x in cat.basis(s, r.src)])


@pytest.mark.parametrize("bound", [0, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_pre_and_postcompose_matrices_match_compose(name, p, bound):
    # bound 0 is the catalog category itself; every basis morphism and three
    # seeded random ones per hom space (the zero morphism of a zero space),
    # against every object on the other side
    cat = catalog(name, p)
    if bound:
        cat = additive_closure(cat, bound).cat
    rng = random.Random(f"{name}-{p}-{bound}")
    hom, objs = cat.hom_dim, cat.objects
    absent = 0
    for a in objs:
        for b in objs:
            rs = cat.basis(a, b) + [Morphism(a, b, [rng.randrange(p) for _ in range(hom[(a, b)])])
                                    for _ in range(3)]
            for r in rs:
                for t in objs:
                    pre, post = cat.precompose_matrix(r, t), cat.postcompose_matrix(r, t)
                    assert (pre.rows, pre.cols) == (hom[(a, t)], hom[(b, t)])
                    assert (post.rows, post.cols) == (hom[(t, b)], hom[(t, a)])
                    assert pre == _precompose_reference(cat, r, t), (r, t)
                    assert post == _postcompose_reference(cat, r, t), (r, t)
                    absent += ((a, b, t) not in cat.comp) + ((t, a, b) not in cat.comp)
    # the closures' zero object and a2cat's zero A(2, 1) leave tables absent,
    # and the shapes above held for those pairs too
    assert bool(absent) == (bound > 0 or name == "a2cat")


def test_mat2_is_valid_and_unit_is_trace():
    cat = catalog("mat2", 2)
    assert validate(cat) == []
    assert cat.id_coords["x"] == (1, 0, 0, 1)


def test_opposite_is_involution():
    for name in CATALOG_NAMES:
        cat = catalog(name, 2)
        assert cats_equal(opposite(opposite(cat)), cat)


def test_opposite_is_valid_category():
    for name in CATALOG_NAMES:
        assert validate(opposite(catalog(name, 2))) == []


def test_opposite_swaps_hom_dims():
    cat = catalog("a2cat", 2)
    op = opposite(cat)
    assert op.hom_dim[("2", "1")] == 1
    assert op.hom_dim[("1", "2")] == 0


def test_compose_bilinearity():
    cat = catalog("mat2", 2)
    fs = list(cat.elements("x", "x"))
    f, g, h = fs[3], fs[7], fs[11]
    lhs = cat.compose(h, cat.add(f, g))
    rhs = cat.add(cat.compose(h, f), cat.compose(h, g))
    assert lhs == rhs


def test_json_roundtrip_and_determinism():
    for name in CATALOG_NAMES:
        cat = catalog(name, 2)
        text = cat_to_json(cat)
        again = cat_to_json(cat_from_json(text))
        assert text == again
        assert cat_to_json(cat) == text


def test_ring_table_shape_errors():
    with pytest.raises(ValueError):
        from_ring_table(2, 2, [[(1, 0)]], (1, 0))
    with pytest.raises(ValueError):
        from_ring_table(2, 1, [[(1,)]], (1, 0))


def test_morphism_arithmetic():
    cat = catalog("dual", 3)
    x = Morphism("x", "x", (0, 1))
    assert cat.compose(x, x).is_zero()
    assert cat.scale(2, x).coords == (0, 2)
    assert cat.sub(x, x).is_zero()


@pytest.mark.parametrize(
    "doc",
    [
        {"p": 2, "objects": 5},
        {"p": 2, "objects": ["a"], "hom": {"a|a": 1}, "comp": {"a|a|a": 5}, "id": {"a": [1]}},
        {"p": 2, "objects": ["a"], "hom": {"a|a": 1}, "comp": {"a|a|a": [[[1.5]]]}, "id": {"a": [1]}},
        {"p": 3.7, "objects": []},
        {"p": True, "objects": []},
        {"p": 2, "objects": ["a"], "hom": {"a|a": True}, "id": {"a": [1]}},
        {"p": 2, "objects": ["a"], "hom": {"a|a": 1}, "comp": {"a|a|a": [[["1"]]]}, "id": {"a": [1]}},
        {"p": 2, "objects": ["a"], "hom": {"a|a": 1}, "id": {"a": [1]}},
        {"p": 2, "objects": ["a", "b"], "hom": {"a|b": 10 ** 9}},
        {"p": 2, "objects": ["a"], "hom": [], "id": {}},
        {"p": 2, "objects": ["a"], "hom": {"a": 1}},
        {"p": 2 ** 61 - 1, "objects": []},
        [],
    ],
)
def test_malformed_category_documents_raise_value_error(doc):
    with pytest.raises(ValueError):
        cat_from_json(json.dumps(doc))


def test_fincat_rejects_inexact_entries():
    with pytest.raises(ValueError):
        FinCat(3.0, ["x"], {("x", "x"): 1}, {("x", "x", "x"): (((1,),),)}, {"x": (1,)})
    with pytest.raises(ValueError):
        FinCat(2, ["x"], {("x", "x"): 1}, {("x", "x", "x"): (((1.0,),),)}, {"x": (1,)})
    with pytest.raises(ValueError):
        FinCat(2, ["x"], {("x", "x"): 1}, {("x", "x", "y"): (((1,),),)}, {"x": (1,)})


def test_fincat_stores_reduced_int_vectors():
    cat = FinCat(2, ["x"], {("x", "x"): 1}, {("x", "x", "x"): (((True,),),)}, {"x": (True,)})
    assert [type(x) for x in cat.comp[("x", "x", "x")][0][0] + cat.id_coords["x"]] == [int, int]
    assert '"comp":{"x|x|x":[[[1]]]}' in cat_to_json(cat) and "true" not in cat_to_json(cat)
    cat = FinCat(3, ["x"], {("x", "x"): 1}, {("x", "x", "x"): (((-2,),),)}, {"x": (-5,)})
    assert cat.comp[("x", "x", "x")] == (((1,),),) and cat.id_coords["x"] == (1,)


def test_fincat_refuses_a_float_equal_to_a_stored_vector():
    # equal vectors are shared, but (1.0,) == (1,) must not let a float in
    hom = {("x", "x"): 1, ("y", "y"): 1}
    ints = {("x", "x", "x"): (((1,),),), ("y", "y", "y"): (((1,),),)}
    with pytest.raises(ValueError):
        FinCat(2, ["x", "y"], hom, {**ints, ("y", "y", "y"): (((1.0,),),)}, {"x": (1,), "y": (1,)})
    with pytest.raises(ValueError):
        FinCat(2, ["x", "y"], hom, ints, {"x": (1,), "y": (1.0,)})


def test_fincat_shares_equal_vectors_rows_and_tables():
    cat = catalog("dual", 2)
    table = cat.comp[("x", "x", "x")]
    assert table[0][1] is table[1][0]
    assert table[0][0] is cat.id_coords["x"]
    karoubi = idempotent_completion(catalog("prod", 2), 1).cat
    tables = list(karoubi.comp.values())
    rows = [row for t in tables for row in t]
    vectors = [vec for row in rows for vec in row]
    for parts in (tables, rows, vectors):
        assert len({id(x) for x in parts}) == len(set(parts)) < len(parts)


def _trusted_and_validated(build, monkeypatch):
    """(trusted, validated) for every category that build() makes through
    FinCat._built, the second from FinCat(...) on the same arguments."""
    pairs = []
    trusted = FinCat._built

    def both(p, objects, hom_dim, comp, id_coords, name):
        cat = trusted(p, objects, hom_dim, comp, id_coords, name)
        pairs.append((cat, FinCat(p, objects, hom_dim, comp, id_coords, name)))
        return cat

    with monkeypatch.context() as m:
        m.setattr(FinCat, "_built", both)
        build()
    assert pairs
    for cat, checked in pairs:
        assert (cat.p, cat.objects, cat.name) == (checked.p, checked.objects, checked.name)
        assert list(cat.hom_dim.items()) == list(checked.hom_dim.items())
        assert list(cat.comp.items()) == list(checked.comp.items())
        assert list(cat.id_coords.items()) == list(checked.id_coords.items())
        for built in (cat, checked):
            tables = list(built.comp.values())
            rows = [row for t in tables for row in t]
            vectors = [vec for row in rows for vec in row] + list(built.id_coords.values())
            assert all(type(x) is int for vec in vectors for x in vec)
            for parts in (tables, rows, vectors):
                assert len({id(x) for x in parts}) == len(set(parts))
    return [cat for cat, _ in pairs]


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_trusted_closure_equals_validated(name, p, bound, monkeypatch):
    cat = catalog(name, p)
    _trusted_and_validated(lambda: AdditiveClosure(cat, closure_tuples(cat.objects, bound)), monkeypatch)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_trusted_quotients_and_corners_equal_validated(name, p, monkeypatch):
    cat = catalog(name, p)
    for ideal in enumerate_idempotent_ideals(cat):
        _trusted_and_validated(lambda: quotient_category(cat, ideal), monkeypatch)
        # bound 3 is the census default
        witness = is_trace_of_projectives(cat, ideal, 3)
        if witness is not None:
            closure = additive_closure(cat, 3)
            _trusted_and_validated(
                lambda: CornerCategory(closure, {f"e{i}": eps for i, (_, eps) in enumerate(witness)}, "corner"),
                monkeypatch)


@pytest.mark.parametrize("name, bound", [("dual(2)", 2), ("a2cat(3)", 1)])
def test_trusted_karoubi_envelope_equals_validated(name, bound, monkeypatch):
    cats = _trusted_and_validated(lambda: idempotent_completion(catalog(name), bound), monkeypatch)
    assert validate(cats[-1]) == []


def _transfer_prod(encode):
    """prod(2) twice over: objects u and v over x, each hom space all of A(x, x)."""
    base = catalog("prod", 2)
    pairs = [(a, b) for a in "uv" for b in "uv"]
    return transfer_category(
        base, ["u", "v"], {"u": "x", "v": "x"}, {pair: Mat.identity(2, 2) for pair in pairs},
        {pair: encode(pair) for pair in pairs}, {"u": (1, 1), "v": (1, 1)}, "prod-twice",
    )


def test_transfer_category_names_the_first_triple_a_composite_escapes():
    # e1 e1 = e1 is composed and encoded at (u, u, u) first; (u, v) refuses
    # it, and the memoized composite must still be encoded there
    full = Subspace.full(2, 2)
    calls = []

    def encode(pair):
        def enc(v):
            calls.append((pair, v))
            return None if pair == ("u", "v") and v == (1, 0) else full.coords(v)
        return enc

    with pytest.raises(RuntimeError, match=r"composite escaped the hom space at \('u', 'u', 'v'\)"):
        _transfer_prod(encode)
    assert calls[-1] == (("u", "v"), (1, 0))
    assert (("u", "u"), (1, 0)) in calls
    twice = _transfer_prod(lambda pair: full.coords)
    assert len(twice.comp) == 8
    assert set(twice.comp.values()) == {catalog("prod", 2).comp[("x", "x", "x")]}


def test_transfer_category_refuses_an_escaping_identity():
    full = Subspace.full(2, 2)

    def encode(pair):
        return lambda v: None if pair == ("v", "v") and v == (1, 1) else full.coords(v)

    with pytest.raises(RuntimeError, match="identity escaped the endomorphism space of v"):
        _transfer_prod(encode)


def _json_values():
    from hypothesis import strategies as st

    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )


def _mutations(doc):
    """Copies of doc with one subtree, found by a random walk, replaced."""
    from hypothesis import strategies as st

    @st.composite
    def mutate(draw):
        out = copy.deepcopy(doc)
        node, key = None, None
        value = out
        while isinstance(value, (dict, list)) and value and draw(st.booleans()):
            keys = sorted(value) if isinstance(value, dict) else range(len(value))
            node, key = value, draw(st.sampled_from(keys))
            value = node[key]
        new = draw(st.integers(-3, 9) | _json_values())
        if node is None:
            return new
        node[key] = new
        return out

    return mutate()


def _random_category_documents():
    """Documents with the right shapes and random structure constants."""
    from hypothesis import strategies as st

    @st.composite
    def document(draw):
        p = draw(st.sampled_from([2, 3, 5]))
        objects = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True))
        hom = {}
        for a in objects:
            for b in objects:
                hom[(a, b)] = draw(st.integers(1, 2) if a == b else st.integers(0, 2))
        coords = lambda n: st.lists(st.integers(-1, p), min_size=n, max_size=n)  # noqa: E731
        comp = {}
        for a in objects:
            for b in objects:
                for c in objects:
                    if hom[(a, b)] and hom[(b, c)] and hom[(a, c)]:
                        rows, cols = hom[(a, b)], hom[(b, c)]
                        comp[f"{a}|{b}|{c}"] = [
                            [draw(coords(hom[(a, c)])) for _ in range(cols)] for _ in range(rows)
                        ]
        ids = {a: draw(coords(hom[(a, a)])) for a in objects}
        return {
            "p": p,
            "objects": objects,
            "hom": {f"{a}|{b}": d for (a, b), d in hom.items()},
            "comp": comp,
            "id": ids,
        }

    return document()


def test_cat_from_json_total_and_validate_matches_scalar():
    # every document is either a category or a ValueError, and every
    # category it yields validates exactly as the scalar reference does
    from hypothesis import given, settings, strategies as st

    valid = [json.loads(cat_to_json(catalog(name, p))) for name in CATALOG_NAMES for p in (2, 3, 5)]
    documents = (
        _random_category_documents()
        | st.sampled_from(valid).flatmap(_mutations)
        | _random_category_documents().flatmap(_mutations)
        | _json_values()
    )

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(documents)
    def run(doc):
        try:
            cat = cat_from_json(json.dumps(doc))
        except ValueError:
            return
        assert validate(cat) == _validate_scalar(cat)

    run()
