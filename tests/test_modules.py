import itertools

import pytest

from ringoid.category import CATALOG_NAMES, catalog, Morphism
from ringoid.linalg import Mat
from ringoid.modules import (
    FinModule,
    IsoClasses,
    ModuleCensus,
    ModuleMap,
    Submodule,
    _extensions,
    all_submodules,
    cyclic_submodule,
    cyclic_submodules,
    direct_sum,
    enumerate_modules,
    full_submodule,
    hom_dim,
    hom_space,
    image,
    is_iso,
    join_closure,
    quotient_module,
    representable,
    representable_quotients,
    simple_modules,
    simple_submodules,
    submodule_module,
    zero_module,
    zero_submodule,
)
from reference import (
    check_naturality,
    gen_witness,
    kernel,
    reference_close,
    reference_fingerprint,
    trace,
    validate_module,
)


def brute_force_submodules(m):
    """Independent oracle: filter all subspace tuples by action closure."""
    from reference import enumerate_subspaces
    from ringoid.modules import Submodule

    cat = m.cat
    per_object = [enumerate_subspaces(m.dims[a], m.p) for a in cat.objects]
    out = []
    for combo in itertools.product(*per_object):
        s = Submodule(m, dict(zip(cat.objects, combo)))
        if s.is_closed():
            out.append(s.key())
    return sorted(set(out))


def test_representable_pt():
    cat = catalog("pt(2)")
    h = representable(cat, "x")
    assert h.dims == {"x": 1}
    assert validate_module(h) == []


def test_representable_dual_dim():
    h = representable(catalog("dual(2)"), "x")
    assert h.total_dim() == 2


def test_representable_a2cat():
    cat = catalog("a2cat(2)")
    h2 = representable(cat, "2")
    assert h2.dims == {"1": 1, "2": 1}
    h1 = representable(cat, "1")
    assert h1.dims == {"1": 1, "2": 0}
    assert validate_module(h1) == [] and validate_module(h2) == []


def test_hom_into_zero():
    cat = catalog("dual(2)")
    h = representable(cat, "x")
    assert hom_space(h, zero_module(cat)) == []


def test_hom_pt_identity_line():
    cat = catalog("pt(2)")
    h = representable(cat, "x")
    assert len(hom_space(h, h)) == 1


@pytest.mark.parametrize("name", ["pt(2)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)"])
def test_yoneda_dimension_identity(name):
    cat = catalog(name)
    mods = enumerate_modules(cat, 3)
    for t in cat.objects:
        h = representable(cat, t)
        for m in mods:
            assert len(hom_space(h, m)) == m.dims[t]


A4 = """
vertices 1 2 3 4 ; arrow a: 1 -> 2 ; arrow b: 2 -> 3 ; arrow c: 3 -> 4 ;
relation a*b ; relation b*c ; field 2 ; maxlen 3 ;
"""
KRONECKER = "vertices 1 2 ; arrow a: 1 -> 2 ; arrow b: 1 -> 2 ; field 2 ; maxlen 1 ;"


def assert_hom_dims_match_hom_spaces(census):
    for m in census:
        for n in census:
            assert hom_dim(m, n) == len(hom_space(m, n)), (m, n)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_hom_dim_is_the_size_of_the_hom_basis_on_the_catalog(name, p):
    assert_hom_dims_match_hom_spaces(enumerate_modules(catalog(name, p), 4))


@pytest.mark.parametrize("text, bound", [(A4, 3), (KRONECKER, 4)], ids=["A4", "kronecker"])
def test_hom_dim_is_the_size_of_the_hom_basis_on_quivers(text, bound):
    # p = 2 rows go through the bit-packed RREF
    from ringoid.quiver import parse_quiver_dsl, path_category

    assert_hom_dims_match_hom_spaces(enumerate_modules(path_category(parse_quiver_dsl(text)), bound))


def test_module_key_is_built_once():
    m = representable(catalog("a2cat(3)"), "2")
    k = m.key()
    assert m.key() is k
    assert k == (tuple(m.dims[a] for a in m.cat.objects), tuple(m.action[x].entries for x in sorted(m.action)))


def test_submodules_of_simple():
    cat = catalog("a2cat(2)")
    s1 = representable(cat, "1")  # H_1 is simple here
    assert len(all_submodules(s1)) == 2


def test_submodules_of_dual_regular():
    cat = catalog("dual(2)")
    h = representable(cat, "x")
    subs = all_submodules(h)
    assert len(subs) == 3
    assert subs == sorted(subs, key=lambda s: (s.total_dim(), s.key()))
    assert brute_force_submodules(h) == sorted(s.key() for s in subs)


def test_submodules_of_h2_a2cat():
    cat = catalog("a2cat(2)")
    h2 = representable(cat, "2")
    subs = all_submodules(h2)
    assert len(subs) == 3
    dims = sorted(tuple(s.spaces[a].dim for a in cat.objects) for s in subs)
    assert dims == [(0, 0), (1, 0), (1, 1)]
    assert brute_force_submodules(h2) == sorted(s.key() for s in subs)


def test_submodules_brute_force_cross_check_more():
    for name in ["prod(2)", "a2(2)", "dual(3)"]:
        cat = catalog(name)
        h = representable(cat, cat.objects[0])
        subs = all_submodules(h)
        assert brute_force_submodules(h) == sorted(s.key() for s in subs)


def join_closure_submodules(m):
    """Reference walk: join every submodule found with every distinct cyclic
    submodule Av, until no new submodule appears."""
    gens = [sub for sub, _, _ in cyclic_submodules(m)]
    subs = join_closure(zero_submodule(m), lambda _: gens, Submodule.sum, Submodule.key)
    return sorted(subs, key=lambda s: (s.total_dim(), s.key()))


QUIVERS = {
    "a4": "vertices 1 2 3 4 ; arrow a: 1 -> 2 ; arrow b: 2 -> 3 ; arrow c: 3 -> 4 ;"
          " relation a*b ; relation b*c ; field 2 ; maxlen 3 ;",
    "kronecker": "vertices 1 2 ; arrow a: 1 -> 2 ; arrow b: 1 -> 2 ; field 2 ; maxlen 1 ;",
    "kronecker3": "vertices 1 2 ; arrow a: 1 -> 2 ; arrow b: 1 -> 2 ; arrow c: 1 -> 2 ;"
                  " field 2 ; maxlen 1 ;",
    "star": "vertices 1 2 3 4 ; arrow a: 1 -> 4 ; arrow b: 2 -> 4 ; arrow c: 3 -> 4 ;"
            " field 2 ; maxlen 1 ;",
    # k[x]/(x^3) over F_3
    "kx3": "vertices 1 ; arrow x: 1 -> 1 ; relation x*x*x ; field 3 ; maxlen 3 ;",
}


@pytest.mark.parametrize("name", [f"{n}({p})" for p in (2, 3) for n in CATALOG_NAMES])
def test_quotient_walk_matches_the_join_closure_on_the_census(name):
    for m in enumerate_modules(catalog(name), 3):
        assert [s.key() for s in all_submodules(m)] == [s.key() for s in join_closure_submodules(m)]


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_quotient_walk_matches_the_join_closure_on_representables(name):
    from ringoid.quiver import parse_quiver_dsl, path_category

    cat = path_category(parse_quiver_dsl(QUIVERS[name]))
    for t in cat.objects:
        h = representable(cat, t)
        assert [s.key() for s in all_submodules(h)] == [s.key() for s in join_closure_submodules(h)]


def test_quotient_walk_sums_once_per_submodule_and_quotient_point(monkeypatch):
    # the point module F_3^4: its 212 subspaces X are joined with one A.r per
    # point of F_3^4 / X, 40 + 40 * 13 + 130 * 4 + 40 * 1 = 1,120 sums; the
    # join closure joins each with all 40 lines, 212 * 40 = 8,480 sums
    cat = catalog("pt(3)")
    m = FinModule(cat, {"x": 4}, {("x", "x", 0): Mat.identity(3, 4)})
    calls = []
    real_sum = Submodule.sum
    monkeypatch.setattr(Submodule, "sum", lambda self, other: calls.append(1) or real_sum(self, other))
    subs = all_submodules(m)
    assert (len(subs), len(calls)) == (212, 1120)
    calls.clear()
    assert len(join_closure_submodules(m)) == 212
    assert len(calls) == 8480


def test_quotient_by_zero_is_iso():
    cat = catalog("dual(2)")
    h = representable(cat, "x")
    q, proj = quotient_module(h, zero_submodule(h))
    assert is_iso(q, h)
    assert not proj.is_zero()


def test_quotient_of_dual_regular_by_radical():
    cat = catalog("dual(2)")
    h = representable(cat, "x")
    subs = all_submodules(h)
    rad = [s for s in subs if s.total_dim() == 1][0]
    q, _ = quotient_module(h, rad)
    assert q.total_dim() == 1
    assert q.act(Morphism("x", "x", (0, 1))).is_zero()


def test_kernel_of_yoneda_map_alpha():
    cat = catalog("a2cat(2)")
    h1, h2 = representable(cat, "1"), representable(cat, "2")
    maps = hom_space(h1, h2)
    assert len(maps) == 1  # Yoneda: dim H_2(1) = 1
    assert kernel(maps[0]).total_dim() == 0


def test_enumerate_pt2():
    mods = enumerate_modules(catalog("pt(2)"), 2)
    assert len(mods) == 3


def test_enumerate_dual2_against_brute_force():
    cat = catalog("dual(2)")
    mods = enumerate_modules(cat, 2)
    assert len(mods) == 4
    # independent oracle: all square-zero matrices up to conjugacy, dims <= 2
    classes = []
    for d in range(3):
        reps = []
        for entries in itertools.product(range(2), repeat=d * d):
            x = Mat(2, d, d, [entries[i * d:(i + 1) * d] for i in range(d)])
            if (x @ x).is_zero():
                m = FinModule(cat, {"x": d}, {("x", "x", 0): Mat.identity(2, d), ("x", "x", 1): x})
                if not any(is_iso(m, r) for r in reps):
                    reps.append(m)
        classes.extend(reps)
    assert len(classes) == len(mods)


def test_enumerate_a2cat2_small():
    # 0, S1, S2, then S1^2, S2^2, S1+S2, and the projective H_2 with dims (1,1)
    mods = enumerate_modules(catalog("a2cat(2)"), 2)
    assert len(mods) == 7
    dim_vectors = sorted(tuple(m.dims[a] for a in m.cat.objects) for m in mods)
    assert dim_vectors == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 1), (2, 0)]


def test_enumerate_mat2_semisimple():
    mods = enumerate_modules(catalog("mat2(2)"), 4)
    assert [m.total_dim() for m in mods] == [0, 2, 4]


def test_enumerate_deterministic():
    cat = catalog("a2cat(2)")
    a = [m.key() for m in enumerate_modules(cat, 3)]
    b = [m.key() for m in enumerate_modules(cat, 3)]
    assert a == b


def test_simples():
    assert len(simple_modules(catalog("pt(3)"))) == 1
    assert len(simple_modules(catalog("dual(2)"))) == 1
    assert len(simple_modules(catalog("a2cat(2)"))) == 2
    assert len(simple_modules(catalog("prod(2)"))) == 2
    simples = simple_modules(catalog("mat2(2)"))
    assert len(simples) == 1 and simples[0].total_dim() == 2


def test_direct_sum_and_iso():
    cat = catalog("a2cat(2)")
    s1, s2 = simple_modules(cat)
    assert not is_iso(s1, s2)
    assert is_iso(direct_sum(s1, s2), direct_sum(s2, s1))
    assert not is_iso(s1, direct_sum(s1, s1))
    assert validate_module(direct_sum(s1, s2)) == []


def test_representable_is_projective_retract_of_itself():
    # For an idempotent endomorphism e, the image of (e . -) splits off H_x:
    # the retraction is (e . -) corestricted, the section is the inclusion.
    cat = catalog("prod(2)")
    h = representable(cat, "x")
    e = Morphism("x", "x", (1, 0))
    postcomp = cat.postcompose_matrix(e, "x")
    from ringoid.modules import ModuleMap

    phi = ModuleMap(h, h, {"x": postcomp})
    p_mod = image(phi)
    n, incl = submodule_module(p_mod)
    # retraction: map u -> e . u, landing in the image
    retr_mat = incl.comps["x"]
    from reference import solve_matrix

    r = solve_matrix(retr_mat, postcomp)
    assert r is not None
    comp = r @ retr_mat  # first include, then retract
    assert comp == Mat.identity(2, n.dims["x"])


def test_idempotent_cuts_are_retracts_everywhere():
    # for every idempotent e on x, the module e.A splits off H_x: the
    # inclusion and the postcompose-with-e retraction compose to the identity
    from ringoid.category import list_idempotents
    from reference import solve_matrix
    from ringoid.modules import ModuleMap

    for name in ["pt(2)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)", "a2(2)"]:
        cat = catalog(name)
        for e in list_idempotents(cat):
            h = representable(cat, e.src)
            phi = ModuleMap(h, h, {a: cat.postcompose_matrix(e, a) for a in cat.objects})
            p_sub = image(phi)
            n, incl = submodule_module(p_sub)
            for a in cat.objects:
                retr = solve_matrix(incl.comps[a], cat.postcompose_matrix(e, a))
                assert retr is not None
                assert retr @ incl.comps[a] == Mat.identity(cat.p, n.dims[a])


def test_trace_of_module_in_itself():
    cat = catalog("dual(2)")
    h = representable(cat, "x")
    assert trace([h], h).key() == full_submodule(h).key()


def test_trace_of_representable_is_generated_by_values():
    cat = catalog("a2cat(2)")
    h2 = representable(cat, "2")
    mods = enumerate_modules(cat, 3)
    for m in mods:
        t = trace([h2], m)
        # oracle: submodule generated by M(2): sum of cyclic submodules
        acc = zero_submodule(m)
        for v in itertools.product(range(2), repeat=m.dims["2"]):
            acc = acc.sum(cyclic_submodule(m, "2", v))
        assert t.key() == acc.key()


def test_trace_against_all_maps_oracle():
    cat = catalog("a2cat(2)")
    h2 = representable(cat, "2")
    simples = simple_modules(cat)
    s2 = [s for s in simples if s.dims["2"] == 1][0]
    t = trace([s2], h2)
    # brute force: sum of images over every natural transformation
    maps = hom_space(s2, h2)
    acc = zero_submodule(h2)
    for coeffs in itertools.product(range(2), repeat=len(maps)):
        comps = {}
        for a in cat.objects:
            m = Mat.zero(2, h2.dims[a], s2.dims[a])
            for c, phi in zip(coeffs, maps):
                if c:
                    m = m + phi.comps[a].scale(c)
            comps[a] = m
        from ringoid.modules import ModuleMap

        acc = acc.sum(image(ModuleMap(s2, h2, comps)))
    assert t.key() == acc.key()


def test_trace_stabilizes():
    cat = catalog("a2cat(2)")
    h2 = representable(cat, "2")
    for m in enumerate_modules(cat, 3):
        t = trace([h2], m)
        t_mod, _ = submodule_module(t)
        again = trace([h2], t_mod)
        assert again.total_dim() == t.total_dim()


def test_gen_witness():
    cat = catalog("pt(2)")
    h = representable(cat, "x")
    m = direct_sum(h, h)
    w = gen_witness([h], m)
    assert w is not None and len(w) == 2
    assert gen_witness([zero_module(cat)], h) is None


def test_enumerated_modules_all_validate():
    for name in ["pt(2)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)", "a2(2)"]:
        for m in enumerate_modules(catalog(name), 3):
            assert validate_module(m) == []


def test_fingerprint_distinguishes_census_dual3():
    mods = enumerate_modules(catalog("dual(3)"), 4)
    fps = [m.fingerprint() for m in mods]
    assert len(set(fps)) == len(fps)


def test_enumeration_feasible_at_dim_six():
    # dual numbers: classes are pairs (simple count, regular count)
    mods = enumerate_modules(catalog("dual(2)"), 6)
    assert len(mods) == 16
    mods = enumerate_modules(catalog("a2cat(3)"), 5)
    dims = {}
    for m in mods:
        dims[m.total_dim()] = dims.get(m.total_dim(), 0) + 1
    # one class per triple (x, y, z) with x + y + 2z = n
    assert dims == {0: 1, 1: 2, 2: 4, 3: 6, 4: 9, 5: 12}


@pytest.mark.parametrize("name", ["dual(2)", "a2cat(2)", "prod(3)"])
def test_hom_space_against_all_component_tuples(name):
    # independent oracle: every tuple of component matrices, filtered by
    # the naturality squares, is exactly the span of the solved basis
    cat = catalog(name)
    p = cat.p
    census = enumerate_modules(cat, 2)
    for m in census:
        for n in census:
            shapes = [(n.dims[a], m.dims[a]) for a in cat.objects]
            natural = set()
            for flat in itertools.product(range(p), repeat=sum(r * c for r, c in shapes)):
                comps, rest = {}, list(flat)
                for a, (r, c) in zip(cat.objects, shapes):
                    comps[a] = Mat(p, r, c, [[rest.pop(0) for _ in range(c)] for _ in range(r)])
                if check_naturality(ModuleMap(m, n, comps)):
                    natural.add(tuple(comps[a] for a in cat.objects))
            basis = hom_space(m, n)
            span = set()
            for coeffs in itertools.product(range(p), repeat=len(basis)):
                comps = []
                for a in cat.objects:
                    acc = Mat.zero(p, n.dims[a], m.dims[a])
                    for c, phi in zip(coeffs, basis):
                        acc = acc + phi.comps[a].scale(c)
                    comps.append(acc)
                span.add(tuple(comps))
            assert len(span) == p ** len(basis)
            assert span == natural


def test_submodule_module_refuses_a_subspace_family_that_is_not_closed():
    from reference import enumerate_subspaces

    h = representable(catalog("dual(3)"), "x")
    open_lines = [s for s in (Submodule(h, {"x": line}) for line in enumerate_subspaces(2, 3)
                              if line.dim == 1) if not s.is_closed()]
    assert open_lines
    for sub in open_lines:
        with pytest.raises(ValueError, match="not closed"):
            submodule_module(sub)


def quiver_or_catalog(name):
    from ringoid.quiver import parse_quiver_dsl, path_category

    return path_category(parse_quiver_dsl(QUIVERS[name])) if name in QUIVERS else catalog(name)


def linear_find(classes, m):
    """The first class isomorphic to m by a scan of every class: the
    reference for `IsoClasses.find`."""
    return next((i for i, c in enumerate(classes) if is_iso(m, c)), None)


def linear_crawl(cat, bound):
    """`simple_modules` and the module crawl with a linear `is_iso` scan for
    every new module, as they were before the fingerprint buckets."""
    simples = []
    for a in cat.objects:
        proper = [(r, q) for b, r, q in representable_quotients(cat) if b == a and not r.is_full()]
        for r, q in proper:
            if not any(s is not r and s.contains(r) for s, _ in proper) and linear_find(simples, q) is None:
                simples.append(q)
    simples.sort(key=lambda m: (m.total_dim(), m.fingerprint()))
    levels = [[zero_module(cat)]]
    for n in range(1, bound + 1):
        found = []
        for s in simples:
            for q in levels[n - s.total_dim()] if s.total_dim() <= n else ():
                for cand in _extensions(s, q):
                    if linear_find(found, cand) is None:
                        found.append(cand)
        levels.append(sorted(found, key=lambda m: (tuple(m.dims[a] for a in cat.objects), m.fingerprint())))
    return simples, [m for level in levels for m in level]


ISO_CASES = [(f"{n}({p})", 3) for p in (2, 3) for n in CATALOG_NAMES] + [("a4", 3), ("kronecker", 3)]


@pytest.mark.parametrize("name, bound", ISO_CASES)
def test_iso_classes_find_the_first_class_a_linear_scan_finds(name, bound):
    # a prefix of the census misses classes (None); the prefix followed by
    # the whole census repeats them (the first index wins)
    classes = enumerate_modules(quiver_or_catalog(name), bound)
    refs = [classes[: len(classes) // 2], classes[: len(classes) // 2] + classes]
    indices = [IsoClasses(ref) for ref in refs]
    for m in classes:
        for s in all_submodules(m):
            for x in (m, submodule_module(s)[0], quotient_module(m, s)[0]):
                for ref, index in zip(refs, indices):
                    assert index.find(x) == linear_find(ref, x)
    assert indices[0].find(classes[-1]) is None


@pytest.mark.parametrize("name, bound", [(n, 3) for n, _ in ISO_CASES] + [("a4", 4), ("kronecker3", 4)])
def test_crawl_keys_match_the_linear_scan_crawl(name, bound):
    cat = quiver_or_catalog(name)
    simples, classes = linear_crawl(cat, bound)
    assert [m.key() for m in simple_modules(cat)] == [m.key() for m in simples]
    assert [m.key() for m in enumerate_modules(cat, bound)] == [m.key() for m in classes]


CENSUS_CASES = ([(f"{n}({p})", 3 if p == 3 and n in ("a2", "a2cat") else 4)
                 for p in (2, 3) for n in CATALOG_NAMES]
                + [("a4", 4), ("kronecker3", 4), ("star", 3), ("kx3", 4)])


@pytest.mark.parametrize("name, bound", CENSUS_CASES)
def test_census_pairs_match_the_simple_submodule_reference(name, bound):
    # the crawl's pairs against the pairs read off every simple submodule S
    # of every class M, by the class lookups of S and M/S
    cat = quiver_or_catalog(name)
    census = ModuleCensus(cat, bound)
    _, classes = linear_crawl(cat, bound)
    assert [m.key() for m in census.classes] == [m.key() for m in classes]
    find = census.index.find
    reference = [{(find(submodule_module(s)[0]), find(quotient_module(m, s)[0])) for s in simple_submodules(m)}
                 for m in census.classes]
    assert census.sub_quot == reference
    assert census.classes[census.zero_index].total_dim() == 0


def test_iso_classes_keep_no_miss_across_an_add():
    # S1 + S2 and S2 + S1 have different keys and one class
    s1, s2 = simple_modules(catalog("a2cat(3)"))
    index = IsoClasses([s1])
    assert index.find(direct_sum(s2, s1)) is None
    assert index.add(direct_sum(s1, s2)) == 1
    assert index.find(direct_sum(s2, s1)) == 1


# Differential references for the census crawl: the scans as they were before
# they visited one vector per line of F_p^n.

def all_vector_cyclic_submodules(m):
    """`cyclic_submodules` scanning every nonzero vector of every M(a)."""
    out = []
    seen = set()
    for a in m.cat.objects:
        for v in itertools.product(range(m.p), repeat=m.dims[a]):
            if any(v):
                s = cyclic_submodule(m, a, v)
                if s.key() not in seen:
                    seen.add(s.key())
                    out.append((s, a, v))
    return out


def all_class_extensions(s, q):
    """`_extensions` with one candidate per class of Z^1/B^1, its
    coboundaries from the `Mat` products S(alpha) h_b - h_a Q(alpha)."""
    from ringoid.linalg import Subspace, matrix_kernel

    cat = s.cat
    p = cat.p
    shapes = {(a, b, i): (s.dims[a], q.dims[b]) for a, b, i in sorted(s.action)}
    equations = []
    for a in cat.objects:
        if cat.hom_dim[(a, a)]:
            equations.append([(cf, None, (a, a, i), None) for i, cf in enumerate(cat.id_coords[a]) if cf])
    for a in cat.objects:
        for b in cat.objects:
            for i in range(cat.hom_dim[(a, b)]):
                for c in cat.objects:
                    for j in range(cat.hom_dim[(b, c)]):
                        terms = [(cf, None, (a, c, k), None)
                                 for k, cf in enumerate(cat.compose_basis(a, b, c, i, j)) if cf]
                        terms.append((-1, s.action[(a, b, i)], (b, c, j), None))
                        terms.append((-1, None, (a, b, i), q.action[(b, c, j)]))
                        equations.append(terms)
    sol, pack, unpack = matrix_kernel(p, shapes, equations)
    cob_vecs = []
    zero_h = {o: Mat.zero(p, s.dims[o], q.dims[o]) for o in cat.objects}
    for o in cat.objects:
        for u in range(s.dims[o]):
            for v in range(q.dims[o]):
                unit = [[0] * q.dims[o] for _ in range(s.dims[o])]
                unit[u][v] = 1
                h = {**zero_h, o: Mat(p, s.dims[o], q.dims[o], unit)}
                cob_vecs.append(pack({key: s.action[key] @ h[key[1]] - h[key[0]] @ q.action[key]
                                      for key in shapes}))
    cob = Subspace.from_vectors(p, sol.ambient, cob_vecs)
    dims = {a: s.dims[a] + q.dims[a] for a in cat.objects}
    out = []
    for vec in sorted({cob.reduce(vec) for vec in sol.vectors()}):
        action = {
            (a, b, i): Mat.from_blocks(p, (s.dims[a], q.dims[a]), (s.dims[b], q.dims[b]),
                                       {(0, 0): s.action[(a, b, i)], (0, 1): blk, (1, 1): q.action[(a, b, i)]})
            for (a, b, i), blk in unpack(vec).items()
        }
        out.append(FinModule(cat, dims, action))
    return out


def element_fingerprint(m):
    """`FinModule.fingerprint` with one rank per element of each small hom
    space, each from its own matrix M(f)."""
    cat = m.cat
    ranks = []
    for a in cat.objects:
        for b in cat.objects:
            d = cat.hom_dim[(a, b)]
            if d == 0:
                continue
            if cat.p ** d <= 81:
                prof = tuple(m.act(f).rank() for f in cat.elements(a, b))
            else:
                prof = tuple(m.action[(a, b, i)].rank() for i in range(d))
            ranks.append(((a, b), prof))
    return (tuple(m.dims[a] for a in cat.objects), tuple(ranks))


def cached_element_fingerprint(m):
    """`element_fingerprint`, kept on the module like `FinModule.fingerprint`."""
    if "_element_fingerprint" not in m.__dict__:
        m._element_fingerprint = element_fingerprint(m)
    return m._element_fingerprint


def census_record(census):
    """What a census produces: its class keys in order, their fingerprints
    and the class pairs (S, M/S)."""
    return ([m.key() for m in census.classes], [m.fingerprint() for m in census.classes], census.sub_quot)


def reference_census(cat, bound, monkeypatch):
    """The census crawled with the all-vector, all-class and element-wise
    references in place of the line scans."""
    from ringoid import modules

    with monkeypatch.context() as patch:
        patch.setattr(modules, "cyclic_submodules", all_vector_cyclic_submodules)
        patch.setattr(modules, "_extensions", all_class_extensions)
        patch.setattr(FinModule, "fingerprint", cached_element_fingerprint)
        return census_record(ModuleCensus(cat, bound))


def walk_quiver(name, p):
    """The walk quiver of `QUIVERS` over F_p."""
    import re

    from ringoid.quiver import parse_quiver_dsl, path_category

    return path_category(parse_quiver_dsl(re.sub(r"field \d+", f"field {p}", QUIVERS[name])))


LINE_CASES = ([(f"{n}({p})", p, {2: 4, 3: 3 if n in ("a2", "a2cat") else 4, 5: 3}[p])
               for p in (2, 3, 5) for n in CATALOG_NAMES]
              + [(q, p, 3 if q in ("star", "kronecker3") and p == 3 else 4)
                 for p in (2, 3) for q in ("a4", "kronecker3", "star", "kx3")])


@pytest.mark.parametrize("name, p, bound", LINE_CASES)
def test_line_scans_give_the_census_of_the_all_vector_scans(name, p, bound, monkeypatch):
    def fresh():
        return catalog(name) if "(" in name else walk_quiver(name, p)

    reference = reference_census(fresh(), bound, monkeypatch)
    assert census_record(ModuleCensus(fresh(), bound)) == reference


def test_line_scans_match_the_all_vector_scans_on_each_module():
    for m in enumerate_modules(catalog("dual(3)"), 4):
        assert ([(s.key(), a, v) for s, a, v in cyclic_submodules(m)]
                == [(s.key(), a, v) for s, a, v in all_vector_cyclic_submodules(m)])
        assert m.fingerprint() == element_fingerprint(m)


def test_a_crawl_that_keeps_the_last_vector_of_each_line_fails_the_reference(monkeypatch):
    # the extension of the last vector of a line is isomorphic to that of
    # the first but has another key, so the census keeps other
    # representatives
    from ringoid import modules

    reference = reference_census(catalog("dual(3)"), 4, monkeypatch)
    # over F_3 the last vector of a line has first nonzero entry 2
    monkeypatch.setattr(modules, "is_line_first", lambda v: next((x for x in v if x), 2) == 2)
    mutant = census_record(ModuleCensus(catalog("dual(3)"), 4))
    assert mutant[0] != reference[0]


def counting_candidates(monkeypatch, extensions) -> list:
    """Patches `modules._extensions` with `extensions`, appending each
    call's candidate count to the returned list."""
    from ringoid import modules

    counts = []
    monkeypatch.setattr(modules, "_extensions", lambda s, q: counts.append(len(out := extensions(s, q))) or out)
    return counts


@pytest.mark.parametrize("name, p, bound, lines, classes", [
    ("dual(3)", 3, 4, 25, 44),
    ("a2(3)", 3, 3, 20, 26),
    ("a2cat(3)", 3, 3, 20, 26),
    # over F_2 every nonzero vector is the first of its line
    ("a4", 2, 4, 296, 296),
])
def test_extension_candidates_one_per_line_of_classes(name, p, bound, lines, classes, monkeypatch):
    cat = catalog(name) if "(" in name else walk_quiver(name, p)
    counts = counting_candidates(monkeypatch, _extensions)
    ModuleCensus(cat, bound)
    assert sum(counts) == lines
    counts = counting_candidates(monkeypatch, all_class_extensions)
    ModuleCensus(cat, bound)
    assert sum(counts) == classes


def test_census_p3_iso_tests(monkeypatch):
    # the six base censuses of a census-p3 round: 35 `is_iso` calls, where
    # one candidate per extension class made 66
    from ringoid import modules

    calls = []
    real = modules.is_iso
    monkeypatch.setattr(modules, "is_iso", lambda m, n: calls.append(1) or real(m, n))
    cases = [("pt", 4), ("dual", 4), ("prod", 4), ("mat2", 4), ("a2", 3), ("a2cat", 3)]
    for name, bound in cases:
        ModuleCensus(catalog(name, 3), bound)
    assert len(calls) == 35
    calls.clear()
    with monkeypatch.context() as patch:
        patch.setattr(modules, "_extensions", all_class_extensions)
        for name, bound in cases:
            ModuleCensus(catalog(name, 3), bound)
    assert len(calls) == 66


def census_or_quiver(name, bound):
    """The census of a catalog category or of a walk quiver over F_2."""
    from ringoid.modules import module_census

    return module_census(catalog(name) if "(" in name else walk_quiver(name, 2), bound)


@pytest.mark.parametrize("name, bound", [("a4", 4)] + [(f"{n}({p})", 3) for p in (2, 3) for n in CATALOG_NAMES])
def test_worklist_close_matches_the_fixed_point_loop(name, bound):
    # from every single class and from every class of the sweep joined with
    # each seed, the quotients of the representables within the bound
    from ringoid.torsion import hereditary_class_sweep

    census = census_or_quiver(name, bound)
    cat = census.classes[0].cat
    seeds = sorted({census.index.find(q) for _, _, q in representable_quotients(cat) if q.total_dim() <= bound})
    starts = [{i} for i in range(len(census.classes))]
    starts += [closed | {s} for closed in hereditary_class_sweep(cat, bound) for s in seeds]
    for start in starts:
        assert census.close(start) == reference_close(census, start), start


@pytest.mark.parametrize("name, bound", [("a4", 4)] + [(f"{n}({p})", 3) for p in (2, 3, 5) for n in CATALOG_NAMES])
def test_fingerprint_tables_match_the_element_loop(name, bound):
    for m in census_or_quiver(name, bound).classes:
        assert m.fingerprint() == reference_fingerprint(m)
