import itertools
import random

import pytest

from ringoid.category import CATALOG_NAMES, Morphism, catalog
from ringoid.ideals import enumerate_idempotent_ideals
from ringoid.modules import (
    IsoClasses,
    all_submodules,
    direct_sum,
    enumerate_modules,
    quotient_module,
    representable,
    representable_quotients,
    simple_modules,
    simple_submodules,
    submodule_module,
    zero_module,
    zero_submodule,
)
from ringoid.modules import full_submodule
from ringoid.torsion import (
    ModuleCensus,
    Topology,
    check_topology,
    composition_factors,
    enumerate_topologies,
    gabriel_roundtrip,
    has_fg_basis,
    hereditary_closure_oracle,
    pullback_submodule,
    topology_from_class,
    torsion_membership,
    yoneda_kernel,
)
from ringoid.ttf import ttf_from_ideal
from reference import full_topology, maximal_topology, torsion_radical


@pytest.mark.parametrize("name", ["pt(2)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)"])
def test_extreme_topologies_are_valid(name):
    cat = catalog(name)
    assert check_topology(cat, maximal_topology(cat)) == []
    assert check_topology(cat, full_topology(cat)) == []


def test_dual_missing_zero_violates_glueing():
    # over the dual numbers: {R, (x)} without 0 fails Glue
    cat = catalog("dual(2)")
    h = representable(cat, "x")
    subs = all_submodules(h)
    by_dim = {s.total_dim(): s for s in subs}
    topo = Topology(cat, {"x": [by_dim[2], by_dim[1]]})
    report = check_topology(cat, topo)
    assert any(v["axiom"] == "glueing" for v in report)


def test_pullback_axiom_violation_detected():
    # zero covering at the arrow target without one at the source: pulling
    # the zero submodule back along the arrow escapes the family
    cat = catalog("a2cat(2)")
    h1, h2 = representable(cat, "1"), representable(cat, "2")
    topo = Topology(
        cat,
        {"1": [full_submodule(h1)], "2": all_submodules(h2)},
    )
    report = check_topology(cat, topo)
    assert any(v["axiom"] == "pullback" for v in report)


def test_identity_axiom_violation_detected():
    cat = catalog("pt(2)")
    h = representable(cat, "x")
    topo = Topology(cat, {"x": [zero_submodule(h)]})
    report = check_topology(cat, topo)
    assert any(v["axiom"] == "identity" for v in report)


def test_pullback_along_zero_is_full():
    cat = catalog("a2cat(2)")
    h2 = representable(cat, "2")
    zero_sub = all_submodules(h2)[0]
    pb = pullback_submodule(cat, cat.zero("1", "2"), zero_sub)
    assert pb.is_full()


def test_pullback_of_alpha_span_along_alpha_is_full():
    cat = catalog("a2cat(2)")
    h2 = representable(cat, "2")
    mid = [s for s in all_submodules(h2) if s.total_dim() == 1][0]
    pb = pullback_submodule(cat, Morphism("1", "2", (1,)), mid)
    assert pb.is_full()


def test_zero_module_is_always_torsion():
    for name in ["pt(2)", "dual(2)", "a2cat(2)"]:
        cat = catalog(name)
        for topo in enumerate_topologies(cat):
            assert torsion_membership(topo, zero_module(cat))


def test_maximal_topology_torsion_is_only_zero():
    cat = catalog("pt(2)")
    topo = maximal_topology(cat)
    for m in enumerate_modules(cat, 3):
        assert torsion_membership(topo, m) == (m.total_dim() == 0)


def test_full_topology_makes_everything_torsion():
    cat = catalog("dual(2)")
    topo = full_topology(cat)
    for m in enumerate_modules(cat, 3):
        assert torsion_membership(topo, m)


def test_radical_extremes():
    cat = catalog("dual(2)")
    h = representable(cat, "x")
    assert torsion_radical(full_topology(cat), h).is_full()
    assert torsion_radical(maximal_topology(cat), h).is_zero()


def test_radical_is_idempotent_and_coradical_is_clean():
    cat = catalog("a2cat(2)")
    for topo in enumerate_topologies(cat):
        for m in enumerate_modules(cat, 3):
            t = torsion_radical(topo, m)
            t_mod, _ = submodule_module(t)
            assert torsion_membership(topo, t_mod)
            assert torsion_radical(topo, t_mod).is_full()
            q, _ = quotient_module(m, t)
            assert torsion_radical(topo, q).is_zero()


def test_radical_is_largest():
    cat = catalog("dual(2)")
    for topo in enumerate_topologies(cat):
        for m in enumerate_modules(cat, 3):
            t = torsion_radical(topo, m)
            for sub in all_submodules(m):
                if sub.contains(t) and sub.total_dim() > t.total_dim():
                    sub_mod, _ = submodule_module(sub)
                    assert not torsion_membership(topo, sub_mod)


def test_topology_from_trivial_oracles():
    cat = catalog("pt(3)")
    assert topology_from_class(cat, lambda m: m.total_dim() == 0) == maximal_topology(cat)
    assert topology_from_class(cat, lambda m: True) == full_topology(cat)


def test_closure_of_simple_over_dual_gives_full_topology():
    cat = catalog("dual(2)")
    h = representable(cat, "x")
    rad = [s for s in all_submodules(h) if s.total_dim() == 1][0]
    simple, _ = quotient_module(h, rad)
    oracle = hereditary_closure_oracle(cat, [simple], 4)
    assert topology_from_class(cat, oracle) == full_topology(cat)


@pytest.mark.parametrize(
    "name,count",
    [("pt(2)", 2), ("pt(3)", 2), ("dual(2)", 2), ("a2cat(2)", 4), ("prod(2)", 4), ("mat2(2)", 2)],
)
def test_topology_counts(name, count):
    assert len(enumerate_topologies(catalog(name))) == count


def test_dual_topologies_are_the_expected_two():
    cat = catalog("dual(2)")
    topos = enumerate_topologies(cat)
    sizes = sorted(t.size() for t in topos)
    assert sizes == [1, 3]  # {R} and {R, (x), 0}


@pytest.mark.parametrize("name", ["pt(2)", "pt(3)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)"])
def test_gabriel_roundtrip_exhaustive(name):
    for topo in enumerate_topologies(catalog(name)):
        assert gabriel_roundtrip(topo)


def test_valid_topologies_are_upclosed_and_meet_closed():
    for name in ["dual(2)", "a2cat(2)", "prod(2)"]:
        cat = catalog(name)
        for topo in enumerate_topologies(cat):
            for a in cat.objects:
                subs = all_submodules(representable(cat, a))
                fam = topo.families[a]
                for s in fam:
                    for t in subs:
                        if t.contains(s):
                            assert topo.covers(a, t)
                for s in fam:
                    for t in fam:
                        assert topo.covers(a, s.intersect(t))


def test_membership_respects_torsion_class_laws():
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 4)
    for topo in enumerate_topologies(cat):
        member = {m.key(): torsion_membership(topo, m) for m in census}
        for m in census:
            if not member[m.key()]:
                continue
            for sub in all_submodules(m):
                sub_mod, _ = submodule_module(sub)
                q, _ = quotient_module(m, sub)
                assert torsion_membership(topo, sub_mod)
                assert torsion_membership(topo, q)
        for m in census:
            for n in census:
                if member[m.key()] and member[n.key()] and m.total_dim() + n.total_dim() <= 4:
                    assert torsion_membership(topo, direct_sum(m, n))
        # extension closure on the census
        for m in census:
            if member[m.key()]:
                continue
            for sub in all_submodules(m):
                sub_mod, _ = submodule_module(sub)
                q, _ = quotient_module(m, sub)
                assert not (
                    torsion_membership(topo, sub_mod) and torsion_membership(topo, q)
                ), "extension of torsion by torsion escaped the class"


def test_closure_oracle_trivial_seeds():
    cat = catalog("a2cat(2)")
    oracle = hereditary_closure_oracle(cat, [], 3)
    for m in enumerate_modules(cat, 3):
        assert oracle(m) == (m.total_dim() == 0)
    seeds = [representable(cat, a) for a in cat.objects]
    oracle = hereditary_closure_oracle(cat, seeds, 3)
    for m in enumerate_modules(cat, 3):
        assert oracle(m)


def test_closure_of_s2_excludes_s1():
    cat = catalog("a2cat(2)")
    s1, s2 = None, None
    for s in simple_modules(cat):
        if s.dims["1"] == 1:
            s1 = s
        if s.dims["2"] == 1:
            s2 = s
    oracle = hereditary_closure_oracle(cat, [s2], 4)
    assert oracle(s2)
    assert oracle(direct_sum(s2, s2))
    assert not oracle(s1)


def test_closure_oracle_matches_topology_membership():
    # seeded with all covering quotients, the bounded closure reproduces the
    # torsion membership on the census
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 4)
    for topo in enumerate_topologies(cat):
        seeds = []
        for a in cat.objects:
            h = representable(cat, a)
            for sub in topo.families[a]:
                q, _ = quotient_module(h, sub)
                seeds.append(q)
        oracle = hereditary_closure_oracle(cat, seeds, 4)
        for m in census:
            assert oracle(m) == torsion_membership(topo, m)


def all_element_membership(topo, m):
    """`torsion_membership` testing every element of every M(a), each
    nonzero multiple of a line included."""
    cat = topo.cat
    return all(topo.covers(a, yoneda_kernel(cat, m, a, v))
               for a in cat.objects for v in itertools.product(range(cat.p), repeat=m.dims[a]))


@pytest.mark.parametrize("name", [f"{n}({p})" for p in (3, 5) for n in CATALOG_NAMES])
def test_membership_by_lines_matches_the_all_element_test(name):
    cat = catalog(name)
    census = enumerate_modules(cat, 3)
    for topo in enumerate_topologies(cat):
        assert [torsion_membership(topo, m) for m in census] == [all_element_membership(topo, m) for m in census]


def test_census_equality_counts():
    for name, expected in [("pt(2)", 2), ("dual(2)", 2), ("a2cat(2)", 4)]:
        cat = catalog(name)
        fps = set()
        topos = enumerate_topologies(cat)
        for topo in topos:
            seeds = []
            for a in cat.objects:
                h = representable(cat, a)
                for sub in topo.families[a]:
                    q, _ = quotient_module(h, sub)
                    seeds.append(q)
            fps.add(hereditary_closure_oracle(cat, seeds, 4).census_fingerprint)
        assert len(fps) == len(topos) == expected


@pytest.mark.parametrize(
    "name",
    ["pt(2)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)", "pt(3)", "dual(3)", "a2cat(3)"],
)
def test_hereditary_class_sweep_matches_topologies(name):
    # an oracle fully independent of the axiom checker: closures of every
    # subset of the quotient seeds yield exactly one fingerprint per topology
    from ringoid.torsion import hereditary_class_sweep

    cat = catalog(name)
    sweep = hereditary_class_sweep(cat, 4)
    assert len(sweep) == len(enumerate_topologies(cat))


KRONECKER_DSL = """
vertices 1 2 ;
arrow a: 1 -> 2 ;
arrow b: 1 -> 2 ;
field 2 ;
maxlen 1 ;
"""


def subset_sweep(cat, bound):
    """The closure of every subset of the quotient seeds, one oracle each."""
    seeds = []
    for a in cat.objects:
        h = representable(cat, a)
        for sub in all_submodules(h):
            seeds.append(quotient_module(h, sub)[0])
    fps = set()
    for size in range(len(seeds) + 1):
        for subset in itertools.combinations(seeds, size):
            fps.add(hereditary_closure_oracle(cat, list(subset), bound).census_fingerprint)
    return sorted(fps, key=sorted)


@pytest.mark.parametrize(
    "name",
    [f"{n}({p})" for p in (2, 3) for n in ("pt", "dual", "prod", "a2", "mat2", "a2cat")]
    + ["kronecker"],
)
def test_class_sweep_joins_match_subset_closures(name):
    # the join worklist reaches exactly the closures of all seed subsets
    from ringoid.torsion import hereditary_class_sweep

    cat = catalog_or_quiver(name)
    assert hereditary_class_sweep(cat, 4) == subset_sweep(cat, 4)


# the A4 quiver of the torsion-quivers benchmark workload
A4_DSL = """
vertices 1 2 3 4 ;
arrow a: 1 -> 2 ;
arrow b: 2 -> 3 ;
arrow c: 3 -> 4 ;
relation a*b ;
relation b*c ;
field 2 ;
maxlen 3 ;
"""


STAR_DSL = """
vertices 1 2 3 4 ;
arrow a: 1 -> 4 ;
arrow b: 2 -> 4 ;
arrow c: 3 -> 4 ;
field 2 ;
maxlen 1 ;
"""


def catalog_or_quiver(name):
    from ringoid.quiver import parse_quiver_dsl, path_category

    dsl = {"a4": A4_DSL, "kronecker": KRONECKER_DSL, "star": STAR_DSL}.get(name)
    return path_category(parse_quiver_dsl(dsl)) if dsl else catalog(name)


def reference_close(census, bound):
    """The closure from the pairs of every submodule and the table of bounded
    pairwise direct sums, by a three-pass fixpoint: a reference for
    `ModuleCensus.close`, which reads only the simple-submodule pairs."""
    classes = census.classes
    sub_quot = [
        [(census.index.find(submodule_module(sub)[0]), census.index.find(quotient_module(m, sub)[0]))
         for sub in all_submodules(m)]
        for m in classes
    ]
    sums = {
        (i, j): census.index.find(direct_sum(m, n))
        for i, m in enumerate(classes)
        for j, n in enumerate(classes)
        if j >= i and m.total_dim() + n.total_dim() <= bound
    }

    def close(member):
        member = set(member)
        changed = True
        while changed:
            changed = False
            for i in list(member):
                for pair in sub_quot[i]:
                    for j in pair:
                        if j not in member:
                            member.add(j)
                            changed = True
            for i in list(member):
                for j in list(member):
                    k = sums.get((min(i, j), max(i, j)))
                    if k is not None and k not in member:
                        member.add(k)
                        changed = True
            for i in range(len(classes)):
                if i not in member and any(a in member and b in member for a, b in sub_quot[i]):
                    member.add(i)
                    changed = True
        return frozenset(member)

    return close


@pytest.mark.parametrize(
    "name, bound",
    [(f"{n}({p})", 3) for p in (2, 3) for n in ("pt", "dual", "prod", "a2", "mat2", "a2cat")]
    + [("a4", 4), ("kronecker", 4)],
)
def test_census_close_matches_all_pairs_and_sums_reference(name, bound):
    cat = catalog_or_quiver(name)
    census = ModuleCensus(cat, bound)
    n = len(census.classes)
    for m in census.classes:
        nonzero = [s for s in all_submodules(m) if not s.is_zero()]
        minimal = [s for s in nonzero if not any(t.key() != s.key() and s.contains(t) for t in nonzero)]
        assert sorted(s.key() for s in simple_submodules(m)) == sorted(s.key() for s in minimal)
    reference = reference_close(census, bound)
    rng = random.Random(0)
    seed_sets = [set(), {census.zero_index}] + [{i} for i in range(n)]
    seed_sets += [set(rng.sample(range(n), rng.randint(1, min(n, 4)))) for _ in range(60)]
    for seeds in seed_sets:
        assert census.close(seeds) == reference(seeds), seeds


def test_census_reads_its_pairs_from_the_crawl(monkeypatch):
    # one census build on A4 at bound 4 builds no submodule: the crawl
    # records the pairs, where reading them off every simple submodule took
    # 537 submodule modules, 121 simple-submodule scans and 69 iso tests
    from ringoid import modules, torsion
    from ringoid.quiver import parse_quiver_dsl, path_category

    counts = {"submodule_module": 0, "simple_submodules": 0, "direct_sum": 0, "is_iso": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        wrapper = counting(name, getattr(modules, name))
        monkeypatch.setattr(modules, name, wrapper)
        monkeypatch.setattr(torsion, name, wrapper, raising=False)
    census = ModuleCensus(path_category(parse_quiver_dsl(A4_DSL)), 4)
    assert len(census.classes) == 121
    assert counts["submodule_module"] == 0
    assert counts["simple_submodules"] == 0
    assert counts["direct_sum"] == 0
    assert counts["is_iso"] <= 60


@pytest.mark.parametrize("name", ["a2cat(3)", "a4", "kronecker"])
def test_representable_quotients_list_every_quotient_once(name):
    cat = catalog_or_quiver(name)
    quotients = representable_quotients(cat)
    assert representable_quotients(cat) is quotients
    expected = [(a, s.key()) for a in cat.objects for s in all_submodules(representable(cat, a))]
    assert [(a, sub.key()) for a, sub, _ in quotients] == expected
    for a, sub, q in quotients:
        h = representable(cat, a)
        assert q.key() == quotient_module(h, sub)[0].key()


def test_enumerate_topologies_factors_each_representable_quotient_once(monkeypatch):
    # A4 has 11 quotients H_a/R; the composition factors of each are found
    # once, not once per set of simples (176 calls when they were), and each
    # H_a lattice is walked once, for the quotients that the simples are
    # also read from (8 walks when simple_modules walked them again)
    from ringoid import modules, torsion

    cat = catalog_or_quiver("a4")
    counts = {"composition_factors": 0, "all_submodules": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(torsion, "composition_factors", counting("composition_factors", torsion.composition_factors))
    # torsion.py reads the lattice through modules.py alone
    assert not hasattr(torsion, "all_submodules")
    monkeypatch.setattr(modules, "all_submodules", counting("all_submodules", modules.all_submodules))
    topos = torsion.enumerate_topologies(cat)
    assert len(topos) == 16
    assert len(representable_quotients(cat)) == 11
    assert counts == {"composition_factors": 11, "all_submodules": len(cat.objects)}


def upclosed_intersection_closed_families(subs):
    """All families of submodules containing the full one, closed upward and
    under pairwise intersection: the raw candidates for the axiom filter."""
    full = max(subs, key=lambda s: s.total_dim())
    rest = [s for s in subs if s.key() != full.key()]
    out = []
    for picks in itertools.product([False, True], repeat=len(rest)):
        fam = [full] + [s for s, take in zip(rest, picks) if take]
        keys = {s.key() for s in fam}
        if any(t.key() not in keys and t.contains(s) for s in fam for t in rest):
            continue
        if all(s.intersect(t).key() in keys for s in fam for t in fam):
            out.append(fam)
    return out


def filtered_topologies(cat):
    """Every topology by brute force: the product over objects of the
    candidate families, filtered through the axioms, in enumeration order."""
    candidates = [upclosed_intersection_closed_families(all_submodules(representable(cat, a)))
                  for a in cat.objects]
    out = []
    for combo in itertools.product(*candidates):
        topo = Topology(cat, dict(zip(cat.objects, combo)))
        if not check_topology(cat, topo):
            out.append(topo)
    return sorted(out, key=lambda t: (t.size(), t.key()))


CATALOG_P2_P3 = [f"{n}({p})" for p in (2, 3) for n in CATALOG_NAMES]


@pytest.mark.parametrize("name", CATALOG_P2_P3 + ["a4", "kronecker", "star"])
def test_topologies_from_simples_match_the_candidate_family_filter(name):
    cat = catalog_or_quiver(name)
    expected = [t.key() for t in filtered_topologies(cat)]
    assert [t.key() for t in enumerate_topologies(cat)] == expected


@pytest.mark.parametrize("name", CATALOG_P2_P3 + ["a4", "kronecker"])
def test_composition_factors_match_the_closure_oracle(name):
    # M lies in the Serre class generated by the simples in S exactly when
    # every composition factor of M is in S
    cat = catalog_or_quiver(name)
    simples = simple_modules(cat)
    index = IsoClasses(simples)
    census = enumerate_modules(cat, 3)
    for picks in itertools.product([False, True], repeat=len(simples)):
        chosen = frozenset(i for i, take in enumerate(picks) if take)
        oracle = hereditary_closure_oracle(cat, [simples[i] for i in sorted(chosen)], 3)
        for m in census:
            assert (composition_factors(m, index) <= chosen) == oracle(m)


def test_membership_fingerprints_pairwise_distinct():
    for name in ["dual(2)", "a2cat(2)", "prod(2)"]:
        cat = catalog(name)
        census = enumerate_modules(cat, 4)
        fps = []
        for topo in enumerate_topologies(cat):
            fps.append(tuple(torsion_membership(topo, m) for m in census))
        assert len(set(fps)) == len(fps)


@pytest.mark.parametrize("name", ["pt(2)", "dual(2)", "a2cat(2)"])
def test_fg_basis_always_true_here(name):
    for topo in enumerate_topologies(catalog(name)):
        assert has_fg_basis(topo)


def test_ideal_oracle_membership():
    cat = catalog("a2cat(2)")
    for ideal in enumerate_idempotent_ideals(cat):
        topo = topology_from_class(cat, ttf_from_ideal(cat, ideal).in_torsion)
        assert check_topology(cat, topo) == []


def test_enumeration_deterministic():
    cat = catalog("a2cat(2)")
    a = [t.key() for t in enumerate_topologies(cat)]
    b = [t.key() for t in enumerate_topologies(cat)]
    assert a == b


def test_membership_is_iso_invariant_on_sampled_pairs():
    # swap the summands of a direct sum: an isomorphic presentation must get
    # the same verdict from every membership predicate
    cat = catalog("a2cat(2)")
    census = enumerate_modules(cat, 2)
    for topo in enumerate_topologies(cat):
        for m in census:
            for n in census:
                a = direct_sum(m, n)
                b = direct_sum(n, m)
                assert torsion_membership(topo, a) == torsion_membership(topo, b)


def test_collapsed_category_has_one_topology():
    # quotient by the unit ideal: all hom spaces vanish, the only module is 0
    from ringoid.ideals import quotient_category, unit_ideal

    cat = catalog("dual(2)")
    q = quotient_category(cat, unit_ideal(cat)).cat
    topos = enumerate_topologies(q)
    assert len(topos) == 1
    assert gabriel_roundtrip(topos[0])
    assert [m.key() for m in enumerate_modules(q, 3)] == [
        m.key() for m in enumerate_modules(q, 0)
    ]


def test_closure_oracle_refuses_modules_beyond_its_bound():
    cat = catalog("pt(2)")
    h = representable(cat, "x")
    oracle = hereditary_closure_oracle(cat, [h], 2)
    assert oracle(direct_sum(h, h))
    with pytest.raises(ValueError, match="only total up to dimension 2"):
        oracle(direct_sum(h, direct_sum(h, h)))


def test_membership_caches_kernels_not_verdicts():
    # J is the largest topology of A4, in which every submodule covers; J
    # less the zero submodule of H_1 is no topology.  Its verdicts are its
    # own even after J's roundtrip has built every kernel
    cat = catalog_or_quiver("a4")
    big = enumerate_topologies(cat)[-1]
    assert gabriel_roundtrip(big)
    a, zero, q = next((a, r, q) for a, r, q in representable_quotients(cat) if r.is_zero())
    less = Topology(cat, {b: [s for s in big.families[b] if (b, s.key()) != (a, zero.key())] for b in cat.objects})
    assert less.size() == big.size() - 1
    assert not gabriel_roundtrip(less)
    assert torsion_membership(big, q)
    assert not torsion_membership(less, q)
