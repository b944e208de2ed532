"""Acceptance suite: the classification bijections verified end to end.

Each criterion prints one line; run with `pytest -s tests/test_acceptance.py`
to see them.  All checks are exact (no numeric tolerances anywhere), at desk
scale: p in {2, 3}, module census dimension <= 4, tuple bound <= 3.
"""

import itertools
import time

from ringoid.category import catalog, list_idempotents, validate
from ringoid.center import center_idempotents, compute_center
from ringoid.completion import (
    additive_closure,
    idempotent_completion,
    induce_module,
    proj_module_of_idempotent,
)
from ringoid.ideals import (
    enumerate_ideals,
    enumerate_idempotent_ideals,
    generated_by,
    is_idempotent,
    is_trace_of_projectives,
    zero_ideal,
)
from ringoid.linalg import Mat, Subspace, image_basis, kernel_basis, subspace_intersect, subspace_sum
from ringoid.modules import (
    enumerate_modules,
    hom_space,
    is_iso,
    representable,
)
from ringoid.torsion import (
    enumerate_topologies,
    gabriel_roundtrip,
    hereditary_closure_oracle,
    topology_seeds,
)
from ringoid.ttf import is_split, jans_roundtrip, recollement_data, recollement_shadows, ttf_from_ideal
from reference import restrict_module, trace_ideal, validate_module

CATALOG_P2 = ["pt(2)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)", "a2(2)"]

JANS_EXPECTED = {"pt(2)": 2, "dual(2)": 2, "a2cat(2)": 4, "prod(2)": 4, "mat2(2)": 2}
SPLIT_EXPECTED = {"prod(2)": 4, "a2cat(2)": 2, "dual(2)": 2}
TOPOLOGY_EXPECTED = {"pt(2)": 2, "dual(2)": 2}
CENTER_EXPECTED = {"pt(2)": 1, "pt(3)": 1, "prod(2)": 2, "mat2(2)": 1}


def report(criterion, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {criterion}: {status} ({elapsed:.1f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget, f"{criterion} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_1_jans_exact_roundtrip():
    t0 = time.time()
    ok = True
    for name, expected in JANS_EXPECTED.items():
        rep = jans_roundtrip(catalog(name), census_bound=4)
        ok = ok and rep["pass"] and rep["idempotent_ideals"] == expected
    report("1 (idempotent ideals <-> TTF triples)", ok, time.time() - t0, 10)


def test_criterion_2_gabriel_roundtrip_and_census():
    from ringoid.torsion import hereditary_class_sweep

    t0 = time.time()
    ok = True
    for name in ["pt(2)", "pt(3)", "dual(2)", "a2cat(2)"]:
        cat = catalog(name)
        topos = enumerate_topologies(cat)
        if name in TOPOLOGY_EXPECTED:
            ok = ok and len(topos) == TOPOLOGY_EXPECTED[name]
        ok = ok and all(gabriel_roundtrip(t) for t in topos)
        fingerprints = set()
        for topo in topos:
            oracle = hereditary_closure_oracle(cat, topology_seeds(topo), 4)
            fingerprints.add(oracle.census_fingerprint)
        ok = ok and len(fingerprints) == len(topos)
        # second, axiom-free oracle: sweep the closures of every seed subset
        ok = ok and len(hereditary_class_sweep(cat, 4)) == len(topos)
    report("2 (topologies <-> hereditary torsion classes)", ok, time.time() - t0, 60)


def test_criterion_3_trace_idempotency():
    t0 = time.time()
    ok = True
    for name in CATALOG_P2:
        cat = catalog(name)
        closure = additive_closure(cat, 1)
        idems = list_idempotents(cat)
        singles = {}
        for eps in idems:
            p_mod, _ = proj_module_of_idempotent(closure, closure.embed_morphism(eps))
            tr = trace_ideal(cat, [p_mod])
            ok = ok and tr == generated_by(cat, [eps])
            singles[eps] = tr
        # the trace of a family is by definition the sum of the single traces
        for size in range(len(idems) + 1):
            for subset in itertools.combinations(idems, size):
                total = zero_ideal(cat)
                for eps in subset:
                    total = total.sum(singles[eps])
                ok = ok and is_idempotent(total)
    report("3 (traces of projectives are idempotent)", ok, time.time() - t0, 10)


def test_criterion_4_split_ttf_three_way():
    t0 = time.time()
    ok = True
    for name in CATALOG_P2:
        cat = catalog(name)
        split_count = 0
        for ideal in enumerate_idempotent_ideals(cat):
            rep = is_split(cat, ttf_from_ideal(cat, ideal))
            ok = ok and rep["agree"]
            if rep["split"]:
                ok = ok and rep.get("class_formulas", False)
                split_count += 1
        n_central = len(center_idempotents(compute_center(cat)))
        ok = ok and split_count == n_central
        if name in SPLIT_EXPECTED:
            ok = ok and split_count == SPLIT_EXPECTED[name]
    report("4 (central idempotents <-> split TTFs)", ok, time.time() - t0, 10)


def test_criterion_5_recollement_shadows():
    t0 = time.time()
    ok = True
    for name in ["a2cat(2)", "prod(2)"]:
        cat = catalog(name)
        for ideal in enumerate_idempotent_ideals(cat):
            if is_trace_of_projectives(cat, ideal, bound=2) is None:
                continue
            data = recollement_data(cat, ideal, bound=2)
            rep = recollement_shadows(data, census_bound=4)
            ok = ok and rep["pass"]
    report("5 (recollement data for traced ideals)", ok, time.time() - t0, 60)


def test_criterion_6_completion_fidelity():
    t0 = time.time()
    cat = catalog("a2cat(2)")
    closure = additive_closure(cat, 2)
    census = enumerate_modules(cat, 4)
    induced = [induce_module(closure, m) for m in census]
    ok = all(restrict_module(closure, n).key() == m.key() for m, n in zip(census, induced))
    for i, m in enumerate(census):
        for j, n in enumerate(census):
            if len(hom_space(m, n)) != len(hom_space(induced[i], induced[j])):
                ok = False
    # every module over the closure (of total dimension up to the induced
    # image of the restricted census) is hit by induction
    hat_census = enumerate_modules(closure.cat, 10)
    for n in hat_census:
        if not is_iso(n, induce_module(closure, restrict_module(closure, n))):
            ok = False
    ok = ok and len(hat_census) == 7
    report("6 (module categories agree across the closure)", ok, time.time() - t0, 60)


def test_criterion_7_center_invariance():
    t0 = time.time()
    ok = True
    for name in CATALOG_P2 + ["pt(3)"]:
        cat = catalog(name)
        d = compute_center(cat).dim
        ok = ok and compute_center(additive_closure(cat, 2).cat).dim == d
        ok = ok and compute_center(idempotent_completion(cat, 1).cat).dim == d
        if name in CENTER_EXPECTED:
            ok = ok and d == CENTER_EXPECTED[name]
    report("7 (center dimension is completion invariant)", ok, time.time() - t0, 10)


def test_criterion_8_engine_soundness():
    t0 = time.time()
    ok = True
    # rank-nullity over a deterministic matrix sample
    for p in (2, 3):
        for rows in range(4):
            for cols in range(4):
                for seed in range(3):
                    entries = [
                        [(seed + 1) * (r + 2 * c + seed) % p for c in range(cols)]
                        for r in range(rows)
                    ]
                    m = Mat(p, rows, cols, entries)
                    ok = ok and kernel_basis(m).dim + image_basis(m).dim == cols
    # modular law on a deterministic subspace sample
    vecs = list(itertools.product(range(2), repeat=3))
    for i in range(0, len(vecs), 3):
        u = Subspace.from_vectors(2, 3, vecs[i: i + 1])
        v = Subspace.from_vectors(2, 3, vecs[i + 1: i + 2])
        w = subspace_sum(u, Subspace.from_vectors(2, 3, vecs[i + 2: i + 3]))
        lhs = subspace_sum(u, subspace_intersect(v, w))
        rhs = subspace_intersect(subspace_sum(u, v), w)
        ok = ok and lhs == rhs
    for name in CATALOG_P2:
        cat = catalog(name)
        ok = ok and validate(cat) == []
        census = enumerate_modules(cat, 4)
        for m in census:
            ok = ok and validate_module(m) == []
        # Yoneda dimension identity on the whole census
        for a in cat.objects:
            h = representable(cat, a)
            for m in census:
                ok = ok and len(hom_space(h, m)) == m.dims[a]
        # constructed categories validate
        ok = ok and validate(additive_closure(cat, 2).cat) == []
        # determinism across two runs; the category's memo would hand the
        # first list back, so the second run enumerates on a fresh copy
        first = [m.key() for m in census]
        second = [m.key() for m in enumerate_modules(catalog(name), 4)]
        ok = ok and first == second
        ideals1 = [i.key() for i in enumerate_ideals(cat)]
        ideals2 = [i.key() for i in enumerate_ideals(cat)]
        ok = ok and ideals1 == ideals2
        topo1 = [t.key() for t in enumerate_topologies(cat)]
        topo2 = [t.key() for t in enumerate_topologies(cat)]
        ok = ok and topo1 == topo2
    report("8 (engine soundness and determinism)", ok, time.time() - t0, 60)
