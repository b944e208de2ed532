import itertools

import pytest

from ringoid import center, cli
from ringoid.category import CATALOG_NAMES, catalog
from ringoid.center import (
    center_idempotents,
    compute_center,
    ideal_of_idempotent,
    summand_bijection_check,
)
from ringoid.completion import additive_closure, idempotent_completion
from ringoid.ideals import is_idempotent, product, unit_ideal, zero_ideal
from ringoid.modules import enumerate_modules, module_times_ideal
from reference import is_natural, multiply

CATALOG = ["pt(2)", "dual(2)", "a2cat(2)", "prod(2)", "mat2(2)", "a2(2)"]

EXPECTED_DIM = {
    "pt(2)": 1,
    "dual(2)": 2,
    "a2cat(2)": 1,
    "prod(2)": 2,
    "mat2(2)": 1,
    "a2(2)": 1,
}


@pytest.mark.parametrize("name", CATALOG)
def test_center_dimension(name):
    assert compute_center(catalog(name)).dim == EXPECTED_DIM[name]


@pytest.mark.parametrize("name", CATALOG)
def test_center_is_commutative_unital(name):
    z = compute_center(catalog(name))
    for b in z.basis:
        assert is_natural(b)
    for x in itertools.product(range(z.cat.p), repeat=z.dim):
        assert multiply(z, z.unit, x) == tuple(x)
        assert multiply(z, x, z.unit) == tuple(x)
        for y in itertools.product(range(z.cat.p), repeat=z.dim):
            assert multiply(z, x, y) == multiply(z, y, x)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_packed_center_idempotents_match_multiply(name, p):
    # reference: square every coordinate vector with reference.multiply
    for cat in (catalog(name, p), additive_closure(catalog(name, p), 2).cat):
        z = compute_center(cat)
        want = [x for x in itertools.product(range(p), repeat=z.dim) if multiply(z, x, x) == x]
        got = center_idempotents(z)
        assert [coords for coords, _ in got] == want
        assert all(eps == z.element(coords) for coords, eps in got)


def test_center_idempotent_counts():
    assert len(center_idempotents(compute_center(catalog("pt(3)")))) == 2
    assert len(center_idempotents(compute_center(catalog("prod(2)")))) == 4
    assert len(center_idempotents(compute_center(catalog("dual(2)")))) == 2


def test_center_with_idempotents_and_summands_scans_the_idempotents_once(monkeypatch, capsys):
    # the coordinates of the report and the table of central idempotent
    # ideals read one scan
    calls = []
    real = center.packed_idempotents
    monkeypatch.setattr(center, "packed_idempotents", lambda p, mult: calls.append(p) or real(p, mult))
    assert cli.main(["center", "catalog:prod", "--p", "2", "--idempotents", "--summands", "--json"]) == 0
    capsys.readouterr()
    assert calls == [2]


@pytest.mark.parametrize("name", CATALOG)
def test_center_invariant_under_completions(name):
    cat = catalog(name)
    d = compute_center(cat).dim
    assert compute_center(additive_closure(cat, 2).cat).dim == d
    assert compute_center(idempotent_completion(cat, 1).cat).dim == d


def test_ideal_of_unit_idempotent():
    cat = catalog("a2cat(2)")
    z = compute_center(cat)
    one = z.element(z.unit)
    i, comp = ideal_of_idempotent(cat, one)
    assert i == unit_ideal(cat)
    assert comp == zero_ideal(cat)


def test_ideal_of_zero_idempotent():
    cat = catalog("dual(2)")
    z = compute_center(cat)
    zero = z.element((0,) * z.dim)
    i, comp = ideal_of_idempotent(cat, zero)
    assert i == zero_ideal(cat)
    assert comp == unit_ideal(cat)


def test_prod_nontrivial_idempotent_splits_in_half():
    cat = catalog("prod(2)")
    z = compute_center(cat)
    nontrivial = [
        (c, e) for c, e in center_idempotents(z)
        if not all(x == 0 for x in c) and c != z.unit
    ]
    assert len(nontrivial) == 2
    for _, eps in nontrivial:
        i, comp = ideal_of_idempotent(cat, eps)
        assert i.total_dim() == 1 and comp.total_dim() == 1
        assert is_idempotent(i) and is_idempotent(comp)
        assert product(i, comp) == zero_ideal(cat)
        assert product(comp, i) == zero_ideal(cat)
        for pair in i.spaces:
            assert i.spaces[pair].dim + comp.spaces[pair].dim == cat.hom_dim[pair]


@pytest.mark.parametrize(
    "name,count",
    [("pt(2)", 2), ("prod(2)", 4), ("a2cat(2)", 2), ("dual(2)", 2), ("mat2(2)", 2)],
)
def test_summand_bijection(name, count):
    rep = summand_bijection_check(catalog(name))
    assert rep["pass"], rep
    assert rep["summands"] == count == rep["central_idempotents"]


def test_injectivity_of_idempotent_to_ideal():
    for name in CATALOG:
        cat = catalog(name)
        z = compute_center(cat)
        seen = set()
        for _, eps in center_idempotents(z):
            i, _ = ideal_of_idempotent(cat, eps)
            assert i.key() not in seen
            seen.add(i.key())


def module_idempotent_action(m, cat, eps, i_eps, i_comp):
    """How a central idempotent acts on a module, cross-checked against the
    ideal action: full action means every component is an isomorphism, zero
    action means every component vanishes."""
    mats = {a: m.act(eps.components[a]) for a in cat.objects}
    all_iso = all(mat.rank() == m.dims[a] for a, mat in mats.items())
    all_zero = all(mat.is_zero() for mat in mats.values())
    mi = module_times_ideal(m, i_eps)
    mi_comp = module_times_ideal(m, i_comp)
    report = {
        "acts_invertibly": all_iso,
        "acts_by_zero": all_zero,
        "module_times_ideal_full": mi.is_full(),
        "module_times_ideal_zero": mi.is_zero(),
        "consistent": (all_iso == mi.is_full()) and (all_zero == mi.is_zero()),
        "direct_sum_decomposition": (
            mi.sum(mi_comp).is_full()
            and mi.intersect(mi_comp).is_zero()
        ),
    }
    return report


def test_module_action_of_trivial_idempotents():
    cat = catalog("a2cat(2)")
    z = compute_center(cat)
    one = z.element(z.unit)
    zero = z.element((0,) * z.dim)
    i_one, c_one = ideal_of_idempotent(cat, one)
    i_zero, c_zero = ideal_of_idempotent(cat, zero)
    for m in enumerate_modules(cat, 3):
        rep = module_idempotent_action(m, cat, one, i_one, c_one)
        assert rep["consistent"] and rep["module_times_ideal_full"]
        rep = module_idempotent_action(m, cat, zero, i_zero, c_zero)
        assert rep["consistent"] and rep["module_times_ideal_zero"]


def test_prod_component_simple_action():
    cat = catalog("prod(2)")
    z = compute_center(cat)
    # the idempotent with coordinates of e1 inside the center
    target = None
    for coords, eps in center_idempotents(z):
        if eps.components["x"].coords == (1, 0):
            target = eps
            break
    assert target is not None
    i_eps, i_comp = ideal_of_idempotent(cat, target)
    # the simple supported on the first factor: action e1 -> 1, e2 -> 0
    from ringoid.linalg import Mat
    from ringoid.modules import FinModule

    m = FinModule(
        cat,
        {"x": 1},
        {("x", "x", 0): Mat(2, 1, 1, ((1,),)), ("x", "x", 1): Mat(2, 1, 1, ((0,),))},
    )
    assert module_times_ideal(m, i_eps).is_full()
    assert module_times_ideal(m, i_comp).is_zero()


def test_census_decomposes_along_central_idempotents():
    for name in ["prod(2)", "dual(2)", "a2cat(2)"]:
        cat = catalog(name)
        z = compute_center(cat)
        for _, eps in center_idempotents(z):
            i_eps, i_comp = ideal_of_idempotent(cat, eps)
            for m in enumerate_modules(cat, 3):
                mi = module_times_ideal(m, i_eps)
                mc = module_times_ideal(m, i_comp)
                assert mi.sum(mc).is_full()
                assert mi.intersect(mc).is_zero()
