"""The per-category memo: every derived structure is built once per key."""

from collections import Counter

import pytest

from ringoid import category, center, cli, completion, ideals, modules, torsion, ttf
from ringoid.category import catalog, derived
from ringoid.linalg import CapExceeded
from ringoid.modules import enumerate_modules
from ringoid.torsion import module_census
from reference import maximal_topology


def test_repeat_enumeration_returns_the_same_list():
    cat = catalog("dual(2)")
    first = enumerate_modules(cat, 3)
    assert enumerate_modules(cat, 3) is first
    assert enumerate_modules(cat, 2) is not first
    assert enumerate_modules(catalog("dual(2)"), 3) is not first


def test_lowered_cap_still_refuses_on_a_cached_category(monkeypatch):
    cat = catalog("a2cat(2)")
    enumerate_modules(cat, 4)
    module_census(cat, 3)
    monkeypatch.setenv("RINGOID_CAP_VECTORS", "1")
    with pytest.raises(CapExceeded):
        enumerate_modules(cat, 4)
    with pytest.raises(CapExceeded):
        module_census(cat, 3)


def test_nothing_is_kept_when_the_build_raises():
    cat = catalog("pt(2)")

    def refuse():
        raise CapExceeded("refused", "probe", 1, 0)

    with pytest.raises(CapExceeded):
        derived(cat, ("probe",), refuse)
    assert derived(cat, ("probe",), lambda: 7) == 7
    assert derived(cat, ("probe",), refuse) == 7


def test_representables_are_shared():
    cat = catalog("a2cat(2)")
    h = modules.representable(cat, "2")
    assert modules.representable(cat, "2") is h
    assert modules.representable(cat, "1") is not h
    assert maximal_topology(cat).families["2"][0].module is h


def test_one_census_run_builds_each_structure_once(monkeypatch, capsys):
    builds = []  # (category, key); holding the category keeps its id unique
    real_derived = category.derived

    def counting_derived(cat, key, build):
        def counted():
            builds.append((cat, key))
            return build()

        return real_derived(cat, key, counted)

    for mod in (modules, completion, center, ideals, torsion, ttf):
        monkeypatch.setattr(mod, "derived", counting_derived)

    constructed = {"closure": [], "census": []}

    def counting_init(kind, init, freeze=lambda arg: arg):
        def wrapped(self, cat, arg, *args):
            arg = freeze(arg)
            constructed[kind].append((cat, arg))
            init(self, cat, arg, *args)

        return wrapped

    # a closure is keyed by its tuples, a census by its bound
    monkeypatch.setattr(completion.AdditiveClosure, "__init__",
                        counting_init("closure", completion.AdditiveClosure.__init__, tuple))
    monkeypatch.setattr(torsion.ModuleCensus, "__init__",
                        counting_init("census", torsion.ModuleCensus.__init__))

    loaded = []
    real_load = cli.load_category
    monkeypatch.setattr(cli, "load_category", lambda source, p: loaded.append(real_load(source, p)) or loaded[-1])

    assert cli.main(["census", "catalog:a2cat", "--p", "2", "--json"]) == 0
    capsys.readouterr()

    # one module census, of the loaded category at the default --dim: the
    # Jans reverse map reads the representable quotients, and the shadows
    # read each quotient category's census off the base one
    (loaded_cat, _), = loaded
    assert constructed["census"] == [(loaded_cat, 4)]
    per_key = Counter((id(cat), key) for cat, key in builds)
    assert set(per_key.values()) == {1}
    kinds = Counter(key[0] for _, key in builds)
    assert kinds["center"] == 1
    assert kinds["central idempotent ideals"] == 1
    assert kinds["sequences"] > 0
    assert kinds["representable"] > 0
    assert kinds["pullback"] > 0
    # the simples of every category whose modules are listed are read from
    # its representable quotients, and the topologies of a2cat(2) from its own
    quotient_lists = {id(cat) for cat, key in builds if key[0] == "representable-quotients"}
    assert quotient_lists == {id(cat) for cat, key in builds if key[0] == "census"}
    censuses = Counter((id(cat), key[1]) for cat, key in builds if key[0] == "census")
    assert censuses and set(censuses.values()) == {1}
    for kind in ("closure", "census"):
        per_arg = Counter((id(cat), arg) for cat, arg in constructed[kind])
        assert per_arg and set(per_arg.values()) == {1}, kind
    # every closure, the witness search's closure of each tuple alone
    # included, is built under its memo key
    assert kinds["additive-closure"] == len(constructed["closure"])
    assert kinds["tuple idempotent ideals"] > 0
    assert kinds["census"] == len(constructed["census"])


def test_the_census_builds_no_closure_past_the_witness_length(monkeypatch, capsys):
    # every idempotent ideal of a2cat(3) has a witness on the singletons;
    # the witness search keeps the closure of each tuple it scans, the zero
    # tuple and the singletons, and the corner facts of each witness read
    # the search's closure of its tuple: no closure holds two tuples, or none
    cat = catalog("a2cat(3)")
    monkeypatch.setattr(cli, "load_category", lambda source, p: (cat, []))
    assert cli.main(["census", "catalog:a2cat", "--p", "3", "--json"]) == 0
    capsys.readouterr()
    assert {key[1] for key, _cap in cat._derived if key[0] == "additive-closure"} == {
        ((),), (("1",),), (("2",),)}


def test_the_census_reads_the_corner_once_per_witness_idempotent(monkeypatch, capsys):
    # prod(3) is k x k on one object x: its three nonzero idempotent ideals
    # are witnessed by the two idempotents of End(x), the unit ideal by
    # both, so the census builds two sets of corner facts
    cat = catalog("prod(3)")
    monkeypatch.setattr(cli, "load_category", lambda source, p: (cat, []))
    assert cli.main(["census", "catalog:prod", "--p", "3", "--json"]) == 0
    capsys.readouterr()
    witnesses = [ideals.is_trace_of_projectives(cat, i) for i in ideals.enumerate_idempotent_ideals(cat)]
    assert [len(w) for w in witnesses] == [0, 1, 1, 2]
    facts = [key for key, _cap in cat._derived if key[0] == "corner facts"]
    assert sorted(key[1:] for key in facts) == [(("x",), (0, 1), 4), (("x",), (1, 0), 4)]


def test_the_module_census_keeps_no_submodule_lists():
    # the census walks every submodule once; holding them all for the whole
    # sweep would raise the peak memory of the torsion sweep
    cat = catalog("a2cat(2)")
    module_census(cat, 3)
    kinds = {key[0] for key, _cap in cat._derived}
    assert "census" in kinds
    assert not kinds & {"sequences", "submodules"}


A4_DSL = ("vertices 1 2 3 4 ; arrow a: 1 -> 2 ; arrow b: 2 -> 3 ; arrow c: 3 -> 4 ;"
          " relation a*b ; relation b*c ; field 2 ; maxlen 3 ;")


def test_enumerate_topologies_builds_each_pullback_once(monkeypatch):
    # every topology of the A4 quiver is checked against the pullback and
    # glueing axioms; they ask for 928 pullbacks, of 64 distinct (r, R)
    from ringoid.quiver import parse_quiver_dsl, path_category

    cat = path_category(parse_quiver_dsl(A4_DSL))
    builds = Counter()
    real_derived = category.derived

    def counting_derived(c, key, build):
        def counted():
            builds[key] += 1
            return build()

        return real_derived(c, key, counted)

    calls = []
    real_pullback = torsion.pullback_submodule

    def counting_pullback(c, r, target):
        calls.append(1)
        return real_pullback(c, r, target)

    monkeypatch.setattr(torsion, "derived", counting_derived)
    monkeypatch.setattr(torsion, "pullback_submodule", counting_pullback)
    torsion.enumerate_topologies(cat)
    pullbacks = {key: n for key, n in builds.items() if key[0] == "pullback"}
    assert set(pullbacks.values()) == {1}
    assert (len(calls), len(pullbacks)) == (928, 64)


def test_gabriel_builds_each_yoneda_kernel_once(monkeypatch, capsys):
    # the 16 topologies of the A4 quiver test every quotient of a
    # representable for torsion; the kernels of its lines are built once,
    # 42 of them, where each topology building its own made 732
    from ringoid.quiver import parse_quiver_dsl, path_category

    cat = path_category(parse_quiver_dsl(A4_DSL))
    monkeypatch.setattr(cli, "load_category", lambda source, p: (cat, []))
    calls = []
    real = torsion.yoneda_kernel
    monkeypatch.setattr(torsion, "yoneda_kernel",
                        lambda c, m, a, v: calls.append((m.key(), a, v)) or real(c, m, a, v))
    assert cli.main(["gabriel", "a4.json", "--census", "4", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 42
