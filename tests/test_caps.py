"""One cap mechanism: RINGOID_CAP_VECTORS is read where each scan refuses,
and no function takes a cap of its own."""

import importlib
import inspect
import pkgutil
import time

import pytest

import ringoid
from ringoid.category import catalog, list_idempotents
from ringoid.center import center_idempotents, compute_center
from ringoid.ideals import principal_ideals
from ringoid.linalg import CapExceeded, Mat
from ringoid.modules import (
    ModuleMap,
    _search_invertible,
    all_submodules,
    enumerate_modules,
    representable,
    simple_modules,
)
from ringoid.quiver import parse_quiver_dsl, path_category
from ringoid.torsion import enumerate_topologies, torsion_membership
from reference import enumerate_subspaces, maximal_topology, torsion_radical

KRONECKER = "vertices 1 2 ; arrow a: 1 -> 2 ; arrow b: 1 -> 2 ; field 2 ; maxlen 1 ;"
STAR = "vertices 1 2 3 4 ; arrow a: 1 -> 4 ; arrow b: 2 -> 4 ; arrow c: 3 -> 4 ; field 2 ; maxlen 1 ;"


def _callables():
    for info in pkgutil.iter_modules(ringoid.__path__):
        mod = importlib.import_module(f"ringoid.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_no_function_takes_a_cap_parameter():
    names = [name for name, _ in _callables()]
    assert "ringoid.modules.all_submodules" in names
    assert "ringoid.completion.AdditiveClosure.__init__" in names
    offenders = [
        name for name, fn in _callables()
        if {"cap", "cap_objects"} & set(inspect.signature(fn).parameters)
    ]
    assert offenders == []


def _zero_endomorphism():
    s = next(m for m in simple_modules(catalog("pt(2)")) if m.total_dim() == 1)
    return [ModuleMap(s, s, {a: Mat.zero(2, s.dims[a], s.dims[a]) for a in s.cat.objects})]


# (entry point, cap, what, count): each call is set up under the default
# cap, then run with RINGOID_CAP_VECTORS = cap
REFUSALS = [
    (lambda: (all_submodules, representable(catalog("dual(2)"), "x")),
     3, "all_submodules: sum of p^dim M(a)", 4),
    (lambda: (enumerate_modules, catalog("a2cat(2)"), 4),
     7, "extension scan: p^dim Ext", 8),
    (lambda: (principal_ideals, catalog("dual(2)")),
     2, "principal_ideals: nonzero morphisms", 3),
    # the star quiver has 4 simple modules, so 2^4 sets of them; its
    # submodule scans stay within cap 15
    (lambda: (enumerate_topologies, path_category(parse_quiver_dsl(STAR))),
     15, "enumerate_topologies: sets of simple modules", 16),
    (lambda: (enumerate_subspaces, 3, 2),
     7, "enumerate_subspaces: p^n", 8),
    (lambda: (path_category, parse_quiver_dsl(KRONECKER)),
     3, "path_category: paths of length <= maxlen", 4),
    (lambda: (list_idempotents, catalog("dual(2)"), "x"),
     3, "list_idempotents: p^dim A(x,x)", 4),
    (lambda: (center_idempotents, compute_center(catalog("prod(2)"))),
     3, "center_idempotents: p^dim Z", 4),
    (lambda: (torsion_membership, maximal_topology(catalog("dual(2)")), representable(catalog("dual(2)"), "x")),
     3, "torsion_membership: p^dim M(x)", 4),
    (lambda: (torsion_radical, maximal_topology(catalog("dual(2)")), representable(catalog("dual(2)"), "x")),
     3, "torsion_radical: p^dim M(x)", 4),
    (lambda: (_search_invertible, _zero_endomorphism(), 2),
     1, "is_iso coefficient scan: p^dim Hom", 2),
]


@pytest.mark.parametrize("setup,cap,what,count", REFUSALS, ids=[r[2].split(":")[0] for r in REFUSALS])
def test_each_capped_scan_refuses_in_one_format(monkeypatch, setup, cap, what, count):
    fn, *args = setup()
    monkeypatch.setenv("RINGOID_CAP_VECTORS", str(cap))
    with pytest.raises(CapExceeded) as info:
        fn(*args)
    message = str(info.value)
    assert message.startswith(what)
    assert message.endswith(f" = {count} exceeds cap {cap} (raise RINGOID_CAP_VECTORS to override)")
    monkeypatch.setenv("RINGOID_CAP_VECTORS", str(count))
    fn(*args)


def test_path_category_refuses_a_composition_table_over_the_cap(monkeypatch):
    # two loops at one vertex: 2^11 - 1 = 2047 paths fit the default cap, but
    # the composition table of (1, 1, 1) would hold 2047^3 entries
    monkeypatch.delenv("RINGOID_CAP_VECTORS", raising=False)
    spec = parse_quiver_dsl("vertices 1 ; arrow a: 1 -> 1 ; arrow b: 1 -> 1 ; field 2 ; maxlen 10 ;")
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        path_category(spec)
    assert time.perf_counter() - start < 5
    assert str(info.value) == ("path_category: entries of the largest composition table = 8577357823"
                               " exceeds cap 4096 (raise RINGOID_CAP_VECTORS to override)")
    assert (info.value.operation, info.value.needed, info.value.cap) == (
        "path_category: entries of the largest composition table", 2047 ** 3, 4096)


def test_path_category_refuses_a_relation_quiver_by_the_table_cap(monkeypatch):
    # with relation a*b only the paddings within maxlen are built, so the
    # table of 66^3 entries (hom dimension 1 + 2 + ... + 11, the words
    # b^i a^j) is refused after the relation space, not after padding every
    # pair of the 2047 paths
    monkeypatch.delenv("RINGOID_CAP_VECTORS", raising=False)
    spec = parse_quiver_dsl("vertices 1 ; arrow a: 1 -> 1 ; arrow b: 1 -> 1 ; relation a*b ; field 2 ; maxlen 10 ;")
    with pytest.raises(CapExceeded) as info:
        path_category(spec)
    assert (info.value.operation, info.value.needed, info.value.cap) == (
        "path_category: entries of the largest composition table", 66 ** 3, 4096)


def test_path_category_caps_the_table_after_the_paths(monkeypatch):
    # one loop with maxlen 2: 3 paths, and a 3 x 3 table of 3-vectors
    spec = parse_quiver_dsl("vertices 1 ; arrow a: 1 -> 1 ; field 2 ; maxlen 2 ;")
    monkeypatch.setenv("RINGOID_CAP_VECTORS", "26")
    with pytest.raises(CapExceeded, match=r"^path_category: entries of the largest composition table = 27 exceeds"):
        path_category(spec)
    monkeypatch.setenv("RINGOID_CAP_VECTORS", "27")
    assert path_category(spec).hom_dim[("1", "1")] == 3


def test_path_listing_stops_at_the_first_path_over_the_cap(monkeypatch):
    # one loop and a huge maxlen: listing stops at path cap + 1, not at maxlen
    monkeypatch.setenv("RINGOID_CAP_VECTORS", "5")
    spec = parse_quiver_dsl("vertices 1 ; arrow a: 1 -> 1 ; field 2 ; maxlen 1000000000 ;")
    with pytest.raises(CapExceeded, match=r"^path_category: paths of length <= maxlen = 6 exceeds cap 5 "):
        path_category(spec)


def test_path_listing_ends_when_no_path_extends(monkeypatch):
    # an acyclic quiver with a huge maxlen builds at once
    monkeypatch.delenv("RINGOID_CAP_VECTORS", raising=False)
    cat = path_category(parse_quiver_dsl(KRONECKER.replace("maxlen 1", "maxlen 1000000000")))
    assert cat.hom_dim[("1", "2")] == 2
