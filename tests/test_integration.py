"""End-to-end classification runs on categories outside the built-in catalog.

The counts asserted here were produced by the enumeration oracles themselves
and cross-checked between independent routes (axiom filtering vs closure
sweeps vs ideal roundtrips); the point of the test is that all routes keep
agreeing.
"""

import pytest

from ringoid.category import validate
from ringoid.ideals import enumerate_ideals, enumerate_idempotent_ideals
from ringoid.modules import enumerate_modules
from ringoid.quiver import parse_quiver_dsl, path_category
from ringoid.torsion import (
    enumerate_topologies,
    gabriel_roundtrip,
    hereditary_class_sweep,
    hereditary_closure_oracle,
    module_census,
    topology_seeds,
)
from ringoid.ttf import jans_roundtrip

KRONECKER = """
vertices 1 2 ;
arrow a: 1 -> 2 ;
arrow b: 1 -> 2 ;
field 2 ;
maxlen 1 ;
"""

STAR = """
vertices 1 2 3 4 ;
arrow a: 1 -> 4 ;
arrow b: 2 -> 4 ;
arrow c: 3 -> 4 ;
field 2 ;
maxlen 1 ;
"""


@pytest.fixture(scope="module")
def kronecker():
    cat = path_category(parse_quiver_dsl(KRONECKER))
    assert validate(cat) == []
    return cat


@pytest.fixture(scope="module")
def star():
    cat = path_category(parse_quiver_dsl(STAR))
    assert validate(cat) == []
    return cat


def test_kronecker_ideal_lattice(kronecker):
    # every subspace of the two-dimensional arrow space is an ideal, plus the
    # three identity-bearing ones: 5 + 3 = 8, of which 4 are idempotent
    assert len(enumerate_ideals(kronecker)) == 8
    assert len(enumerate_idempotent_ideals(kronecker)) == 4


def test_kronecker_classifications_agree(kronecker):
    topos = enumerate_topologies(kronecker)
    assert len(topos) == 4
    assert all(gabriel_roundtrip(t) for t in topos)
    assert len(hereditary_class_sweep(kronecker, 4)) == 4
    rep = jans_roundtrip(kronecker)
    assert rep["pass"] and rep["idempotent_ideals"] == 4


def test_kronecker_census_size(kronecker):
    assert len(enumerate_modules(kronecker, 4)) == 49


def test_star_ideal_lattice(star):
    # idempotent ideals of the star quiver are generated by object subsets
    assert len(enumerate_ideals(star)) == 35
    assert len(enumerate_idempotent_ideals(star)) == 16


def test_star_classifications_agree(star):
    topos = enumerate_topologies(star)
    assert len(topos) == 16
    assert all(gabriel_roundtrip(t) for t in topos)
    fps = set()
    for topo in topos:
        fps.add(hereditary_closure_oracle(star, topology_seeds(topo), 4).census_fingerprint)
    assert len(fps) == 16
    assert set(hereditary_class_sweep(star, 4)) == fps
    rep = jans_roundtrip(star, census_bound=4)
    assert rep["pass"] and rep["idempotent_ideals"] == 16


def test_ttf_classes_appear_among_hereditary_classes(kronecker):
    # every TTF fingerprint is a hereditary-class fingerprint from the sweep
    from ringoid.ttf import ttf_from_ideal

    census = module_census(kronecker, 4)
    sweep = {frozenset(fp) for fp in hereditary_class_sweep(kronecker, 4)}
    for ideal in enumerate_idempotent_ideals(kronecker):
        triple = ttf_from_ideal(kronecker, ideal)
        fp = frozenset(
            i for i, m in enumerate(census.classes) if triple.in_torsion(m)
        )
        assert fp in sweep
