"""The benchmark's output checks reject wrong outputs.

    python3 -m pytest bench/test_checks.py
"""

import copy
import random

import checks


def census_report(name: str, p: int) -> dict:
    """A `census --json` report in the CLI's format with the right counts."""
    ideals, idem, simples, blocks = checks.CENSUS_P3[name]
    counts = [
        ("ideal-count", "count", ideals),
        ("idempotent-ideal-count", "count", idem),
        ("topology-count", "count", 2 ** simples),
        ("torsion-fingerprints", "count", 2 ** simples),
        ("ttf-roundtrips", "count", idem),
        ("split-ttf-count", "count", 2 ** blocks),
        ("recollement-shadows", "witnessed_ideals", idem),
    ]
    return {
        "command": "census",
        "parameters": {"p": p},
        "findings": [
            {"statement_id": sid, "paper_anchor": "", "verdict": "pass", "witness": {key: n}}
            for sid, key, n in counts
        ],
    }


# The dual numbers F_2[x]/(x^2) as a one-object category, basis 1, x.
DUAL_DOC = {
    "p": 2,
    "objects": ["*"],
    "hom": {"*|*": 2},
    "comp": {"*|*|*": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
    "id": {"*": [1, 0]},
}


def test_census_report_with_right_counts_passes():
    for name in checks.CENSUS_P3:
        assert checks.check_census(name, 3, census_report(name, 3)) == []


def test_census_report_with_one_count_changed_is_rejected():
    report = census_report("a2", 3)
    report["findings"][1]["witness"]["count"] += 1  # idempotent ideals 4 -> 5
    problems = checks.check_census("a2", 3, report)
    assert len(problems) == 1 and "idempotent-ideal-count" in problems[0]


def test_census_report_for_another_prime_is_rejected():
    assert checks.check_census("prod", 3, census_report("prod", 2))


def test_emitted_table_passes_axioms():
    assert checks.check_category_axioms(DUAL_DOC, random.Random(0), 100) == []


def test_emitted_table_with_one_entry_flipped_is_rejected():
    doc = copy.deepcopy(DUAL_DOC)
    doc["comp"]["*|*|*"][0][1][0] ^= 1  # 1 * x = x becomes 1 * x = 1 + x
    assert checks.check_category_axioms(doc, random.Random(0), 100)


def test_dual_karoubi_shape_by_brute_force():
    per_length, total_hom = checks.dual_karoubi_shape(2, 2)
    assert per_length == {0: 1, 1: 2, 2: 26}
    assert total_hom == 1458


def test_wrong_sweep_and_gabriel_counts_are_rejected():
    assert checks.check_sweep([frozenset({0})] * 16, 4)
    report = {
        "findings": [
            {"statement_id": "topology-axioms", "verdict": "pass", "witness": {"topologies": 16}},
            {"statement_id": "gabriel-roundtrip", "verdict": "pass",
             "witness": {"roundtrip": [True] * 15 + [False]}},
            {"statement_id": "topology-census-equality", "verdict": "pass",
             "witness": {"torsion_fingerprints": 16, "collisions": False}},
        ]
    }
    assert checks.check_gabriel(report, 4)
