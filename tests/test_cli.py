import hashlib
import json
import subprocess
import sys
import time

import pytest

from ringoid import cli
from ringoid.category import cat_to_json, catalog
from reference import maximal_topology


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_jans_on_catalog(capsys):
    code, out = run_cli(["jans", "catalog:a2cat", "--p", "2"], capsys)
    assert code == 0
    assert "jans-roundtrip" in out
    assert "pass" in out


def test_gabriel_json_counts(capsys):
    code, out = run_cli(["gabriel", "catalog:dual", "--p", "2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    topo = next(f for f in doc["findings"] if f["statement_id"] == "topology-axioms")
    assert topo["witness"]["topologies"] == 2


def test_json_report_determinism(capsys):
    code1, out1 = run_cli(["census", "catalog:pt", "--p", "2", "--json"], capsys)
    code2, out2 = run_cli(["census", "catalog:pt", "--p", "2", "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_census_pt2(capsys):
    code, out = run_cli(["census", "catalog:pt", "--p", "2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_id = {f["statement_id"]: f for f in doc["findings"]}
    assert by_id["ideal-count"]["witness"]["count"] == 2
    assert by_id["idempotent-ideal-count"]["witness"]["count"] == 2
    assert by_id["topology-count"]["witness"]["count"] == 2
    assert by_id["ttf-roundtrips"]["witness"]["count"] == 2
    assert by_id["split-ttf-count"]["witness"]["count"] == 2


def test_census_dual2(capsys):
    code, out = run_cli(["census", "catalog:dual", "--p", "2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_id = {f["statement_id"]: f for f in doc["findings"]}
    assert by_id["ideal-count"]["witness"]["count"] == 3
    assert by_id["idempotent-ideal-count"]["witness"]["count"] == 2
    assert by_id["topology-count"]["witness"]["count"] == 2
    assert by_id["torsion-fingerprints"]["witness"]["count"] == 2
    assert by_id["split-ttf-count"]["witness"]["count"] == 2


def test_census_a2cat2(capsys):
    code, out = run_cli(["census", "catalog:a2cat", "--p", "2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_id = {f["statement_id"]: f for f in doc["findings"]}
    assert by_id["ideal-count"]["witness"]["count"] == 5
    assert by_id["idempotent-ideal-count"]["witness"]["count"] == 4
    assert by_id["topology-count"]["witness"]["count"] == 4
    assert by_id["torsion-fingerprints"]["witness"]["count"] == 4
    assert by_id["ttf-roundtrips"]["witness"]["count"] == 4
    assert by_id["split-ttf-count"]["witness"]["count"] == 2


def test_validate_good_file(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(cat_to_json(catalog("dual(2)")))
    code, out = run_cli(["validate", str(path)], capsys)
    assert code == 0


def test_validate_broken_category(tmp_path, capsys):
    # a one-object table where the declared unit is not a unit
    doc = {
        "p": 2,
        "objects": ["x"],
        "hom": {"x|x": 2},
        "comp": {"x|x|x": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]},
        "id": {"x": [1, 0]},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 65
    assert "fail" in out


@pytest.mark.parametrize(
    "doc",
    [
        {"p": 2, "objects": 5},
        {"p": 2, "objects": ["a"], "hom": {"a|a": 1}, "comp": {"a|a|a": 5}, "id": {"a": [1]}},
        {"p": 2, "objects": ["a"], "hom": {"a|a": 1}, "comp": {"a|a|a": [[[1.5]]]}, "id": {"a": [1]}},
        {"p": 3.7, "objects": ["a"], "hom": {"a|a": 1}, "comp": {"a|a|a": [[[1]]]}, "id": {"a": [1]}},
    ],
)
def test_malformed_category_file_is_bad_input(tmp_path, capsys, doc):
    # JSON that parses but is not a category document: exit 65, one line
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("cannot load category:")
    assert captured.err.count("\n") == 1


def test_unreadable_file():
    assert cli.main(["validate", "/nonexistent/file.json"]) == 65


def test_unknown_catalog():
    assert cli.main(["validate", "catalog:nosuch", "--p", "2"]) == 65


def test_a_catalog_name_without_a_prime_is_named_without_repr_quotes(capsys):
    assert cli.main(["validate", "catalog:pt"]) == 65
    assert capsys.readouterr().err == "cannot load category: catalog name 'pt' needs a prime, e.g. pt(2)\n"


@pytest.mark.parametrize("p", ["3", "4"])
def test_a_p_other_than_the_file_prime_is_bad_input(tmp_path, capsys, p):
    # a JSON source carries its prime; a differing --p, prime (3) or not (4),
    # is refused in one line, as catalog:pt(2) --p 3 is, and not ignored
    path = tmp_path / "pt2.json"
    path.write_text(cat_to_json(catalog("pt(2)")))
    code = cli.main(["validate", str(path), "--p", p, "--json"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == f"cannot load category: --p {p} conflicts with the prime 2 of {path}\n"


def test_the_file_prime_as_p_leaves_the_report_unchanged(tmp_path, capsys):
    path = tmp_path / "pt2.json"
    path.write_text(cat_to_json(catalog("pt(2)")))
    with_p = run_cli(["validate", str(path), "--p", "2", "--json"], capsys)
    assert with_p == run_cli(["validate", str(path), "--json"], capsys)
    assert with_p[0] == 0 and json.loads(with_p[1])["parameters"]["p"] == 2


def test_bad_flags_usage_error():
    assert cli.main(["not-a-command", "catalog:pt", "--p", "2"]) == 64


def test_refusal_on_tiny_cap(monkeypatch, capsys):
    monkeypatch.setenv("RINGOID_CAP_VECTORS", "2")
    code, out = run_cli(["gabriel", "catalog:dual", "--p", "2"], capsys)
    assert code == 2
    assert "refused" in out
    assert "cap 2" in out


@pytest.mark.parametrize("argv,env_cap,anchor,engine,message,witness", [
    (["gabriel", "catalog:dual", "--p", "2"], "2", "refusal:vector-cap", "linalg.check_vector_cap",
     "all_submodules: sum of p^dim M(a) = 4 exceeds cap 2 (raise RINGOID_CAP_VECTORS to override)",
     {"operation": "all_submodules: sum of p^dim M(a)", "needed": 4, "cap": 2}),
    (["complete", "catalog:a2cat", "--p", "2", "--bound", "7"], None, "refusal:closure-object-cap",
     "completion.AdditiveClosure", "additive closure would have 255 objects, over cap 130",
     {"operation": "additive_closure: tuple objects", "needed": 255, "cap": 130}),
])
def test_refusal_json_names_its_cap(monkeypatch, capsys, argv, env_cap, anchor, engine, message, witness):
    if env_cap is None:
        monkeypatch.delenv("RINGOID_CAP_VECTORS", raising=False)
    else:
        monkeypatch.setenv("RINGOID_CAP_VECTORS", env_cap)
    code, out = run_cli(argv + ["--json"], capsys)
    assert code == 2
    assert json.loads(out)["findings"] == [{
        "statement_id": argv[0],
        "paper_anchor": anchor,
        "verdict": f"refused(cap): {message}",
        "witness": witness,
    }]
    assert cli.ANCHORS[anchor] == engine


def test_karoubi_envelope_over_the_object_cap_is_refused_before_its_tables(monkeypatch, capsys):
    # a2(2) at bound 2 passes the closure cap (7 tuple objects) but has 281
    # idempotent objects, whose tables took over 4 GB when they were built
    from ringoid import completion

    def no_tables(*args):
        raise AssertionError("envelope tables built past the cap")

    monkeypatch.setattr(completion, "CornerCategory", no_tables)
    monkeypatch.delenv("RINGOID_CAP_VECTORS", raising=False)
    start = time.perf_counter()
    code, out = run_cli(["complete", "catalog:a2", "--p", "2", "--bound", "2", "--idempotents", "--json"], capsys)
    assert time.perf_counter() - start < 10
    assert code == 2
    assert json.loads(out)["findings"] == [{
        "statement_id": "complete",
        "paper_anchor": "refusal:envelope-object-cap",
        "verdict": "refused(cap): idempotent completion would have 281 objects, over cap 130",
        "witness": {"operation": "idempotent_completion: idempotent objects", "needed": 281, "cap": 130},
    }]
    assert cli.ANCHORS["refusal:envelope-object-cap"] == "completion.check_envelope_objects"


def test_complete_emits_interchange_category(capsys):
    code, out = run_cli(["complete", "catalog:pt", "--p", "2", "--bound", "2"], capsys)
    assert code == 0
    first_line = out.splitlines()[0]
    from ringoid.category import cat_from_json, validate

    emitted = cat_from_json(first_line)
    assert validate(emitted) == []
    assert len(emitted.objects) == 3  # (), (x), (x,x)


def test_complete_idempotents(capsys):
    code, out = run_cli(
        ["complete", "catalog:dual", "--p", "2", "--bound", "1", "--idempotents"], capsys
    )
    assert code == 0


def test_complete_json_embeds_category(capsys):
    code, out = run_cli(
        ["complete", "catalog:pt", "--p", "2", "--bound", "2", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["emitted"]["objects"] == ["()", "(x)", "(x,x)"]


def test_recollement_all(capsys):
    code, out = run_cli(
        ["recollement", "catalog:a2cat", "--p", "2", "--bound", "2", "--dim", "3", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["findings"]) == 4
    assert all(f["verdict"] == "pass" for f in doc["findings"])


def test_recollement_single_index(capsys):
    code, out = run_cli(
        ["recollement", "catalog:prod", "--p", "2", "--bound", "1", "--dim", "3",
         "--ideal", "1", "--json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["findings"]) == 1
    assert doc["findings"][0]["statement_id"] == "recollement-1"


def test_center_command(capsys):
    code, out = run_cli(
        ["center", "catalog:prod", "--p", "2", "--idempotents", "--summands", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    by_id = {f["statement_id"]: f for f in doc["findings"]}
    assert by_id["center-dimension"]["witness"]["dim"] == 2
    assert by_id["center-idempotents"]["witness"]["count"] == 4
    assert by_id["summand-bijection"]["verdict"] == "pass"


def test_ideals_command(capsys):
    code, out = run_cli(
        ["ideals", "catalog:a2cat", "--p", "2", "--idempotent", "--bound", "2", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    by_id = {f["statement_id"]: f for f in doc["findings"]}
    assert by_id["ideal-enumeration"]["witness"]["count"] == 4
    assert by_id["trace-of-projectives-witnesses"]["witness"]["witnessed"] == [True] * 4


def test_anchor_table_resolves_uniquely():
    # every anchor names exactly one engine operation, and that operation exists
    import importlib

    seen_ops = set()
    for anchor, op in cli.ANCHORS.items():
        mod_name, func_name = op.split(".")
        mod = importlib.import_module(f"ringoid.{mod_name}")
        assert hasattr(mod, func_name), op
        assert op not in seen_ops
        seen_ops.add(op)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ringoid.cli", "jans", "catalog:pt", "--p", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "jans-roundtrip" in proc.stdout


def test_cross_process_json_determinism(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(cat_to_json(catalog("a2cat(2)")))
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "ringoid.cli", "gabriel", str(path), "--census", "3", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_every_command_accepts_a_file_source(tmp_path, capsys):
    path = tmp_path / "cat.json"
    path.write_text(cat_to_json(catalog("prod(2)")))
    for command in ["validate", "ideals", "jans", "split", "center"]:
        code, out = run_cli([command, str(path), "--dim", "3"], capsys)
        assert code == 0, (command, out)


def test_gabriel_on_the_three_arrow_kronecker_quiver(tmp_path, capsys):
    # 4 simple-module sets where H_2 has 17 submodules (2^16 candidate families)
    from ringoid.quiver import parse_quiver_dsl, path_category

    spec = parse_quiver_dsl(
        "vertices 1 2 ; arrow a: 1 -> 2 ; arrow b: 1 -> 2 ; arrow c: 1 -> 2 ; field 2 ; maxlen 1 ;"
    )
    path = tmp_path / "kronecker3.json"
    path.write_text(cat_to_json(path_category(spec)))
    code, out = run_cli(["gabriel", str(path), "--json"], capsys)
    assert code == 0
    findings = {f["statement_id"]: f for f in json.loads(out)["findings"]}
    assert findings["topology-axioms"]["witness"]["topologies"] == 4
    assert all(f["verdict"] == "pass" for f in findings.values())
    code, out = run_cli(["gabriel", str(path), "--census", "3", "--json"], capsys)
    assert code == 0
    findings = {f["statement_id"]: f for f in json.loads(out)["findings"]}
    assert findings["topology-census-equality"]["verdict"] == "pass"


# wrong topology lists, from the true list and the category
TOPOLOGY_MUTATIONS = {
    "dropped": lambda topos, cat: topos[:-1],
    "duplicated": lambda topos, cat: topos + topos[:1],
    "maximal": lambda topos, cat: topos[:-1] + [maximal_topology(cat)],
}


@pytest.mark.parametrize("kind", sorted(TOPOLOGY_MUTATIONS))
@pytest.mark.parametrize(
    "argv, finding",
    [
        (["gabriel", "catalog:prod", "--p", "2", "--census", "3"], "topology-census-equality"),
        (["census", "catalog:prod", "--p", "2"], "torsion-fingerprints"),
    ],
)
def test_census_check_catches_a_wrong_topology_list(monkeypatch, capsys, kind, argv, finding):
    # prod(2) has 4 topologies and 4 hereditary classes: a list missing one,
    # repeating one, or with the last replaced by the (already listed)
    # maximal topology is not a bijection onto the sweep's classes; census
    # also counts the list against its 4 idempotent ideals
    real = cli.enumerate_topologies
    monkeypatch.setattr(cli, "enumerate_topologies", lambda cat: TOPOLOGY_MUTATIONS[kind](real(cat), cat))
    code, out = run_cli([*argv, "--json"], capsys)
    assert code == 1
    failed = [f["statement_id"] for f in json.loads(out)["findings"] if f["verdict"] == "fail"]
    miscounted = argv[0] == "census" and kind != "maximal"
    assert failed == [finding] + (["ttf-roundtrips"] if miscounted else [])


@pytest.mark.parametrize("drop", [0, -1])
@pytest.mark.parametrize("name", ["prod", "a2cat"])
def test_census_check_catches_a_dropped_idempotent_ideal(monkeypatch, capsys, name, drop):
    # the Jans roundtrip over the remaining idempotent ideals still passes
    # with distinct fingerprints; only the count against the topologies
    # (4 at p = 2) sees the missing one
    from ringoid import ttf

    real = ttf.enumerate_idempotent_ideals

    def dropped(cat):
        ideals = real(cat)
        return [i for n, i in enumerate(ideals) if n != drop % len(ideals)]

    monkeypatch.setattr(ttf, "enumerate_idempotent_ideals", dropped)
    code, out = run_cli(["census", f"catalog:{name}", "--p", "2", "--json"], capsys)
    assert code == 1
    findings = json.loads(out)["findings"]
    assert [f["statement_id"] for f in findings if f["verdict"] == "fail"] == ["ttf-roundtrips"]
    assert next(f for f in findings if f["statement_id"] == "ttf-roundtrips")["witness"] == {"count": 3}


@pytest.mark.parametrize("name", ["prod", "a2cat"])
def test_census_recollements_fail_when_an_ideal_has_no_witness(monkeypatch, capsys, name):
    # the shadows of the other ideals still pass; only the count of the
    # witnessed ideals against the idempotent ideals sees the hidden one
    from ringoid import ttf

    real = ttf.is_trace_of_projectives
    monkeypatch.setattr(ttf, "is_trace_of_projectives",
                        lambda cat, ideal, bound=3: None if ideal.is_full() else real(cat, ideal, bound))
    code, out = run_cli(["census", f"catalog:{name}", "--p", "2", "--json"], capsys)
    assert code == 1
    findings = json.loads(out)["findings"]
    assert [f["statement_id"] for f in findings if f["verdict"] == "fail"] == ["recollement-shadows"]
    assert findings[-1]["witness"] == {"witnessed_ideals": 3}


@pytest.mark.parametrize("name", ["prod", "a2cat"])
def test_census_recollements_fail_when_two_ideals_share_a_corner(monkeypatch, capsys, name):
    # the second nonzero idempotent ideal is given the witness of the first,
    # so both data have the same corner and the same kernel Ker j^*; the
    # shadows would fail too (that kernel is not the second ideal's torsion
    # class), so they are passed here and only the distinct kernels see it
    from ringoid import ttf
    from ringoid.ideals import enumerate_idempotent_ideals

    real = cli.is_trace_of_projectives

    def sharing(cat, ideal, bound=3):
        first, second = [i for i in enumerate_idempotent_ideals(cat) if not i.is_zero()][:2]
        return real(cat, first if ideal == second else ideal, bound)

    monkeypatch.setattr(cli, "is_trace_of_projectives", sharing)
    monkeypatch.setattr(ttf, "is_trace_of_projectives", sharing)
    monkeypatch.setattr(cli, "recollement_shadows", lambda data, census_bound: {"pass": True})
    code, out = run_cli(["census", f"catalog:{name}", "--p", "2", "--json"], capsys)
    assert code == 1
    findings = json.loads(out)["findings"]
    assert [f["statement_id"] for f in findings if f["verdict"] == "fail"] == ["recollement-shadows"]
    assert findings[-1]["witness"] == {"witnessed_ideals": 4}


def test_census_check_fails_when_the_bound_merges_topologies(capsys):
    # mat2 has one simple module, of dimension 2: at census bound 1 both
    # topologies close to the class of the zero module alone
    code, out = run_cli(["gabriel", "catalog:mat2", "--p", "2", "--census", "1", "--json"], capsys)
    assert code == 1
    finding = next(f for f in json.loads(out)["findings"] if f["statement_id"] == "topology-census-equality")
    assert finding["verdict"] == "fail"
    assert finding["witness"] == {"topologies": 2, "torsion_fingerprints": 1, "collisions": True}


@pytest.mark.parametrize(
    "argv, ideal_check",
    [
        (["recollement", "catalog:prod", "--p", "2", "--ideal", "9"], True),
        (["recollement", "catalog:prod", "--p", "2", "--ideal", "foo"], True),
        (["recollement", "catalog:prod", "--p", "2", "--ideal", "-1"], True),
        (["complete", "catalog:pt", "--p", "2", "--bound", "0"], False),
        (["ideals", "catalog:pt", "--p", "2", "--idempotent", "--bound", "0"], False),
        (["recollement", "catalog:pt", "--p", "2", "--bound", "-1"], False),
        (["census", "catalog:pt", "--p", "2", "--dim", "-1"], False),
        (["jans", "catalog:pt", "--p", "2", "--dim", "-1"], False),
        (["gabriel", "catalog:pt", "--p", "2", "--census", "-2"], False),
        (["gabriel", "catalog:pt", "--p", "2", "--census", "two"], False),
        (["census", "catalog:pt", "--p", "2", "--dim", "x"], False),
        (["frobnicate", "catalog:pt", "--p", "2"], False),
        (["census"], False),
        (["census", "catalog:pt", "--p", "2", "--nope"], False),
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, argv, ideal_check):
    # a bad flag or flag value is the caller's mistake (64), not a bug (70),
    # refused in one stderr line with no usage text: by the --ideal check
    # once the category is loaded, or else by the argument parser
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("ringoid: --ideal" if ideal_check else "ringoid: ")
    assert "usage:" not in captured.err and "internal error" not in captured.err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: ringoid")
    assert captured.err == ""


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_bad_cap_env_is_usage_error(monkeypatch, capsys, raw):
    monkeypatch.setenv("RINGOID_CAP_VECTORS", raw)
    code = cli.main(["validate", "catalog:pt", "--p", "2"])
    err = capsys.readouterr().err
    assert code == 64
    assert len(err.strip().splitlines()) == 1
    assert "RINGOID_CAP_VECTORS" in err


def test_census_split_disagreement_fails(monkeypatch, capsys):
    real_is_split = cli.is_split

    def disagreeing(*args, **kwargs):
        return {**real_is_split(*args, **kwargs), "agree": False}

    monkeypatch.setattr(cli, "is_split", disagreeing)
    code, out = run_cli(["census", "catalog:pt", "--p", "2", "--json"], capsys)
    assert code == 1
    by_id = {f["statement_id"]: f for f in json.loads(out)["findings"]}
    assert by_id["split-ttf-count"]["verdict"] == "fail"


def test_census_missing_ideal_fails(monkeypatch, capsys):
    real_enumerate_ideals = cli.enumerate_ideals
    monkeypatch.setattr(cli, "enumerate_ideals", lambda cat: real_enumerate_ideals(cat)[:-1])
    code, out = run_cli(["census", "catalog:prod", "--p", "2", "--json"], capsys)
    assert code == 1
    by_id = {f["statement_id"]: f for f in json.loads(out)["findings"]}
    assert by_id["ideal-count"]["verdict"] == "fail"
    assert by_id["idempotent-ideal-count"]["verdict"] == "fail"


def test_census_missing_join_irreducible_ideal_fails(monkeypatch, capsys):
    # the dropped ideal is principal, so sum-closure alone cannot notice it
    real_enumerate_ideals = cli.enumerate_ideals

    def without_first_nonzero(cat):
        ideals = real_enumerate_ideals(cat)
        return ideals[:1] + ideals[2:]

    monkeypatch.setattr(cli, "enumerate_ideals", without_first_nonzero)
    code, out = run_cli(["census", "catalog:prod", "--p", "2", "--json"], capsys)
    assert code == 1
    by_id = {f["statement_id"]: f for f in json.loads(out)["findings"]}
    assert by_id["ideal-count"]["verdict"] == "fail"
    assert by_id["ideal-count"]["witness"]["count"] == 3


def test_main_frees_the_loaded_category(monkeypatch, capsys):
    # memo entries point back at their category; main must not leave the
    # cycle to the automatic collector
    import gc
    import weakref

    loaded = []
    real_load = cli.load_category

    def load(source, p):
        cat, violations = real_load(source, p)
        loaded.append(weakref.ref(cat))
        return cat, violations

    monkeypatch.setattr(cli, "load_category", load)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        code, _ = run_cli(["gabriel", "catalog:a2cat", "--p", "2", "--census", "2"], capsys)
    finally:
        if was_enabled:
            gc.enable()
    assert code == 0
    assert len(loaded) == 1 and loaded[0]() is None


# sha256 prefixes of `census catalog:<name> --p 3 --json` on stdout, as
# recorded in CHANGES.md; a change here changes the report bytes
CENSUS_P3_SHA256 = {
    "pt": "9e6e36170abac88e",
    "dual": "a7c5e7777b776106",
    "prod": "b13f10a0f47ac8de",
}


@pytest.mark.parametrize("name", sorted(CENSUS_P3_SHA256))
def test_census_json_matches_recorded_hash(capsys, name):
    code, out = run_cli(["census", f"catalog:{name}", "--p", "3", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == CENSUS_P3_SHA256[name]


# sha256 prefixes of more reports recorded in CHANGES.md: the recollement
# reports run the corner categories and the corner restriction of modules and
# maps, the idempotent completion the shared idempotent-subcategory builder
# (dual(2) at bound 2 is the karoubi-dual benchmark report, mat2(3) an odd-p
# transfer), the center report the center, and the census reports pin the
# rest of the census-p3 benchmark set (a2 and a2cat at its --dim 3)
REPORT_SHA256 = {
    "recollement-a2cat-p2": (["recollement", "catalog:a2cat", "--p", "2"], "6419481e3789b1f6"),
    "recollement-prod-p3": (["recollement", "catalog:prod", "--p", "3", "--ideal", "all"], "6c0792e5355651c0"),
    "complete-idempotents-a2cat-p2": (
        ["complete", "catalog:a2cat", "--p", "2", "--bound", "1", "--idempotents"], "aaee8a690ddf3e23"
    ),
    "center-mat2-p3": (["center", "catalog:mat2", "--p", "3"], "0c703b5037d7e045"),
    "gabriel-census-a2cat-p2": (["gabriel", "catalog:a2cat", "--p", "2", "--census", "3"], "559db1580046a9de"),
    "gabriel-census-dual-p3": (["gabriel", "catalog:dual", "--p", "3", "--census", "3"], "c405bc7a3942b8fa"),
    "census-prod-p3": (["census", "catalog:prod", "--p", "3"], "b13f10a0f47ac8de"),
    "census-mat2-p3": (["census", "catalog:mat2", "--p", "3"], "17c4648644731abd"),
    "census-a2-p3-dim3": (["census", "catalog:a2", "--p", "3", "--dim", "3"], "1576ad71b61a32a8"),
    "census-a2cat-p3-dim3": (["census", "catalog:a2cat", "--p", "3", "--dim", "3"], "3aa966e5161dfccf"),
    "census-pt-p2": (["census", "catalog:pt", "--p", "2"], "65cbd5a12d05845d"),
    "census-pt-p3": (["census", "catalog:pt", "--p", "3"], "9e6e36170abac88e"),
    "census-dual-p3": (["census", "catalog:dual", "--p", "3"], "a7c5e7777b776106"),
    "jans-a2cat-p3": (["jans", "catalog:a2cat", "--p", "3"], "bc9f05c80aec7c0e"),
    "split-prod-p2": (["split", "catalog:prod", "--p", "2"], "e9d187d7f2e8e15c"),
    "ideals-idempotent-mat2-p2": (["ideals", "catalog:mat2", "--p", "2", "--idempotent"], "f65b44bc9aa86b2e"),
    "complete-idempotents-dual-p2-bound2": (
        ["complete", "catalog:dual", "--p", "2", "--bound", "2", "--idempotents"], "3ba47bde0570988b"
    ),
    "complete-a2cat-p3-bound3": (["complete", "catalog:a2cat", "--p", "3", "--bound", "3"], "a2fdf0a0eddc5a38"),
    "complete-idempotents-mat2-p3": (
        ["complete", "catalog:mat2", "--p", "3", "--bound", "1", "--idempotents"], "afcdbc4206fc816d"
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_json_report_matches_recorded_hash(capsys, name):
    argv, expected = REPORT_SHA256[name]
    code, out = run_cli([*argv, "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected


# the reports that read --idempotents, recorded under the spelling each
# command read when --idempotent and --idempotents were two options: either
# spelling now gives the idempotent report
IDEMPOTENTS_SHA256 = {
    "ideals": (["ideals", "catalog:mat2", "--p", "2"], "f65b44bc9aa86b2e"),
    "complete": (["complete", "catalog:dual", "--p", "2", "--bound", "2"], "3ba47bde0570988b"),
    "center": (["center", "catalog:prod", "--p", "2"], "cea0e1c34cb222d9"),
}


@pytest.mark.parametrize("spelling", ["--idempotents", "--idempotent"])
@pytest.mark.parametrize("command", sorted(IDEMPOTENTS_SHA256))
def test_both_spellings_of_idempotents_give_the_idempotent_report(capsys, command, spelling):
    argv, expected = IDEMPOTENTS_SHA256[command]
    code, out = run_cli([*argv, spelling, "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected


def test_recollement_refuses_an_ideal_without_a_witness(monkeypatch, capsys):
    # with the unit ideal of a2cat(3) hidden from the search, its finding is
    # a refusal at the bound and the other three data still pass
    from ringoid import ttf

    real = ttf.is_trace_of_projectives
    monkeypatch.setattr(ttf, "is_trace_of_projectives",
                        lambda cat, ideal, bound=3: None if ideal.is_full() else real(cat, ideal, bound))
    code, out = run_cli(["recollement", "catalog:a2cat", "--p", "3", "--ideal", "all", "--json"], capsys)
    assert code == 2
    findings = json.loads(out)["findings"]
    assert [(f["statement_id"], f["verdict"]) for f in findings] == [
        ("recollement-0", "pass"), ("recollement-1", "pass"), ("recollement-2", "pass"),
        ("recollement-3", "refused(bound=3)")]
    assert findings[-1]["witness"] == ("no idempotent witness at this bound; the ideal must be a"
                                       " trace of finitely generated projective modules")


def test_complete_json_embeds_the_interchange_document(capsys):
    from ringoid.completion import additive_closure

    code, out = run_cli(["complete", "catalog:dual", "--p", "2", "--bound", "2", "--json"], capsys)
    assert code == 0
    emitted = json.loads(out)["emitted"]
    assert emitted == json.loads(cat_to_json(additive_closure(catalog("dual(2)"), 2).cat))


@pytest.mark.parametrize("idempotents,objects", [([], 13), (["--idempotents"], 55)])
def test_complete_on_object_ids_with_commas(tmp_path, capsys, idempotents, objects):
    # objects a, b and "a,b": the closure tuples (a,b) and ("a,b") get
    # distinct ids, and the emitted category reloads and validates
    from ringoid.category import cat_from_json, validate

    path = tmp_path / "commas.json"
    path.write_text(json.dumps({
        "p": 2,
        "objects": ["a", "b", "a,b"],
        "hom": {f"{o}|{o}": 1 for o in ("a", "b", "a,b")},
        "comp": {f"{o}|{o}|{o}": [[[1]]] for o in ("a", "b", "a,b")},
        "id": {o: [1] for o in ("a", "b", "a,b")},
    }))
    code, out = run_cli(["complete", str(path), "--bound", "2", "--json", *idempotents], capsys)
    assert code == 0
    emitted = cat_from_json(json.dumps(json.loads(out)["emitted"]))
    assert len(emitted.objects) == objects
    assert validate(emitted) == []


@pytest.mark.parametrize("flag", ["--enumerate", "--roundtrip"])
def test_removed_gabriel_flags_are_usage_errors(flag):
    assert cli.main(["gabriel", "catalog:pt", "--p", "2", flag]) == 64


def test_internal_error_exits_70_with_one_line(monkeypatch, capsys):
    def broken(cat, args, report):
        raise RuntimeError("invariant broken\nsecond line")

    monkeypatch.setitem(cli.COMMANDS, "validate", broken)
    code = cli.main(["validate", "catalog:pt", "--p", "2"])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err == "ringoid: internal error: RuntimeError: invariant broken second line\n"


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(cat, args, report):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "validate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["validate", "catalog:pt", "--p", "2"])
