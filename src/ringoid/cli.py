"""Command line front end: validation, completions, censuses, and the
classification roundtrips, with machine-readable reports.

Every finding carries a stable anchor naming the classification statement it
verifies; the anchors map one-to-one onto engine operations (see ANCHORS).
Reports are byte-identical across runs for identical inputs: wall-clock
timing is shown on the human output only and never serialized.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from .category import FinCat, cat_document, cat_from_json, cat_hash, cat_to_json, catalog, validate
from .center import central_idempotent_ideals, center_idempotents, compute_center, summand_bijection_check
from .completion import (CLOSURE_OBJECTS, ENVELOPE_OBJECTS, additive_closure, find_oplus_generator,
                         idempotent_completion)
from .ideals import (
    enumerate_ideals,
    enumerate_idempotent_ideals,
    is_idempotent,
    is_trace_of_projectives,
    principal_ideals,
    unit_ideal,
    zero_ideal,
)
from .linalg import CapExceeded, vector_cap
from .torsion import (
    enumerate_topologies,
    gabriel_roundtrip,
    has_fg_basis,
    hereditary_class_sweep,
    hereditary_closure_oracle,
    topology_seeds,
)
from .ttf import is_split, jans_roundtrip, recollement_data, recollement_shadows, ttf_from_ideal

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_REFUSED = 2
EXIT_USAGE = 64
EXIT_BAD_INPUT = 65
EXIT_SOFTWARE = 70

# anchor -> engine operation implementing the statement it verifies
ANCHORS = {
    "axioms:preadditive-category": "category.validate",
    "axioms:linear-topology": "torsion.check_topology",
    "bijection:gabriel-topologies-torsion": "torsion.gabriel_roundtrip",
    "census:topologies-vs-hereditary-classes": "torsion.hereditary_closure_oracle",
    "bijection:jans-idempotent-ttf": "ttf.jans_roundtrip",
    "bijection:central-idempotents-split-ttf": "ttf.is_split",
    "bijection:summands-central-idempotents": "center.summand_bijection_check",
    "structure:recollement-shadows": "ttf.recollement_shadows",
    "structure:trace-of-projectives": "ideals.is_trace_of_projectives",
    "lattice:two-sided-ideals": "ideals.enumerate_ideals",
    "lattice:idempotent-ideals": "ideals.enumerate_idempotent_ideals",
    "invariant:center-dimension": "center.compute_center",
    "invariant:finite-type-basis": "torsion.has_fg_basis",
    "construction:additive-closure": "completion.additive_closure",
    "construction:idempotent-completion": "completion.idempotent_completion",
    "construction:oplus-generator": "completion.find_oplus_generator",
    "refusal:vector-cap": "linalg.check_vector_cap",
    "refusal:closure-object-cap": "completion.AdditiveClosure",
    "refusal:envelope-object-cap": "completion.check_envelope_objects",
}


class Report:
    def __init__(self, command: str, cat: FinCat, parameters: dict):
        self.command = command
        self.category_hash = cat_hash(cat)
        self.parameters = parameters
        self.findings = []
        self.emitted = None  # the category `complete` emits, if any
        self.started = time.monotonic()

    def add(self, statement_id: str, anchor: str, verdict: str, witness=None):
        if anchor not in ANCHORS:
            raise ValueError(f"unknown anchor {anchor}")
        self.findings.append(
            {
                "statement_id": statement_id,
                "paper_anchor": anchor,
                "verdict": verdict,
                "witness": witness,
            }
        )

    def exit_code(self) -> int:
        verdicts = {f["verdict"] for f in self.findings}
        if any(v.startswith("refused") for v in verdicts):
            return EXIT_REFUSED
        if "fail" in verdicts:
            return EXIT_FAIL
        return EXIT_PASS

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "category": self.category_hash,
            "parameters": self.parameters,
            "findings": self.findings,
            "timing": None,
        }
        if self.emitted is not None:
            doc["emitted"] = cat_document(self.emitted)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def human(self) -> str:
        lines = [f"{self.command}  category={self.category_hash}  params={self.parameters}"]
        for f in self.findings:
            w = f" :: {f['witness']}" if f["witness"] is not None else ""
            lines.append(f"  [{f['verdict']:>7}] {f['statement_id']} ({f['paper_anchor']}){w}")
        lines.append(f"  elapsed: {time.monotonic() - self.started:.2f}s")
        return "\n".join(lines)


def load_category(source: str, p: int | None):
    if source.startswith("catalog:"):
        cat = catalog(source[len("catalog:"):], p)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            cat = cat_from_json(fh.read())
        if p is not None and p != cat.p:
            raise ValueError(f"--p {p} conflicts with the prime {cat.p} of {source}")
    violations = validate(cat)
    return cat, violations


def cmd_validate(cat, args, report):
    report.add("category-axioms", "axioms:preadditive-category", "pass", "no violations")
    return report


def cmd_complete(cat, args, report):
    if args.idempotents:
        out = idempotent_completion(cat, args.bound).cat
        report.add(
            "idempotent-completion-validates",
            "construction:idempotent-completion",
            "pass" if not validate(out) else "fail",
            {"objects": len(out.objects)},
        )
    else:
        out = additive_closure(cat, args.bound).cat
        report.add(
            "additive-closure-validates",
            "construction:additive-closure",
            "pass" if not validate(out) else "fail",
            {"objects": len(out.objects)},
        )
    gen = find_oplus_generator(cat, args.bound)
    report.add(
        "oplus-generator-search",
        "construction:oplus-generator",
        "pass",
        {"generator": list(gen) if gen is not None else None},
    )
    report.emitted = out
    return report


def cmd_ideals(cat, args, report):
    ideals = enumerate_idempotent_ideals(cat) if args.idempotent else enumerate_ideals(cat)
    anchor = "lattice:idempotent-ideals" if args.idempotent else "lattice:two-sided-ideals"
    sound = all(i.validate() == [] for i in ideals)
    report.add(
        "ideal-enumeration",
        anchor,
        "pass" if sound else "fail",
        {"count": len(ideals), "dims": [i.total_dim() for i in ideals]},
    )
    if args.idempotent:
        witnesses = [
            is_trace_of_projectives(cat, i, args.bound) is not None for i in ideals
        ]
        report.add(
            "trace-of-projectives-witnesses",
            "structure:trace-of-projectives",
            "pass",
            {"witnessed": witnesses, "bound": args.bound},
        )
    return report


def torsion_fingerprints(cat, topos, census_bound) -> tuple:
    """(count, verdict) for the census fingerprints of the hereditary torsion
    classes closed from each topology's seeds.  It passes when the map from
    topologies to fingerprints is injective (as many fingerprints as
    topologies) and onto the classes that the axiom-free sweep finds."""
    fps = {
        hereditary_closure_oracle(cat, topology_seeds(topo), census_bound).census_fingerprint
        for topo in topos
    }
    bijective = len(fps) == len(topos) and fps == set(hereditary_class_sweep(cat, census_bound))
    return len(fps), "pass" if bijective else "fail"


def cmd_gabriel(cat, args, report):
    topos = enumerate_topologies(cat)
    report.add(
        "topology-axioms",
        "axioms:linear-topology",
        "pass",
        {"topologies": len(topos), "sizes": [t.size() for t in topos]},
    )
    roundtrips = [gabriel_roundtrip(t) for t in topos]
    report.add(
        "gabriel-roundtrip",
        "bijection:gabriel-topologies-torsion",
        "pass" if all(roundtrips) else "fail",
        {"roundtrip": roundtrips},
    )
    report.add(
        "finite-type-basis",
        "invariant:finite-type-basis",
        "pass" if all(has_fg_basis(t) for t in topos) else "fail",
    )
    if args.census:
        n_fps, verdict = torsion_fingerprints(cat, topos, args.census)
        report.add(
            "topology-census-equality",
            "census:topologies-vs-hereditary-classes",
            verdict,
            {"topologies": len(topos), "torsion_fingerprints": n_fps, "collisions": n_fps != len(topos)},
        )
    return report


def cmd_jans(cat, args, report):
    rep = jans_roundtrip(cat, args.dim)
    report.add(
        "jans-roundtrip",
        "bijection:jans-idempotent-ttf",
        "pass" if rep["pass"] else "fail",
        {"idempotent_ideals": rep["idempotent_ideals"], "roundtrips": rep["roundtrips"]},
    )
    return report


def split_check(cat, ideals, census_bound):
    """(split flags, central idempotent count, verdict) over the idempotent
    ideals: it passes when every ideal's split criteria agree on the census
    up to census_bound, its class formulas hold, and the split count equals
    the central idempotent count."""
    split_flags = []
    agree = True
    for ideal in ideals:
        rep = is_split(cat, ttf_from_ideal(cat, ideal), census_bound)
        split_flags.append(rep["split"])
        agree = agree and rep["agree"] and rep.get("class_formulas", True)
    n_central = len(central_idempotent_ideals(cat))
    return split_flags, n_central, "pass" if agree and sum(split_flags) == n_central else "fail"


def cmd_split(cat, args, report):
    split_flags, n_central, verdict = split_check(cat, enumerate_idempotent_ideals(cat), args.dim)
    report.add(
        "split-three-way-agreement",
        "bijection:central-idempotents-split-ttf",
        verdict,
        {"split": split_flags, "central_idempotents": n_central},
    )
    return report


def cmd_center(cat, args, report):
    z = compute_center(cat)
    report.add("center-dimension", "invariant:center-dimension", "pass", {"dim": z.dim})
    if args.idempotents:
        idems = center_idempotents(z)
        report.add(
            "center-idempotents",
            "bijection:central-idempotents-split-ttf",
            "pass",
            {"count": len(idems), "coords": [list(c) for c, _ in idems]},
        )
    if args.summands:
        rep = summand_bijection_check(cat)
        report.add(
            "summand-bijection",
            "bijection:summands-central-idempotents",
            "pass" if rep["pass"] else "fail",
            rep,
        )
    return report


class UsageError(Exception):
    """A flag the parser refuses, or a value that the loaded category cannot
    take (exit 64)."""


def _select_ideals(cat, selector: str):
    """(index, ideal) for the idempotent ideals that --ideal selects."""
    ideals = list(enumerate(enumerate_idempotent_ideals(cat)))
    if selector == "all":
        return ideals
    if not (selector.isdecimal() and int(selector) < len(ideals)):
        raise UsageError(f"--ideal {selector!r} is neither 'all' nor an index 0..{len(ideals) - 1}")
    return [ideals[int(selector)]]


def recollement_check(cat, ideal, bound, census_bound):
    """(datum, shadows) for an idempotent ideal: its recollement datum and
    that datum's shadows on the census up to census_bound, or None when no
    idempotent witnesses the ideal as a trace of projectives within the
    tuple bound."""
    if is_trace_of_projectives(cat, ideal, bound) is None:
        return None
    data = recollement_data(cat, ideal, bound)
    return data, recollement_shadows(data, census_bound)


def cmd_recollement(cat, args, report):
    for n, ideal in _select_ideals(cat, args.ideal):
        checked = recollement_check(cat, ideal, args.bound, args.dim)
        if checked is None:
            report.add(
                f"recollement-{n}",
                "structure:recollement-shadows",
                f"refused(bound={args.bound})",
                "no idempotent witness at this bound; the ideal must be a"
                " trace of finitely generated projective modules",
            )
            continue
        _, rep = checked
        report.add(
            f"recollement-{n}",
            "structure:recollement-shadows",
            "pass" if rep["pass"] else "fail",
            rep,
        )
    return report


def lattice_verdict(cat: FinCat, ideals, required=()) -> str:
    """'pass' when the ideals validate, are pairwise distinct, include the
    zero and unit ideals and every `required` one, and are closed under
    sums: necessary conditions for the list of all ideals, and for the list
    of idempotent ones, since (I + J)^2 contains I^2 + J^2.  With the
    principal ideals required they are also sufficient for the list of all
    ideals, since every ideal is a sum of principal ones."""
    keys = {i.key() for i in ideals}
    ok = (
        len(keys) == len(ideals)
        and all(i.validate() == [] for i in ideals)
        and {zero_ideal(cat).key(), unit_ideal(cat).key()} <= keys
        and all(i.key() in keys for i in required)
        and all(i.sum(j).key() in keys for n, i in enumerate(ideals) for j in ideals[n + 1:])
    )
    return "pass" if ok else "fail"


def cmd_census(cat, args, report):
    """One aggregated classification census for a category."""
    ideals = enumerate_ideals(cat)
    idem = [i for i in ideals if is_idempotent(i)]
    report.add("ideal-count", "lattice:two-sided-ideals",
               lattice_verdict(cat, ideals, principal_ideals(cat)), {"count": len(ideals)})
    report.add("idempotent-ideal-count", "lattice:idempotent-ideals", lattice_verdict(cat, idem),
               {"count": len(idem)})
    topos = enumerate_topologies(cat)
    roundtrips = [gabriel_roundtrip(t) for t in topos]
    report.add(
        "topology-count",
        "bijection:gabriel-topologies-torsion",
        "pass" if all(roundtrips) else "fail",
        {"count": len(topos)},
    )
    n_fps, verdict = torsion_fingerprints(cat, topos, args.dim)
    report.add(
        "torsion-fingerprints",
        "census:topologies-vs-hereditary-classes",
        verdict,
        {"count": n_fps},
    )
    jrep = jans_roundtrip(cat, args.dim)
    # every Serre class is the TTF class of A.e.A here, so Gabriel's
    # bijection restricts onto Jans's: as many idempotent ideals as topologies
    report.add(
        "ttf-roundtrips",
        "bijection:jans-idempotent-ttf",
        "pass" if jrep["pass"] and jrep["idempotent_ideals"] == len(topos) else "fail",
        {"count": jrep["idempotent_ideals"]},
    )
    split_flags, _, verdict = split_check(cat, idem, args.dim)
    report.add(
        "split-ttf-count",
        "bijection:central-idempotents-split-ttf",
        verdict,
        {"count": sum(split_flags)},
    )
    # a bijection onto the recollements: every idempotent ideal witnessed,
    # the shadows of each passing, and the kernels Ker j^* pairwise distinct
    # (each datum is dropped once read: its quotient category keeps a memo)
    shadows_pass = True
    kernels = []
    for ideal in idem:
        checked = recollement_check(cat, ideal, args.bound, args.dim)
        if checked is not None:
            data, rep = checked
            shadows_pass = shadows_pass and rep["pass"]
            kernels.append(data.corner_kernel(args.dim))
    bijective = len(kernels) == len(idem) and len(set(kernels)) == len(kernels)
    report.add(
        "recollement-shadows",
        "structure:recollement-shadows",
        "pass" if shadows_pass and bijective else "fail",
        {"witnessed_ideals": len(kernels)},
    )
    return report


COMMANDS = {
    "validate": cmd_validate,
    "complete": cmd_complete,
    "ideals": cmd_ideals,
    "gabriel": cmd_gabriel,
    "jans": cmd_jans,
    "split": cmd_split,
    "center": cmd_center,
    "recollement": cmd_recollement,
    "census": cmd_census,
}


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with UsageError instead of printing its
    usage text and exiting; --help still prints and exits 0."""

    def error(self, message):
        raise UsageError(" ".join(message.splitlines()))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ringoid",
        description="exact classification checks for finite F_p-linear categories",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("source", help="category JSON file or catalog:<name>, e.g. catalog:a2cat")
    parser.add_argument("--p", type=int, default=None, help="prime for catalog names; a JSON source's own p if given")
    parser.add_argument("--bound", type=_int_at_least(1), default=3,
                        help="tuple length bound for completions")
    parser.add_argument("--dim", type=_int_at_least(0), default=4, help="module census total dimension bound")
    parser.add_argument("--census", type=_int_at_least(0), default=0,
                        help="gabriel: census dimension (0 = skip)")
    parser.add_argument("--json", action="store_true", help="emit the machine-readable report")
    parser.add_argument("--seed", type=int, default=0, help="reserved; all runs are deterministic")
    parser.add_argument("--idempotent", action="store_true", help="ideals: restrict to idempotent ones")
    parser.add_argument("--idempotents", action="store_true", help="complete/center: include idempotent data")
    parser.add_argument("--summands", action="store_true", help="center: check the summand bijection")
    parser.add_argument("--ideal", default="all", help="recollement: idempotent ideal index or 'all'")
    return parser


def main(argv=None) -> int:
    try:
        return _run(argv)
    except Exception as e:
        # a broken invariant is a bug in ringoid, reported in one line
        message = " ".join(str(e).splitlines())
        print(f"ringoid: internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return EXIT_SOFTWARE
    finally:
        # memo entries point back at their category, so only the cyclic
        # collector frees a finished command's derived structures
        gc.collect()


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:  # --help; every refusal raises UsageError
        return 0
    except UsageError as e:
        print(f"ringoid: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cap = vector_cap()
    except ValueError as e:
        print(f"ringoid: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cat, violations = load_category(args.source, args.p)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as e:
        # str() of a KeyError is the repr of its message, quotes included
        print(f"cannot load category: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    params = {
        "source": args.source,
        "p": cat.p,
        "bound": args.bound,
        "dim": args.dim,
        "cap": cap,
        "seed": args.seed,
    }
    report = Report(args.command, cat, params)
    if violations:
        for v in violations[:20]:
            report.add("category-axioms", "axioms:preadditive-category", "fail", v)
        print(report.to_json() if args.json else report.human())
        return EXIT_BAD_INPUT
    try:
        report = COMMANDS[args.command](cat, args, report)
    except CapExceeded as e:
        anchor = {CLOSURE_OBJECTS: "refusal:closure-object-cap",
                  ENVELOPE_OBJECTS: "refusal:envelope-object-cap"}.get(e.operation, "refusal:vector-cap")
        report.add(args.command, anchor, f"refused(cap): {e}",
                   {"operation": e.operation, "needed": e.needed, "cap": e.cap})
        print(report.to_json() if args.json else report.human())
        return EXIT_REFUSED
    except UsageError as e:
        print(f"ringoid: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(report.to_json())
    else:
        if report.emitted is not None:
            print(cat_to_json(report.emitted))
        print(report.human())
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
