"""Output checks for the benchmark workloads.

Every expected value here is derived by hand from the algebra's structure or
computed by this file's own brute force; nothing is compared against a saved
copy of the program's output, and nothing here imports ringoid.  Each check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools

# Catalog categories at p = 3: (two-sided ideals, idempotent ideals, simple
# modules, blocks).
#   pt    F_p: ideals 0 and F_p, both idempotent; one simple, one block.
#   dual  F_p[x]/(x^2): ideals 0, (x), the ring; (x)^2 = 0, so two are
#         idempotent; local, so one simple and one block.
#   prod  F_p x F_p: ideals are the four products of 0/F_p; all idempotent;
#         two simples, two blocks.
#   mat2  M_2(F_p) is simple: two ideals, both idempotent; one simple (the
#         column module), one block.
#   a2    upper triangular 2x2: 0, J = F e12, A e11 A = F e11 + J,
#         A e22 A = F e22 + J, and A; J^2 = 0, the rest are idempotent; two
#         simples, connected by the arrow e12, so one block.
#   a2cat the arrow category 1 -> 2, whose endomorphism algebra is a2.
CENSUS_P3 = {
    "pt": (2, 2, 1, 1),
    "dual": (3, 2, 1, 1),
    "prod": (4, 4, 2, 2),
    "mat2": (2, 2, 1, 1),
    "a2": (5, 4, 2, 1),
    "a2cat": (5, 4, 2, 1),
}


def _witnesses(report: dict) -> dict:
    return {f["statement_id"]: f for f in report["findings"]}


def check_census(name: str, p: int, report: dict) -> list:
    """A `census --json` report of catalog category `name` at prime `p`."""
    ideals, idem, simples, blocks = CENSUS_P3[name]
    problems = []
    if report["parameters"]["p"] != p:
        problems.append(f"{name}: report is for p={report['parameters']['p']}, not {p}")
    found = _witnesses(report)
    expected = {
        "ideal-count": ("count", ideals),
        "idempotent-ideal-count": ("count", idem),
        "topology-count": ("count", 2 ** simples),
        "torsion-fingerprints": ("count", 2 ** simples),
        "ttf-roundtrips": ("count", idem),
        "split-ttf-count": ("count", 2 ** blocks),
        "recollement-shadows": ("witnessed_ideals", idem),
    }
    for statement, (key, want) in expected.items():
        f = found.get(statement)
        if f is None:
            problems.append(f"{name}: no {statement} finding")
            continue
        if f["verdict"] != "pass":
            problems.append(f"{name}: {statement} verdict {f['verdict']}")
        got = (f["witness"] or {}).get(key)
        if got != want:
            problems.append(f"{name}: {statement} {key}={got}, expected {want}")
    return problems


def check_gabriel(report: dict, vertices: int) -> list:
    """`gabriel --census --json` on a connected quiver algebra whose Serre
    subcategories are the 2^vertices subsets of its simples."""
    want = 2 ** vertices
    found = _witnesses(report)
    problems = [
        f"gabriel: {f['statement_id']} verdict {f['verdict']}"
        for f in report["findings"] if f["verdict"] != "pass"
    ]
    axioms = found["topology-axioms"]["witness"]
    if axioms["topologies"] != want:
        problems.append(f"gabriel: {axioms['topologies']} topologies, expected {want}")
    roundtrip = found["gabriel-roundtrip"]["witness"]["roundtrip"]
    if len(roundtrip) != want or not all(roundtrip):
        problems.append(f"gabriel: roundtrips {roundtrip}, expected {want} x true")
    census = found["topology-census-equality"]["witness"]
    if census["torsion_fingerprints"] != want or census["collisions"]:
        problems.append(f"gabriel: census {census}, expected {want} fingerprints")
    return problems


def check_sweep(fingerprints, vertices: int) -> list:
    """`hereditary_class_sweep` result: one fingerprint per Serre subcategory."""
    want = 2 ** vertices
    distinct = {frozenset(f) for f in fingerprints}
    if len(fingerprints) != want or len(distinct) != want:
        return [f"sweep: {len(fingerprints)} fingerprints ({len(distinct)} distinct), expected {want}"]
    return []


# --- dual numbers F_p[e]/(e^2): elements are pairs (a, b) = a + b e --------


def _dmul(x, y, p):
    return ((x[0] * y[0]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def _dadd(x, y, p):
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def _matmul(x, y, p):
    """Matrices over the dual numbers as tuples of rows."""
    n, k, m = len(x), len(y), len(y[0]) if y else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = (0, 0)
            for t in range(k):
                acc = _dadd(acc, _dmul(x[i][t], y[t][j], p), p)
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _all_matrices(n: int, m: int, p: int):
    elems = [(a, b) for a in range(p) for b in range(p)]
    for flat in itertools.product(elems, repeat=n * m):
        yield tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))


def dual_idempotents(n: int, p: int) -> list:
    """Idempotent n x n matrices over F_p[e]/(e^2), by exhaustive search."""
    return [x for x in _all_matrices(n, n, p) if _matmul(x, x, p) == x]


def _rank_mod_p(vectors, p: int) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dual_karoubi_shape(bound: int, p: int):
    """Objects per tuple length and total hom dimension of the Karoubi
    envelope of the additive closure (tuples up to `bound`) of F_p[e]/(e^2).

    An object is an idempotent e of M_n(R); Hom((n, e), (m, f)) is f M e for
    M in the m x n matrices, whose F_p-dimension is the rank of X -> f X e.
    """
    idems = {n: dual_idempotents(n, p) for n in range(bound + 1)}
    total = 0
    for n, es in idems.items():
        for m, fs in idems.items():
            if n == 0 or m == 0:
                continue
            units = []
            for pos in range(m * n):
                for part in ((1, 0), (0, 1)):
                    flat = [(0, 0)] * (m * n)
                    flat[pos] = part
                    units.append(tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(m)))
            for e in es:
                for f in fs:
                    images = [_matmul(_matmul(f, x, p), e, p) for x in units]
                    vecs = [tuple(c for row in y for entry in row for c in entry) for y in images]
                    total += _rank_mod_p(vecs, p)
    return {n: len(es) for n, es in idems.items()}, total


def _compose(doc, a, b, c, f, g):
    """Coordinates of g . f for f in A(a, b), g in A(b, c), from the table."""
    p = doc["p"]
    dc = doc["hom"].get(f"{a}|{c}", 0)
    out = [0] * dc
    if dc == 0:
        return out
    table = doc["comp"][f"{a}|{b}|{c}"]
    for i, fi in enumerate(f):
        if not fi:
            continue
        for j, gj in enumerate(g):
            if not gj:
                continue
            for k, v in enumerate(table[i][j]):
                out[k] = (out[k] + fi * gj * v) % p
    return out


def _unit(n, i):
    return [1 if k == i else 0 for k in range(n)]


def check_category_axioms(doc: dict, rng, samples: int) -> list:
    """Identity laws on every basis element, and associativity on every basis
    triple when there are at most `samples` of them, else on `samples` triples
    drawn with `rng`, of a category in the JSON interchange format."""
    objects = doc["objects"]
    hom = {tuple(k.split("|")): d for k, d in doc["hom"].items() if d}
    problems = []
    for (a, b), d in sorted(hom.items()):
        for i in range(d):
            f = _unit(d, i)
            left = _compose(doc, a, b, b, f, doc["id"][b])
            right = _compose(doc, a, a, b, doc["id"][a], f)
            if left != f or right != f:
                problems.append(f"identity law fails on basis {i} of {a}->{b}")
    succ = {a: [b for b in objects if (a, b) in hom] for a in objects}
    chains = sum(
        hom[(b, c)] * sum(hom.get((a, b), 0) for a in objects) * sum(hom.get((c, d), 0) for d in objects)
        for (b, c) in hom
    )
    if chains <= samples:
        triples = (
            (a, b, c, d, i, j, k)
            for a in objects for b in succ[a] for c in succ[b] for d in succ[c]
            for i in range(hom[(a, b)]) for j in range(hom[(b, c)]) for k in range(hom[(c, d)])
        )
    else:
        triples = (_sample_triple(objects, succ, hom, rng) for _ in range(samples))
    for a, b, c, d, i, j, k in triples:
        f, g, h = _unit(hom[(a, b)], i), _unit(hom[(b, c)], j), _unit(hom[(c, d)], k)
        lhs = _compose(doc, a, b, d, f, _compose(doc, b, c, d, g, h))
        rhs = _compose(doc, a, c, d, _compose(doc, a, b, c, f, g), h)
        if lhs != rhs:
            problems.append(f"associativity fails on {a}->{b}->{c}->{d} basis ({i},{j},{k})")
            break
    return problems


def _sample_triple(objects, succ, hom, rng):
    while True:
        a = rng.choice(objects)
        path = [a]
        for _ in range(3):
            if not succ[path[-1]]:
                break
            path.append(rng.choice(succ[path[-1]]))
        if len(path) == 4:
            a, b, c, d = path
            return (a, b, c, d, rng.randrange(hom[(a, b)]),
                    rng.randrange(hom[(b, c)]), rng.randrange(hom[(c, d)]))


def check_karoubi(report: dict, bound: int, p: int, rng, samples: int) -> list:
    """`complete --idempotents --json` on catalog:dual: object counts per
    tuple length and total hom dimension by brute force, then the axioms."""
    per_length, total_hom = dual_karoubi_shape(bound, p)
    doc = report["emitted"]
    problems = [
        f"karoubi: {f['statement_id']} verdict {f['verdict']}"
        for f in report["findings"] if f["verdict"] != "pass"
    ]
    want = sum(per_length.values())
    claimed = _witnesses(report)["idempotent-completion-validates"]["witness"]["objects"]
    if len(doc["objects"]) != want or claimed != want:
        problems.append(f"karoubi: {len(doc['objects'])} objects (report says {claimed}), expected {want}")
    got_lengths = {}
    for obj in doc["objects"]:
        carrier = obj.rsplit("#", 1)[0]
        n = carrier.count(",") + 1 if carrier.strip("()") else 0
        got_lengths[n] = got_lengths.get(n, 0) + 1
    if got_lengths != per_length:
        problems.append(f"karoubi: objects per tuple length {got_lengths}, expected {per_length}")
    got_total = sum(doc["hom"].values())
    if got_total != total_hom:
        problems.append(f"karoubi: total hom dimension {got_total}, expected {total_hom}")
    return problems + check_category_axioms(doc, rng, samples)
