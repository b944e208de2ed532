"""Quiver presentations: a small DSL, and path categories truncated at a length bound.

The DSL is line-oriented with ';'-terminated statements::

    vertices 1 2 ;
    arrow a: 1 -> 2 ;
    arrow b: 2 -> 1 ;
    relation a*b + 2*a*b ;
    field 3 ;
    maxlen 4 ;

A relation polynomial is ``c1*w1 + c2*w2 + ...`` where each word is a
'*'-separated sequence of arrow names composed left-to-right (``a*b`` means
first traverse a, then b), and an integer coefficient is optional.  All words
of one relation must share the same endpoints.

``parse_quiver_dsl`` is the one validator: every refusal is a
``QuiverSyntaxError`` at the offending token, and a spec it returns is well
formed, with each relation's endpoints recorded.

``path_category`` interprets a spec as the category with hom spaces spanned
by paths of length <= maxlen, modulo the two-sided ideal generated by the
relations together with every longer path.  There is no completion to a
Groebner basis: the truncation bound is explicit and part of the input.
"""

from __future__ import annotations

from .category import FinCat
from .linalg import Subspace, check_prime, check_vector_cap, complement_data


class QuiverSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class QuiverSpec:
    """A parsed presentation; ``parse_quiver_dsl`` has checked all of it."""

    def __init__(self, vertices, arrows, relations, p, maxlen):
        self.vertices = tuple(vertices)
        self.arrows = dict(arrows)  # name -> (source, target)
        self.relations = list(relations)  # [((x, y), ((coeff, word tuple), ...)), ...]
        self.p = p
        self.maxlen = maxlen


_TOKENS = ("vertices", "arrow", "relation", "field", "maxlen")
_PUNCTUATION = (";", ":", "+", "*", "->")


def _tokenize(text):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in ";:+*":
            tokens.append((ch, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", line, col))
            i += 2
            col += 2
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise QuiverSyntaxError(f"unexpected character {ch!r}", line, col)
    return tokens


def _number(tok, line, col, what):
    """A decimal literal: str.isdecimal, since isdigit also passes '²', which int() refuses."""
    if not tok.isdecimal():
        raise QuiverSyntaxError(f"{what}, found {tok!r}", line, col)
    try:
        return int(tok)
    except ValueError as e:  # more digits than int() converts
        raise QuiverSyntaxError(str(e), line, col) from None


def parse_quiver_dsl(text: str) -> QuiverSpec:
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, -1, -1)

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1] if tokens else ("", 1, 1)
            raise QuiverSyntaxError("unexpected end of input", last[1], last[2])
        tok, line, col = tokens[pos]
        if expected is not None and tok != expected:
            raise QuiverSyntaxError(f"expected {expected!r}, found {tok!r}", line, col)
        pos += 1
        return tok, line, col

    vertices = []
    arrows = {}
    raw_relations = []  # ((x, y), [(coeff, word), ...]), reduced mod p at the end
    p = None
    maxlen = None

    while pos < len(tokens):
        tok, line, col = take()
        if tok == "vertices":
            while peek()[0] != ";":
                v, vl, vc = take()
                if v in _TOKENS or v in _PUNCTUATION:
                    raise QuiverSyntaxError(f"bad vertex id {v!r}", vl, vc)
                if v in vertices:
                    raise QuiverSyntaxError(f"duplicate vertex {v!r}", vl, vc)
                vertices.append(v)
            take(";")
        elif tok == "arrow":
            name, nl, nc = take()
            # a decimal name would read as a relation coefficient
            if name in _TOKENS or name in _PUNCTUATION or name.isdecimal():
                raise QuiverSyntaxError(f"bad arrow name {name!r}", nl, nc)
            take(":")
            src, sl, sc = take()
            take("->")
            tgt, tl, tc = take()
            take(";")
            if name in arrows:
                raise QuiverSyntaxError(f"duplicate arrow {name!r}", nl, nc)
            if src not in vertices:
                raise QuiverSyntaxError(f"undeclared vertex {src!r}", sl, sc)
            if tgt not in vertices:
                raise QuiverSyntaxError(f"undeclared vertex {tgt!r}", tl, tc)
            arrows[name] = (src, tgt)
        elif tok == "relation":
            terms = []
            ends = set()
            while True:
                factors = []
                while True:
                    f, fl, fc = take()
                    factors.append((f, fl, fc))
                    if peek()[0] != "*":
                        break
                    take("*")
                coeff = 1
                if factors[0][0].isdecimal():
                    coeff = _number(*factors[0], "a coefficient")
                    factors = factors[1:]
                if not factors:
                    raise QuiverSyntaxError("relation term has no arrows", fl, fc)
                word = tuple(f for f, _, _ in factors)
                at = None
                for f, fl, fc in factors:
                    if f not in arrows:
                        raise QuiverSyntaxError(f"undeclared arrow {f!r}", fl, fc)
                    s, t = arrows[f]
                    if at is not None and s != at:
                        raise QuiverSyntaxError(f"word {'*'.join(word)} is not composable at {f!r}", fl, fc)
                    at = t
                terms.append((coeff, word))
                ends.add((arrows[word[0]][0], at))
                if peek()[0] == "+":
                    take("+")
                    continue
                break
            take(";")
            if len(ends) != 1:
                raise QuiverSyntaxError("relation terms have mismatched endpoints", line, col)
            raw_relations.append((ends.pop(), terms))
        elif tok == "field":
            v, vl, vc = take()
            take(";")
            p = _number(v, vl, vc, "field wants a prime")
            try:
                check_prime(p)
            except ValueError as e:
                raise QuiverSyntaxError(str(e), vl, vc) from None
        elif tok == "maxlen":
            v, vl, vc = take()
            take(";")
            maxlen = _number(v, vl, vc, "maxlen wants a number")
        else:
            raise QuiverSyntaxError(f"unknown statement {tok!r}", line, col)

    if p is None:
        raise QuiverSyntaxError("missing 'field p;' statement", 1, 1)
    if maxlen is None:
        raise QuiverSyntaxError("missing 'maxlen n;' statement", 1, 1)

    relations = [(ends, tuple((c % p, w) for c, w in terms)) for ends, terms in raw_relations]
    return QuiverSpec(vertices, arrows, relations, p, maxlen)


def _enumerate_paths(spec: QuiverSpec):
    """Paths grouped by endpoints, ordered by (length, lexicographic arrows).

    Refuses as soon as the number of paths listed passes the vector cap.
    """
    by_pair = {(a, b): [] for a in spec.vertices for b in spec.vertices}
    for v in spec.vertices:
        by_pair[(v, v)].append(())
    count = len(spec.vertices)
    check_vector_cap(count, "path_category: paths of length <= maxlen")
    frontier = [((), v, v) for v in spec.vertices]
    arrow_names = sorted(spec.arrows)
    for _ in range(spec.maxlen):
        nxt = []
        for word, src, at in frontier:
            for name in arrow_names:
                s, t = spec.arrows[name]
                if s == at:
                    w = word + (name,)
                    by_pair[(src, t)].append(w)
                    nxt.append((w, src, t))
                    count += 1
                    check_vector_cap(count, "path_category: paths of length <= maxlen")
        if not nxt:
            break
        frontier = nxt
    return by_pair


def _padded_relations(spec: QuiverSpec, paths):
    """(endpoints, terms) for every relation padded on both sides by paths.

    A padding that leaves every term longer than maxlen truncates to the zero
    vector, so it is skipped; paths are listed by length, so each loop stops
    at its first such path.
    """
    for (x, y), rel in spec.relations:
        room = spec.maxlen - min(len(w) for _, w in rel)
        for c_src in spec.vertices:
            for left in paths[(c_src, x)]:
                if len(left) > room:
                    break
                for d_tgt in spec.vertices:
                    for right in paths[(y, d_tgt)]:
                        if len(left) + len(right) > room:
                            break
                        yield (c_src, d_tgt), [(c, left + w + right) for c, w in rel]


def path_category(spec: QuiverSpec) -> FinCat:
    """The truncated path category of a quiver presentation.

    Objects are the vertices; A(a, b) is the span of paths a -> b of length
    at most maxlen, modulo the subspace cut out by the relations (padded on
    both sides by arbitrary paths, with overlong terms dropped).  The basis of
    A(a, b) is the paths where the lift of ``complement_data`` has its units,
    and a path's coordinates are its column of the projection.
    """
    paths = _enumerate_paths(spec)
    index = {pair: {w: i for i, w in enumerate(plist)} for pair, plist in paths.items()}
    p = spec.p

    rel_vectors = {pair: [] for pair in paths}
    for pair, terms in _padded_relations(spec, paths):
        vec = [0] * len(paths[pair])
        for coeff, word in terms:
            if len(word) <= spec.maxlen:
                j = index[pair][word]
                vec[j] = (vec[j] + coeff) % p
        if any(vec):
            rel_vectors[pair].append(vec)

    proj = {}
    basis_paths = {}
    for pair, plist in paths.items():
        proj[pair], lift = complement_data(Subspace.from_vectors(p, len(plist), rel_vectors[pair]))
        basis_paths[pair] = [w for w, row in zip(plist, lift.entries) if 1 in row]

    hom = {pair: len(bp) for pair, bp in basis_paths.items()}
    vs = spec.vertices
    largest = max((hom[(a, b)] * hom[(b, c)] * hom[(a, c)] for a in vs for b in vs for c in vs), default=0)
    check_vector_cap(largest, "path_category: entries of the largest composition table")
    comp = {}
    for a in vs:
        for b in vs:
            for c in vs:
                if hom[(a, b)] == 0 or hom[(b, c)] == 0 or hom[(a, c)] == 0:
                    continue
                pr, at, zero = proj[(a, c)], index[(a, c)], (0,) * hom[(a, c)]
                comp[(a, b, c)] = tuple(
                    tuple(pr.col(at[w1 + w2]) if w1 + w2 in at else zero for w2 in basis_paths[(b, c)])
                    for w1 in basis_paths[(a, b)]
                )
    ids = {v: proj[(v, v)].col(index[(v, v)][()]) for v in vs}
    return FinCat(p, vs, hom, comp, ids, name="path-category")
