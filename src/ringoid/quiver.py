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

``path_category`` interprets a spec as the category with hom spaces spanned
by paths of length <= maxlen, modulo the two-sided ideal generated by the
relations together with every longer path.  There is no completion to a
Groebner basis: the truncation bound is explicit and part of the input.
"""

from __future__ import annotations

from .category import FinCat
from .linalg import Subspace, check_prime, check_vector_cap


class QuiverSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class QuiverSpec:
    def __init__(self, vertices, arrows, relations, p, maxlen):
        self.vertices = tuple(vertices)
        self.arrows = dict(arrows)  # name -> (source, target)
        self.relations = [tuple(rel) for rel in relations]  # [(coeff, word tuple), ...]
        self.p = p
        self.maxlen = maxlen
        check_prime(p)
        if maxlen < 0:
            raise ValueError("maxlen must be non-negative")
        for name, (s, t) in self.arrows.items():
            if s not in self.vertices or t not in self.vertices:
                raise ValueError(f"arrow {name} uses an undeclared vertex")
        for rel in self.relations:
            self._relation_endpoints(rel)

    def word_endpoints(self, word):
        if not word:
            raise ValueError("empty word in relation")
        src = self.arrows[word[0]][0]
        at = src
        for name in word:
            s, t = self.arrows[name]
            if s != at:
                raise ValueError(f"word {'*'.join(word)} is not composable at {name}")
            at = t
        return src, at

    def _relation_endpoints(self, rel):
        ends = {self.word_endpoints(w) for _, w in rel}
        if len(ends) != 1:
            raise ValueError("relation terms have mismatched endpoints")
        return ends.pop()


_TOKENS = ("vertices", "arrow", "relation", "field", "maxlen")


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
    raw_relations = []  # (terms, line, col) resolved after all arrows are known
    p = None
    maxlen = None

    while pos < len(tokens):
        tok, line, col = take()
        if tok == "vertices":
            while peek()[0] != ";":
                v, vl, vc = take()
                if v in _TOKENS or v in (":", "+", "*", "->"):
                    raise QuiverSyntaxError(f"bad vertex id {v!r}", vl, vc)
                vertices.append(v)
            take(";")
        elif tok == "arrow":
            name, nl, nc = take()
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
            while True:
                factors = []
                while True:
                    f, fl, fc = take()
                    factors.append((f, fl, fc))
                    if peek()[0] != "*":
                        break
                    take("*")
                coeff = 1
                if factors[0][0].isdigit() and (len(factors) > 1 or factors[0][0] not in arrows):
                    coeff = int(factors[0][0])
                    factors = factors[1:]
                if not factors:
                    raise QuiverSyntaxError("relation term has no arrows", fl, fc)
                word = []
                for f, fl, fc in factors:
                    if f not in arrows:
                        raise QuiverSyntaxError(f"undeclared arrow {f!r}", fl, fc)
                    word.append(f)
                at = arrows[word[0]][0]
                for f in word:
                    s, t = arrows[f]
                    if s != at:
                        raise QuiverSyntaxError(
                            f"word {'*'.join(word)} is not composable at {f!r}", fl, fc
                        )
                    at = t
                terms.append((coeff, tuple(word), arrows[word[0]][0], at))
                if peek()[0] == "+":
                    take("+")
                    continue
                break
            take(";")
            ends = {(s, t) for _, _, s, t in terms}
            if len(ends) != 1:
                raise QuiverSyntaxError("relation terms have mismatched endpoints", line, col)
            raw_relations.append((terms, line, col))
        elif tok == "field":
            v, vl, vc = take()
            take(";")
            if not v.isdigit():
                raise QuiverSyntaxError(f"field wants a prime, found {v!r}", vl, vc)
            p = int(v)
        elif tok == "maxlen":
            v, vl, vc = take()
            take(";")
            if not v.isdigit():
                raise QuiverSyntaxError(f"maxlen wants a number, found {v!r}", vl, vc)
            maxlen = int(v)
        else:
            raise QuiverSyntaxError(f"unknown statement {tok!r}", line, col)

    if p is None:
        raise QuiverSyntaxError("missing 'field p;' statement", 1, 1)
    if maxlen is None:
        raise QuiverSyntaxError("missing 'maxlen n;' statement", 1, 1)

    relations = [[(c % p, w) for c, w, _, _ in terms] for terms, _, _ in raw_relations]

    try:
        return QuiverSpec(vertices, arrows, relations, p, maxlen)
    except ValueError as e:
        raise QuiverSyntaxError(str(e), 1, 1)


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
    for rel in spec.relations:
        x, y = spec.word_endpoints(rel[0][1])
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
    both sides by arbitrary paths, with overlong terms dropped).
    """
    paths = _enumerate_paths(spec)
    index = {}
    for pair, plist in paths.items():
        index[pair] = {w: i for i, w in enumerate(plist)}

    p = spec.p

    def truncated_vector(pair, terms):
        """Indicator combination of paths, dropping words longer than maxlen."""
        vec = [0] * len(paths[pair])
        for coeff, word in terms:
            if len(word) <= spec.maxlen:
                vec[index[pair][word]] = (vec[index[pair][word]] + coeff) % p
        return vec

    rel_vectors = {pair: [] for pair in paths}
    for pair, terms in _padded_relations(spec, paths):
        vec = truncated_vector(pair, terms)
        if any(vec):
            rel_vectors[pair].append(vec)

    rel_space = {}
    proj = {}
    basis_paths = {}
    for pair, plist in paths.items():
        amb = len(plist)
        s = Subspace.from_vectors(p, amb, rel_vectors[pair])
        rel_space[pair] = s
        pivots = [next(j for j, x in enumerate(row) if x != 0) for row in s.mat.entries]
        nonpiv = [j for j in range(amb) if j not in pivots]
        basis_paths[pair] = [plist[j] for j in nonpiv]

        def project(vec, s=s, nonpiv=tuple(nonpiv)):
            r = s.reduce(tuple(vec))
            return tuple(r[j] for j in nonpiv)

        proj[pair] = project

    hom = {pair: len(bp) for pair, bp in basis_paths.items()}
    vs = spec.vertices
    largest = max((hom[(a, b)] * hom[(b, c)] * hom[(a, c)] for a in vs for b in vs for c in vs), default=0)
    check_vector_cap(largest, "path_category: entries of the largest composition table")
    comp = {}
    for a in spec.vertices:
        for b in spec.vertices:
            for c in spec.vertices:
                da, db, dc = hom[(a, b)], hom[(b, c)], hom[(a, c)]
                if da == 0 or db == 0 or dc == 0:
                    continue
                table = []
                for w1 in basis_paths[(a, b)]:
                    row = []
                    for w2 in basis_paths[(b, c)]:
                        row.append(proj[(a, c)](truncated_vector((a, c), [(1, w1 + w2)])))
                    table.append(tuple(row))
                comp[(a, b, c)] = tuple(table)
    ids = {v: proj[(v, v)](truncated_vector((v, v), [(1, ())])) for v in spec.vertices}
    return FinCat(p, spec.vertices, hom, comp, ids, name="path-category")
