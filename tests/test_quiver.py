import random

import pytest

from ringoid import quiver
from ringoid.category import cat_hash, catalog, validate
from ringoid.linalg import CapExceeded
from ringoid.quiver import (
    QuiverSyntaxError,
    parse_quiver_dsl,
    path_category,
)
from reference import cats_equal

A2_TEXT = """
vertices 1 2 ;
arrow a: 1 -> 2 ;
field 2 ;
maxlen 3 ;
"""

SQUARE_ZERO = """
vertices v ;
arrow x: v -> v ;
relation x*x ;
field 2 ;
maxlen 2 ;
"""

CUBE_ZERO = """
vertices v ;
arrow x: v -> v ;
relation x*x*x ;
field 2 ;
maxlen 3 ;
"""

COEFFICIENT = """
vertices 1 ;
arrow s: 1 -> 1 ;
arrow t: 1 -> 1 ;
relation s + 2*t ;
field 3 ;
maxlen 1 ;
"""

KILL_IDENTITY = """
vertices 1 ;
arrow s: 1 -> 1 ;
relation s ;
field 2 ;
maxlen 2 ;
"""


def test_parse_a2():
    spec = parse_quiver_dsl(A2_TEXT)
    assert spec.vertices == ("1", "2")
    assert spec.arrows == {"a": ("1", "2")}
    assert spec.p == 2
    assert spec.maxlen == 3


def test_undeclared_vertex_is_an_error():
    with pytest.raises(QuiverSyntaxError, match="undeclared vertex"):
        parse_quiver_dsl("vertices 1 ; arrow a: 1 -> 9 ; field 2 ; maxlen 1 ;")


def test_noncomposable_relation_is_an_error():
    text = """
    vertices 1 2 ;
    arrow a: 1 -> 2 ;
    relation a*a ;
    field 2 ;
    maxlen 2 ;
    """
    with pytest.raises(QuiverSyntaxError, match="not composable"):
        parse_quiver_dsl(text)


def test_mismatched_relation_endpoints_is_an_error():
    text = """
    vertices 1 2 ;
    arrow a: 1 -> 2 ;
    arrow b: 2 -> 1 ;
    relation a + b ;
    field 2 ;
    maxlen 2 ;
    """
    with pytest.raises(QuiverSyntaxError, match="mismatched endpoints"):
        parse_quiver_dsl(text)


def refusal(text):
    """(message, line, column) of the parser's refusal of text."""
    with pytest.raises(QuiverSyntaxError) as exc:
        parse_quiver_dsl(text)
    return str(exc.value).split(": ", 1)[1], exc.value.line, exc.value.col


def test_field_zero_is_refused_at_its_token():
    # the relation's coefficients are reduced mod p only after p is checked
    text = "vertices 1 ; arrow a: 1 -> 1 ; relation a ; field 0 ; maxlen 1 ;"
    assert refusal(text) == ("modulus 0 is not prime", 1, text.index(" 0 ") + 2)


def test_composite_field_is_refused_at_its_value():
    assert refusal("vertices 1 ;\n  field 4 ; maxlen 1 ;") == ("modulus 4 is not prime", 2, 9)


@pytest.mark.parametrize("text, message", [
    ("field ² ; maxlen 1 ;", "field wants a prime, found '²'"),
    ("field 2 ; maxlen ² ;", "maxlen wants a number, found '²'"),
    ("vertices 1 ; arrow a: 1 -> 1 ; relation ²*a ; field 2 ; maxlen 1 ;", "undeclared arrow '²'"),
])
def test_non_ascii_digits_are_refused_at_their_token(text, message):
    # '²' passes str.isdigit, and int('²') raises a bare ValueError
    assert refusal(text) == (message, 1, text.index("²") + 1)


def test_repeated_vertex_is_refused_at_its_second_token():
    assert refusal("vertices 1 1 ; field 2 ; maxlen 1 ;") == ("duplicate vertex '1'", 1, 12)


def test_noncomposable_word_is_refused_at_the_factor_that_breaks_it():
    text = "vertices 1 2 ; arrow a: 1 -> 2 ; arrow b: 2 -> 1 ; relation a*a*b ; field 2 ; maxlen 3 ;"
    assert refusal(text) == ("word a*a*b is not composable at 'a'", 1, text.index("a*a*b") + 3)


@pytest.mark.parametrize("text, name", [
    ("vertices 1 ; arrow *: 1 -> 1 ; relation * ; field 2 ; maxlen 1 ;", "*"),
    ("vertices 1 ; arrow maxlen: 1 -> 1 ; field 2 ; maxlen 1 ;", "maxlen"),
    ("vertices 1 ; arrow ->: 1 -> 1 ; field 2 ; maxlen 1 ;", "->"),
    ("vertices 1 ; arrow ; field 2 ; maxlen 1 ;", ";"),
    ("vertices 1 ; arrow 2: 1 -> 1 ; relation 2*2 ; field 3 ; maxlen 2 ;", "2"),
])
def test_arrow_name_that_is_a_keyword_punctuation_or_a_number_is_refused_at_its_token(text, name):
    assert refusal(text) == (f"bad arrow name {name!r}", 1, text.index("arrow ") + 7)


def test_arrow_name_with_digits_is_a_word():
    spec = parse_quiver_dsl("vertices 1 ; arrow x2: 1 -> 1 ; relation 2*x2*x2 ; field 3 ; maxlen 2 ;")
    assert spec.arrows == {"x2": ("1", "1")}
    assert spec.relations == [(("1", "1"), ((2, ("x2", "x2")),))]


def test_overlong_number_parses_or_is_refused_at_its_token():
    # int() refuses more digits than sys.get_int_max_str_digits (4300 by default)
    text = "field 2 ; maxlen " + "9" * 5000 + " ;"
    try:
        spec = parse_quiver_dsl(text)
    except QuiverSyntaxError as e:
        assert (e.line, e.col) == (1, 18)
    else:
        assert spec.maxlen == 10 ** 5000 - 1


def test_syntax_error_carries_position():
    with pytest.raises(QuiverSyntaxError) as exc:
        parse_quiver_dsl("vertices 1 ;\narrow ?: 1 -> 1 ; field 2 ; maxlen 1 ;")
    assert exc.value.line == 2


def test_a2_path_category_dims():
    spec = parse_quiver_dsl("vertices 1 2 ; arrow a: 1 -> 2 ; field 2 ; maxlen 2 ;")
    cat = path_category(spec)
    assert validate(cat) == []
    assert cat.hom_dim[("1", "1")] == 1
    assert cat.hom_dim[("2", "2")] == 1
    assert cat.hom_dim[("1", "2")] == 1
    assert cat.hom_dim[("2", "1")] == 0
    assert cats_equal(cat, catalog("a2cat", 2))


def test_loop_quiver_with_square_zero_is_dual_numbers():
    cat = path_category(parse_quiver_dsl(SQUARE_ZERO))
    assert validate(cat) == []
    assert cat.hom_dim[("v", "v")] == 2
    ref = catalog("dual", 2)
    # identical structure constants under the basis order (empty path, x)
    assert cat.comp[("v", "v", "v")] == ref.comp[("x", "x", "x")]
    assert cat.id_coords["v"] == ref.id_coords["x"]


def test_loop_quiver_xn_matches_truncated_polynomial_ring():
    # no relation at all: truncation at maxlen kills x^(n+1) and beyond
    text = """
    vertices v ;
    arrow x: v -> v ;
    field 3 ;
    maxlen 3 ;
    """
    cat = path_category(parse_quiver_dsl(text))
    assert validate(cat) == []
    assert cat.hom_dim[("v", "v")] == 4


def test_loop_quiver_cube_zero_matches_hand_built_table():
    from ringoid.category import from_ring_table

    cat = path_category(parse_quiver_dsl(CUBE_ZERO))
    # F_2[x]/(x^3) in the basis 1, x, x^2
    def mult(i, j):
        v = [0, 0, 0]
        if i + j < 3:
            v[i + j] = 1
        return tuple(v)

    table = [[mult(i, j) for j in range(3)] for i in range(3)]
    ref = from_ring_table(2, 3, table, (1, 0, 0))
    assert cat.hom_dim[("v", "v")] == 3
    assert cat.comp[("v", "v", "v")] == ref.comp[("x", "x", "x")]
    assert cat.id_coords["v"] == ref.id_coords["x"]


def test_empty_quiver():
    cat = path_category(parse_quiver_dsl("field 2 ; maxlen 1 ;"))
    assert cat.objects == ()
    assert validate(cat) == []


def test_relation_with_coefficient():
    cat = path_category(parse_quiver_dsl(COEFFICIENT))
    assert validate(cat) == []
    # basis: empty path and one of s, t (s = -2t = t modulo the relation)
    assert cat.hom_dim[("1", "1")] == 2


def test_parser_total_on_arbitrary_text():
    # the parser either returns a spec or raises its own syntax error
    from hypothesis import given, settings, strategies as st

    alphabet = "vertices arrow relation field maxlen 012²ab;:->*+\n "

    @settings(max_examples=200, derandomize=True)
    @given(st.text(alphabet=alphabet, max_size=60))
    def run(text):
        try:
            spec = parse_quiver_dsl(text)
        except QuiverSyntaxError:
            return
        assert spec.p >= 2

    run()


def test_relation_killing_identity_collapses_object():
    # a relation equal to the empty path makes the identity zero, which in a
    # truncated path category empties the hom spaces at that vertex
    cat = path_category(parse_quiver_dsl(KILL_IDENTITY))
    assert validate(cat) == []
    assert cat.hom_dim[("1", "1")] == 1  # only the empty path survives


def test_kronecker_quiver_dims():
    text = """
    vertices 1 2 ;
    arrow a: 1 -> 2 ;
    arrow b: 1 -> 2 ;
    field 2 ;
    maxlen 2 ;
    """
    cat = path_category(parse_quiver_dsl(text))
    assert validate(cat) == []
    assert cat.hom_dim[("1", "2")] == 2
    assert cat.hom_dim[("2", "1")] == 0


# Every quiver here with relations, and two loops with a relation of mixed
# lengths: a*b and b*a, plus a*b + 2*b over F_3.
TWO_LOOPS = "vertices 1 ; arrow a: 1 -> 1 ; arrow b: 1 -> 1 ; relation {} ; field {} ; maxlen {} ;"
RELATION_QUIVERS = [SQUARE_ZERO, CUBE_ZERO, COEFFICIENT, KILL_IDENTITY] + [
    TWO_LOOPS.format(rel, p, n) for rel, p in (("a*b", 2), ("a*b + 2*b", 3)) for n in range(1, 7)
]


def full_padding(spec, paths):
    """Every relation padded on both sides by every pair of paths."""
    for (x, y), rel in spec.relations:
        for c_src in spec.vertices:
            for left in paths[(c_src, x)]:
                for d_tgt in spec.vertices:
                    for right in paths[(y, d_tgt)]:
                        yield (c_src, d_tgt), [(c, left + w + right) for c, w in rel]


@pytest.mark.parametrize("text", RELATION_QUIVERS)
def test_skipping_overlong_paddings_keeps_the_category(monkeypatch, text):
    # at maxlen 6, the a*b composition table has 28^3 entries
    monkeypatch.setenv("RINGOID_CAP_VECTORS", str(28 ** 3))
    spec = parse_quiver_dsl(text)
    built = path_category(spec)
    monkeypatch.setattr(quiver, "_padded_relations", full_padding)
    assert cat_hash(built) == cat_hash(path_category(spec))


def test_padding_lists_only_pairs_within_maxlen():
    # two loops, relation a*b, maxlen 10: pairs with len(left) + len(right) <= 8,
    # sum over k <= 8 of (k + 1) 2^k of them, against 2047^2 for every pair
    spec = parse_quiver_dsl(TWO_LOOPS.format("a*b", 2, 10))
    paths = quiver._enumerate_paths(spec)
    assert sum(1 for _ in quiver._padded_relations(spec, paths)) == sum((k + 1) * 2 ** k for k in range(9))


A4 = ("vertices 1 2 3 4 ; arrow a: 1 -> 2 ; arrow b: 2 -> 3 ; arrow c: 3 -> 4 ;"
      " relation a*b ; relation b*c ; field 2 ; maxlen 3 ;")
# the commutative square a*b = c*d over F_3
SQUARE = ("vertices 1 2 3 4 ; arrow a: 1 -> 2 ; arrow b: 2 -> 4 ; arrow c: 1 -> 3 ; arrow d: 3 -> 4 ;"
          " relation a*b + 2*c*d ; field 3 ; maxlen 2 ;")
# cat_hash of each path category, so that a change in how the quotient is
# read off shows here
PINNED_HASHES = dict(zip(RELATION_QUIVERS, [
    "2bb46335571118b1", "9074019a90f39570", "747fc5c0f063f0e6", "2e1f40fbcae8a4aa",
    "8e54df6bece664be", "988c24f6cd33f17c", "795f5951b1bddd67", "cb8b2de506c5c92b", "a933cf34c6a8bf30",
    "f8619c1be37566d4", "747fc5c0f063f0e6", "1067a977869d4a7a", "2519d24da55fa0f4", "898fa36afcb90173",
    "bc7efe1b443cebb1", "fe73158442d34faf",
]))
PINNED_HASHES[A4] = "57977d87842415bf"
PINNED_HASHES[SQUARE] = "332fb57a42bfbbe7"


@pytest.mark.parametrize("text", list(PINNED_HASHES))
def test_path_category_hash_is_pinned(monkeypatch, text):
    monkeypatch.setenv("RINGOID_CAP_VECTORS", str(28 ** 3))
    assert cat_hash(path_category(parse_quiver_dsl(text))) == PINNED_HASHES[text]


FUZZ_BASE = ("vertices 1 2 3 ; arrow a : 1 -> 2 ; arrow b : 2 -> 3 ; arrow c : 1 -> 3 ; arrow x : 2 -> 2 ;"
             " relation a * b + 2 * c ; relation x * x ; field 3 ; maxlen 2 ;")


def test_mutated_presentations_parse_or_refuse():
    # mutants that replace, insert or delete a token, or delete, repeat or
    # swap a statement: each parses or raises QuiverSyntaxError, and each
    # spec builds or refuses by cap; no other exception gets through
    rng = random.Random(24)
    base = [s.split() + [";"] for s in FUZZ_BASE.split(";")[:-1]]
    pool = sorted({t for s in base for t in s}) + ["0", "4", "7", "²", "٣", "-", "#", "9" * 12, "y"]
    built = refused = 0
    for _ in range(20000):
        stmts = [list(s) for s in base]
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(stmts))
            s = stmts[i]
            j = rng.randrange(len(s))
            op = rng.randrange(6)
            if op == 0:
                s[j] = rng.choice(pool)
            elif op == 1:
                s.insert(j, rng.choice(pool))
            elif op == 2:
                del s[j]
            elif op == 3:
                del stmts[i]
            elif op == 4:
                stmts.insert(i, list(s))
            else:
                k = rng.randrange(len(stmts))
                stmts[i], stmts[k] = stmts[k], stmts[i]
        try:
            spec = parse_quiver_dsl(" ".join(t for s in stmts for t in s))
        except QuiverSyntaxError:
            refused += 1
            continue
        try:
            path_category(spec)
        except CapExceeded:
            pass
        built += 1
    assert built > 2000 and refused > 10000
