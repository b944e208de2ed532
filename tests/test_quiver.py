import pytest

from ringoid import quiver
from ringoid.category import cat_hash, cats_equal, catalog, validate
from ringoid.quiver import (
    QuiverSyntaxError,
    parse_quiver_dsl,
    path_category,
)

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

    alphabet = "vertices arrow relation field maxlen 12ab;:->*+\n "

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
    for rel in spec.relations:
        x, y = spec.word_endpoints(rel[0][1])
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
