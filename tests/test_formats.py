import random

import networkx as nx
import pytest

from evenpairs.corpus import graphs_upto, planted_class_f_trigraphs
from evenpairs.decomposition import build_block, iter_2joins
from evenpairs.errors import InputError
from evenpairs.formats import (from_graph6, from_text, load, loads, to_graph6,
                               to_text)
from evenpairs.trigraph import Trigraph, make_trigraph

from conftest import (random_graph, random_trigraph, to_graph6_by_pairs,
                      to_text_by_pairs)
from test_engine import GENUINE_ROUTES


def test_text_roundtrip_random():
    rng = random.Random(61)
    for _ in range(80):
        t = random_trigraph(rng, rng.randint(0, 8))
        assert from_text(to_text(t)) == t
        # canonical serialization is a fixed point
        assert to_text(from_text(to_text(t))) == to_text(t)


def test_text_format_shape():
    t = make_trigraph(3, [(0, 1, 1), (1, 2, 0)])
    assert to_text(t) == "trigraph 3\n0 1 E\n1 2 S\n"


def test_text_comments_and_blank_lines():
    t = from_text("# leading comment\n\ntrigraph 2\n# inner\n0 1 S\n")
    assert t.value(0, 1) == 0


@pytest.mark.parametrize("payload, message", [
    ("trigraph 3\n0 1 E\n0 1 S\n", "duplicate pair"),
    ("trigraph 2\n0 3 E\n", "out of range"),
    ("trigraph 2\n0 1 X\n", "must be E or S"),
    ("trigraph 2\n0 1\n", "expected"),
    ("0 1 E\n", "header"),
    ("", "missing"),
    ("trigraph two\n", "bad vertex count"),
    ("trigraph -1\n", "line 1: negative vertex count"),
    ("trigraph 2\n0 one E\n", "line 2: bad vertex"),
])
def test_text_errors_carry_line_numbers(payload, message):
    with pytest.raises(InputError, match=message):
        from_text(payload)


def test_graph6_roundtrip_and_networkx_agreement():
    rng = random.Random(62)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 12))
        s = to_graph6(g)
        assert from_graph6(s) == g
        gnx = nx.from_graph6_bytes(s.encode())
        assert sorted(gnx.edges()) == sorted(tuple(e) for e in g.strong_edges())
        # and the reverse: encode with networkx, decode with ours
        ours = from_graph6(nx.to_graph6_bytes(gnx, header=False).decode().strip())
        assert ours == g


def test_graph6_header_tolerated():
    g = random_graph(random.Random(63), 6)
    assert from_graph6(">>graph6<<" + to_graph6(g)) == g


def test_graph6_rejects_trigraphs_and_garbage():
    with pytest.raises(InputError):
        to_graph6(make_trigraph(2, [(0, 1, 0)]))
    # a stand-in past the four-byte count: a real one would hold 258,048
    # masks of 258,048 bits each
    huge = object.__new__(Trigraph)
    huge.n, huge.strong, huge.switch = 258048, (), ()
    with pytest.raises(InputError, match="graph6 vertex count out of supported range"):
        to_graph6(huge)
    with pytest.raises(InputError, match="length mismatch"):
        from_graph6("E")
    with pytest.raises(InputError):
        from_graph6("")


def test_graph6_past_the_vertex_cap_is_refused():
    literal = chr(33 + 63) + "?" * (33 * 32 // 2 // 6)
    with pytest.raises(InputError, match="vertex count 33 exceeds cap 32"):
        from_graph6(literal)


@pytest.mark.parametrize("literal, message", [
    # the four-byte count of n > 62 is decoded in full, then capped
    ("~??~" + "?" * ((63 * 62 // 2 + 5) // 6), "vertex count 63 exceeds cap 32"),
    ("~?", "truncated graph6 vertex count"),
    # "~~" opens the eight-byte count of n > 258047, which is not supported
    ("~~??????", "graph6 vertex count out of supported range"),
], ids=["n63", "truncated", "eight-byte"])
def test_graph6_long_vertex_count(literal, message):
    with pytest.raises(InputError, match=message):
        from_graph6(literal)


def _wide_graph(rng, n, p):
    """A graph past the vertex cap, built from masks."""
    strong = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                strong[u] |= 1 << v
                strong[v] |= 1 << u
    return Trigraph(strong, [0] * n)


def test_to_graph6_matches_the_pair_scan():
    # every graph <= 7, random graphs on 0..32 vertices, and 64-vertex
    # graphs, which take the four-byte '~' count and are refused on input
    rng = random.Random(64)
    graphs = list(graphs_upto(7)) + [random_graph(rng, rng.randint(0, 32), rng.random())
                                     for _ in range(2000)]
    for g in graphs:
        assert to_graph6(g) == to_graph6_by_pairs(g), g
    for p in (0.0, 0.1, 0.5, 1.0):
        g = _wide_graph(rng, 64, p)
        g6 = to_graph6(g)
        assert g6.startswith("~?@?") and g6 == to_graph6_by_pairs(g)
        with pytest.raises(InputError, match="vertex count 64 exceeds cap 32"):
            from_graph6(g6)


@pytest.mark.parametrize("literal, message", [
    ("~\x01", "characters outside the printable range"),  # and truncated
    ("~~??\x80", "characters outside the printable range"),  # and eight-byte
    ("Dé", "characters outside the printable range"),  # non-ASCII, and short
    ("~ééé", "characters outside the printable range"),
    ("~~?", "truncated graph6 vertex count"),  # and eight-byte
    (">>graph6<<~?", "truncated graph6 vertex count"),
    ("~~??", "vertex count out of supported range"),  # and no payload
    ("A@@", "length mismatch: n=2 needs 1 payload bytes, got 2"),  # and padding
    (chr(33 + 63) + "?", "length mismatch: n=33 needs 88 payload bytes, got 1"),  # and the cap
    ("~??~?", "length mismatch: n=63 needs 326 payload bytes, got 1"),
], ids=["bad-char-truncated", "bad-char-eight-byte", "non-ascii", "non-ascii-count",
        "eight-byte-truncated", "header-truncated", "eight-byte-empty",
        "length-padding", "length-cap", "long-count-length"])
def test_graph6_reports_the_first_broken_rule(literal, message):
    # the string, its count, its length, padding, then the vertex cap
    with pytest.raises(InputError, match=message):
        from_graph6(literal)


def test_graph6_padding_bits_must_be_zero():
    # n = 2: one pair and five padding bits, the last one set
    with pytest.raises(InputError, match="padding bits must be zero"):
        from_graph6("A@")
    # n = 34: 561 pairs in 94 bytes; padding is reported before the cap
    with pytest.raises(InputError, match="padding bits must be zero"):
        from_graph6(chr(34 + 63) + "?" * 93 + "@")


def test_to_text_matches_the_pair_scan():
    # graphs, planted trigraphs and the blocks of the 2-joins on the
    # genuine-route instances, whose markers carry switchable pairs
    instances = list(graphs_upto(7)) + list(planted_class_f_trigraphs(6))
    for g6, _, _ in GENUINE_ROUTES:
        T = from_graph6(g6)
        instances += [build_block(T, split, side).trigraph
                      for split in iter_2joins(T) for side in (1, 2)]
    assert len(instances) == 1252 + 379 + 2 * (6 + 4 + 2)
    for T in instances:
        assert to_text(T) == to_text_by_pairs(T), T


def test_loads_sniffing():
    t = make_trigraph(2, [(0, 1, 0)])
    assert loads(to_text(t)) == t
    assert loads(to_text(t), fmt="trigraph") == t
    g = random_graph(random.Random(64), 5)
    assert loads(to_graph6(g)) == g
    assert loads(to_graph6(g), fmt="graph6") == g
    with pytest.raises(InputError):
        loads("stuff", fmt="nope")


def test_load_from_file(tmp_path):
    g = random_graph(random.Random(65), 6)
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(g) + "\n")
    assert load(str(path)) == g


# -- property round trips ----------------------------------------------------

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from evenpairs.trigraph import graph_from_edges


@st.composite
def any_trigraphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    entries = []
    for u, v in itertools.combinations(range(n), 2):
        code = draw(st.sampled_from([-1, -1, 0, 1, 1]))
        if code != -1:
            entries.append((u, v, code))
    return make_trigraph(n, entries)


@given(any_trigraphs())
@settings(max_examples=60, deadline=None)
def test_text_roundtrip_property(t):
    assert from_text(to_text(t)) == t


@st.composite
def any_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if draw(st.booleans())]
    return graph_from_edges(n, edges)


@given(any_graphs())
@settings(max_examples=60, deadline=None)
def test_graph6_roundtrip_property(g):
    assert from_graph6(to_graph6(g)) == g
