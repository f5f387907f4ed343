import itertools
import random

import pytest

from evenpairs import detect
from evenpairs.corpus import graphs_upto, planted_class_f_trigraphs
from evenpairs.detect import (PrismWitness, _antiholes, _iter_prisms,
                              _shortest_holes, even_pairs, find_antihole_of_length_at_least,
                              find_odd_antihole, find_odd_hole, find_prism,
                              is_berge, is_even_pair, validate_prism)
from evenpairs.engine import check_preconditions
from evenpairs.errors import InconclusiveError, InputError
from evenpairs.families import (complete_bipartite, cycle, line_graph,
                                prism3)
from evenpairs.trigraph import (ANTI, PathWitness, Trigraph, bits_of, complement,
                                graph_from_edges, make_trigraph, mask_of,
                                realization, switchable_vertices, validate_hole)

from conftest import (count_calls, random_graph, random_trigraph,
                      shortest_hole_without_cut)


# -- odd holes ---------------------------------------------------------------

def test_find_odd_hole_c5(c5):
    wit = find_odd_hole(c5)
    assert wit.vertices == (0, 1, 2, 3, 4)
    validate_hole(c5, wit.vertices, "hole")


def test_find_odd_hole_none_on_c6(c6):
    assert find_odd_hole(c6) is None


def test_chorded_c7_fixtures():
    # short chord: triangle plus an even hole, Berge
    chord_short = graph_from_edges(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)])
    assert find_odd_hole(chord_short) is None
    assert is_berge(chord_short)[0]
    # longer chord: a 5-hole survives on one side
    chord_long = graph_from_edges(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    wit = find_odd_hole(chord_long)
    assert wit is not None and wit.length == 5
    validate_hole(chord_long, wit.vertices, "hole")


def test_odd_hole_minimum_length_and_determinism():
    # C5 and C7 sharing no vertices: the shorter one must be reported
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    g = graph_from_edges(12, edges)
    wit = find_odd_hole(g)
    assert wit.length == 5


def test_odd_hole_in_trigraph_uses_adjacency():
    # 5-cycle with one switchable edge is still an odd hole
    t = make_trigraph(5, [(0, 1, 0)] + [(i, (i + 1) % 5, 1) for i in range(1, 5)])
    wit = find_odd_hole(t)
    assert wit is not None and wit.length == 5


# -- the bounded hole search ------------------------------------------------

def _holes_of_length(T, k, first=None):
    """Reference: the chordless k-cycles of T in canonical form, one DFS
    per length, in ascending vertex order."""
    n, adj, anti = T.n, T.adj, T.anti
    if k > n:
        return
    for h1 in range(n) if first is None else (first,):
        above = ~((1 << (h1 + 1)) - 1) & ((1 << n) - 1)

        def rec(path, used, tail_anti):
            last = path[-1]
            if len(path) == k - 1:
                cand = adj[last] & tail_anti & adj[h1] & above & ~used
                yield from (path + (x,) for x in bits_of(cand) if path[1] < x)
                return
            cand = adj[last] & tail_anti & anti[h1] & above & ~used
            for x in bits_of(cand):
                yield from rec(path + (x,), used | 1 << x, tail_anti & anti[last])

        for h2 in bits_of(adj[h1] & above):
            yield from rec((h1, h2), 1 << h1 | 1 << h2, (1 << n) - 1)


def _first_hole_by_length(T, lengths, first=None):
    """Reference: the first hole of the lengths scanned in increasing order."""
    for k in lengths:
        for cycle_ in _holes_of_length(T, k, first):
            return cycle_
    return None


def _shortest_hole(n, adj, anti, lengths, first=None):
    """The kernel on the one length set ``lengths``."""
    return _shortest_holes(n, adj, anti, (mask_of(lengths),), first)[0]


def test_shortest_hole_matches_the_per_length_scans():
    rng = random.Random(15)
    pool = []
    for t in list(graphs_upto(7)) + list(planted_class_f_trigraphs(6)):
        pool += [t, complement(t)]
    pool += [random_trigraph(rng, rng.randint(5, 12), switch_prob=0.3)
             for _ in range(3000)]
    queries = 0
    for t in pool:
        n = t.n
        for lengths in (range(5, n + 1, 2), range(5, n + 1), range(6, n + 1),
                        range(7, n + 1)):
            assert (_shortest_hole(t.n, t.adj, t.anti, lengths)
                    == _first_hole_by_length(t, lengths))
            queries += 1
        odd = range(5, n + 1, 2)
        for v in range(n):
            assert (_shortest_hole(t.n, t.adj, t.anti, odd, first=v)
                    == _first_hole_by_length(t, odd, first=v))
            queries += 1
    assert queries > 70_000


def test_shortest_hole_cut_matches_the_uncut_search():
    # the cut drops only subtrees where no closing vertex is left, so the
    # witness is the uncut search's on every input, length set and start
    rng = random.Random(20)
    masks = []
    for t in graphs_upto(7):
        masks += [(t.n, t.adj, t.anti), (t.n, t.anti, t.adj)]
    masks += [(t.n, t.adj, t.anti) for t in planted_class_f_trigraphs(6)]
    for _ in range(1500):
        t = random_trigraph(rng, rng.randint(5, 14), switch_prob=0.1,
                            p=rng.choice((0.3, 0.5, 0.7)))
        masks.append((t.n, t.adj, t.anti) if rng.random() < 0.5
                     else (t.n, t.anti, t.adj))
    queries = holes = 0
    for n, adj, anti in masks:
        k = rng.randint(5, max(5, n))
        for lengths in (range(5, n + 1, 2), range(6, n + 1), range(5, n + 1),
                        (k,), range(7, n + 1, 2)):
            for first in (None, 0, rng.randrange(n)):
                got = _shortest_hole(n, adj, anti, lengths, first)
                assert got == shortest_hole_without_cut(n, adj, anti, lengths, first)
                queries += 1
                holes += got is not None
    assert queries > 60_000 and holes > 7_000


def test_precondition_pass_runs_two_hole_searches(monkeypatch):
    # odd hole in T, then one search of co-T for the odd antihole and the
    # long antihole together
    searches = count_calls(monkeypatch, detect, "_shortest_holes")
    check_preconditions(cycle(16), fast=True)
    assert [len(args[3]) for args in searches] == [1, 2]
    # the full pass on a graph with an odd hole needs only the long antihole
    searches.clear()
    check_preconditions(cycle(7))
    assert [len(args[3]) for args in searches] == [1, 1]


def _two_set_corpus():
    """Masks of graphs <= 7 (and the swapped masks), planted trigraphs on
    base <= 6, and 1,500 seeded random trigraphs on 5..16 vertices."""
    rng = random.Random(30)
    masks = []
    for t in graphs_upto(7):
        masks += [(t.n, t.adj, t.anti), (t.n, t.anti, t.adj)]
    for t in planted_class_f_trigraphs(6):
        masks += [(t.n, t.adj, t.anti), (t.n, t.anti, t.adj)]
    for _ in range(1500):
        t = random_trigraph(rng, rng.randint(5, 16), switch_prob=rng.choice((0, 0.1)),
                            p=rng.choice((0.3, 0.5, 0.7)))
        masks.append((t.n, t.adj, t.anti) if rng.random() < 0.5
                     else (t.n, t.anti, t.adj))
    return masks


def test_two_set_search_matches_two_single_set_searches():
    # each set keeps its own best hole and bound, so one DFS answers both
    # as its own search would: Bergeness's odd lengths and the long
    # antiholes of graphs (>= 6) and trigraphs (>= 5), plus a mixed pair
    odd = mask_of(range(5, 40, 2))
    cases = found = 0
    for n, adj, anti in _two_set_corpus():
        for pair in ((odd, -1 << 6), (odd, -1 << 5), (-1 << 6, odd),
                     (mask_of(range(6, 40, 2)), mask_of((5, 7, 9)))):
            got = _shortest_holes(n, adj, anti, pair)
            assert got == [_shortest_holes(n, adj, anti, (w,))[0] for w in pair]
            cases += 1
            found += got[0] is not None and got[1] is not None and got[0] != got[1]
    assert cases == 4 * (2 * 1252 + 2 * 379 + 1500) and found > 100


def test_odd_lengths_reach_any_vertex_count():
    # the odd-length mask is computed for n, so a trigraph built past the
    # input cap still has its long odd holes found
    for n in range(70):
        assert detect._odd_lengths(n) == mask_of(range(5, n + 1, 2))
    n = 35
    ring = Trigraph([1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)], [0] * n)
    assert find_odd_hole(ring).vertices == tuple(range(n))
    assert find_odd_antihole(complement(ring)).length == n


@pytest.mark.parametrize("T, threshold, odd_length, long_length", [
    # the shortest antihole is even (6), and an odd one (7) exists
    (complement(graph_from_edges(13, [(i, (i + 1) % 6) for i in range(6)]
                                 + [(6 + i, 6 + (i + 1) % 7) for i in range(7)])),
     6, 7, 6),
    # an antihole of length 5, below the graph threshold
    (cycle(5), 6, 5, None),
    # trigraphs: the threshold is 5; the one planted trigraph on base <= 6
    # with an antihole, and a C5 antihole with a switchable pair
    (next(t for t in planted_class_f_trigraphs(6)
          if find_antihole_of_length_at_least(t, 5)), 5, None, 6),
    (make_trigraph(5, [(0, 1, 0)] + [(i, (i + 2) % 5, 1) for i in range(5)]), 5, 5, 5),
], ids=["co-(C6+C7)", "C5", "planted", "switchable-C5"])
def test_antiholes_answer_both_checks(T, threshold, odd_length, long_length):
    odd_antihole, long_antihole = _antiholes(T, threshold)
    assert odd_antihole == find_odd_antihole(T)
    assert long_antihole == find_antihole_of_length_at_least(T, threshold)
    assert (odd_antihole and odd_antihole.length) == odd_length
    assert (long_antihole and long_antihole.length) == long_length
    for witness in (odd_antihole, long_antihole):
        if witness is not None:
            validate_hole(T, witness.vertices, "antihole")


def test_even_pair_gadget_runs_one_hole_search(monkeypatch):
    searches = count_calls(monkeypatch, detect, "_shortest_holes")
    assert is_even_pair(cycle(16), 0, 2).is_even_pair
    assert len(searches) == 1


# -- odd antiholes -----------------------------------------------------------

def test_find_odd_antihole_c5(c5):
    wit = find_odd_antihole(c5)
    assert wit is not None and wit.length == 5 and wit.kind == "antihole"
    validate_hole(c5, wit.vertices, "antihole")


def test_find_odd_antihole_none(c6):
    assert find_odd_antihole(c6) is None
    assert find_odd_antihole(prism3()) is None


def test_is_berge_examples(c5, c6):
    ok, wit = is_berge(c5)
    assert not ok and wit.kind == "hole"
    assert is_berge(c6) == (True, None)
    ok, wit = is_berge(complement(cycle(7)))
    assert not ok and wit.kind == "antihole"


def test_berge_invariant_under_realizations():
    rng = random.Random(11)
    checked = 0
    while checked < 12:
        t = random_trigraph(rng, rng.randint(3, 6), switch_prob=0.3)
        pairs = t.switchable_pairs()
        if len(pairs) > 6:
            continue
        checked += 1
        berge = is_berge(t)[0]
        realized = []
        for k in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, k):
                realized.append(is_berge(realization(t, chosen))[0])
        assert berge == all(realized)


# -- prisms ------------------------------------------------------------------

def test_prism3_is_odd_prism():
    wit = find_prism(prism3())
    assert wit is not None
    assert [r.vertices for r in wit.rungs] == [(0, 3), (1, 4), (2, 5)]
    validate_prism(prism3(), wit)


def test_no_prism_in_triangle_free(c6):
    assert find_prism(c6) is None


def test_line_graph_of_k23_has_odd_prism():
    lg, _ = line_graph(complete_bipartite(2, 3))
    wit = find_prism(lg)
    assert wit is not None
    assert all(len(r.vertices) % 2 == 0 for r in wit.rungs)
    validate_prism(lg, wit)


def test_even_prism_detected():
    # two triangles joined by three rungs of length two
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
             (0, 6), (6, 3), (1, 7), (7, 4), (2, 8), (8, 5)]
    g = graph_from_edges(9, edges)
    assert find_prism(g) is None
    wit = next(_iter_prisms(g))
    assert all(len(r.vertices) == 3 for r in wit.rungs)
    validate_prism(g, wit)


def test_prism_same_parity_in_berge_inputs():
    rng = random.Random(12)
    seen = 0
    for _ in range(300):
        g = random_graph(rng, 7, 0.55)
        if not is_berge(g)[0]:
            continue
        for wit in _iter_prisms(g):
            seen += 1
            assert len({len(r.vertices) % 2 for r in wit.rungs}) == 1
    assert seen  # the sample really did contain prisms


def test_prism_rungs_are_strongly_antiadjacent_off_their_edges():
    # rung 2-6-7-5 would pass under plain antiadjacency, but 2 and 7 are a
    # switchable pair, a stray edge; the only prism has rung 2-7-5
    strong = "01 12 02 34 45 35 03 14 26 67 75".split()
    T = make_trigraph(8, [(int(e[0]), int(e[1]), 1) for e in strong] + [(2, 7, 0)])
    assert find_prism(T) is None
    wit = next(_iter_prisms(T))
    assert [len(r.vertices) - 1 for r in wit.rungs] == [1, 1, 2]
    validate_prism(T, wit)


def test_every_prism_witness_validates():
    # few class members hold a prism; the fixed instance above is the one
    # that tells strict rungs from plain antiadjacency
    witnesses = 0
    for t in planted_class_f_trigraphs(6):
        for g in (t, complement(t)):
            for wit in _iter_prisms(g):
                validate_prism(g, wit)
                witnesses += 1
    assert witnesses > 0


_PRISM3 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


@pytest.mark.parametrize("edges, rungs, message", [
    (_PRISM3, [(0, 3), (1, 4), (2, 4)], "rungs overlap"),
    (_PRISM3[1:], [(0, 3), (1, 4), (2, 5)], r"triangle pair \(0, 1\) not adjacent"),
    (_PRISM3, [(0, 3), (2, 5), (1, 4)], "rung 1 does not join its clique vertices"),
    (_PRISM3[:6] + _PRISM3[7:], [(0, 3), (1, 4), (2, 5)],
     r"required prism edge \(0, 3\) missing"),
    (_PRISM3 + [(0, 4)], [(0, 3), (1, 4), (2, 5)], r"stray edge \(0, 4\) inside the prism"),
], ids=["overlap", "triangle", "rung-ends", "rung-edge", "stray"])
def test_validate_prism_errors(edges, rungs, message):
    wit = PrismWitness(((0, 1, 2), (3, 4, 5)), tuple(PathWitness(r) for r in rungs))
    with pytest.raises(InputError, match=message):
        validate_prism(graph_from_edges(6, edges), wit)


# -- bounded antiholes -------------------------------------------------------

def test_antihole_length_at_least(c6):
    wit = find_antihole_of_length_at_least(prism3(), 6)
    assert wit is not None and wit.length == 6
    assert find_antihole_of_length_at_least(c6, 6) is None
    wit = find_antihole_of_length_at_least(complement(cycle(7)), 6)
    assert wit is not None and wit.length == 7
    with pytest.raises(InputError):
        find_antihole_of_length_at_least(c6, 4)


def test_berge_antihole_threshold_equivalence():
    # for Berge inputs, "no antihole at all" and "none of length >= 6"
    # agree: exhaustive up to seven vertices, random top-up at eight
    from evenpairs.corpus import graphs_upto

    rng = random.Random(13)
    pool = graphs_upto(7) + [random_graph(rng, 8) for _ in range(150)]
    checked = 0
    for g in pool:
        if not is_berge(g)[0]:
            continue
        checked += 1
        any_at_all = find_antihole_of_length_at_least(g, 5)
        beyond_six = find_antihole_of_length_at_least(g, 6)
        assert (any_at_all is None) == (beyond_six is None)
    assert checked > 1000


# -- even pairs --------------------------------------------------------------

def test_is_even_pair_c4(c4):
    report = is_even_pair(c4, 0, 2)
    assert report.verdict == "even_pair" and report.path_count == 2


def test_is_even_pair_c6_witness(c6):
    report = is_even_pair(c6, 0, 3)
    assert report.verdict == "not_even_pair"
    assert report.witness.vertices == (0, 1, 2, 3)
    # the endpoints are taken in increasing order
    assert is_even_pair(c6, 3, 0) == report


def test_is_even_pair_p4(p4):
    report = is_even_pair(p4, 0, 3)
    assert report.verdict == "not_even_pair" and report.witness.vertices == (0, 1, 2, 3)


def test_is_even_pair_adjacency_guard(c6):
    assert is_even_pair(c6, 0, 1).verdict == "not_strongly_antiadjacent"
    t = make_trigraph(2, [(0, 1, 0)])
    assert is_even_pair(t, 0, 1).verdict == "not_strongly_antiadjacent"
    with pytest.raises(InputError):
        is_even_pair(c6, 3, 3)


def test_is_even_pair_path_cap(monkeypatch, c8):
    # C8's (0, 2) has two even paths; a cap of one path gives up on it
    import evenpairs.detect as detect

    monkeypatch.setattr(detect, "MAX_PATHS", 1)
    with pytest.raises(InconclusiveError, match="exceeded 1 paths"):
        is_even_pair(c8, 0, 2)


def test_even_pair_gadget_agreement_small():
    rng = random.Random(14)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 6))
        for u, v in itertools.combinations(range(g.n), 2):
            # the gadget cross-check runs inside; a disagreement raises
            is_even_pair(g, u, v)


def test_find_even_pair_oracle(c6, k4):
    assert next(even_pairs(c6), None) == (0, 2)
    assert next(even_pairs(k4), None) is None


def test_find_even_pair_oracle_disjoint_flag():
    # 6-hole with one switchable pair: the scan dodges it when asked
    t = make_trigraph(6, [(i, (i + 1) % 6, 1) for i in range(5)] + [(5, 0, 0)])
    unrestricted = next(even_pairs(t), None)
    restricted = next(even_pairs(t, switchable_vertices(t)), None)
    assert restricted is not None
    assert not (set(restricted) & {0, 5})
    assert unrestricted <= restricted


def test_even_pairs_avoiding_a_set_filters_the_full_scan(monkeypatch):
    # on graphs <= 6 and planted trigraphs on base <= 5, with the switchable
    # vertices and a seeded random set to avoid: the scan returns the full
    # scan's pairs that miss the set, and asks the oracle exactly about the
    # strongly antiadjacent pairs that miss it, in lexicographic order
    oracle = count_calls(monkeypatch, detect, "is_even_pair")
    rng = random.Random(29)
    instances = list(graphs_upto(6)) + list(planted_class_f_trigraphs(5))
    pairs = 0
    for T in instances:
        full = list(even_pairs(T))
        for avoid in (switchable_vertices(T),
                      {w for w in range(T.n) if rng.random() < 0.3}):
            del oracle[:]
            got = list(even_pairs(T, avoid))
            assert got == [p for p in full if not set(p) & avoid], (T, avoid)
            candidates = [(u, v) for u, v in itertools.combinations(range(T.n), 2)
                          if not {u, v} & avoid and T.value(u, v) == ANTI]
            assert [call[1:] for call in oracle] == candidates, (T, avoid)
            pairs += len(got)
    assert pairs > 500


@pytest.mark.parametrize("avoid, bad", [([1, 6], 6), ([-1], -1)])
def test_even_pairs_rejects_an_out_of_range_avoided_vertex(c6, avoid, bad):
    with pytest.raises(InputError, match=f"vertex {bad} out of range"):
        next(even_pairs(c6, avoid))
