import itertools
import random
from collections import Counter

import pytest

from evenpairs import basic
from evenpairs.basic import (BasicClassification, LineRootCertificate,
                             _good_pair_scan, _good_witness, bipartition_of,
                             classify_basic, even_pair_basic, favorability,
                             find_good_pair, good_partition_of, has_k4_minor,
                             line_root_of, verify_root_properties)
from evenpairs.decomposition import build_block, find_2join
from evenpairs.corpus import (graphs_upto, plant_light, plant_small,
                              planted_class_f_trigraphs)
from evenpairs.detect import (find_antihole_of_length_at_least, find_odd_hole,
                              find_prism, is_berge, is_even_pair)
from evenpairs.engine import find_even_pair_structured
from evenpairs.errors import InputError, TheoremContradictionError
from evenpairs.families import (complete_bipartite, complete_graph, cycle,
                                empty_graph, line_graph, path_graph, prism3)
from evenpairs.formats import from_text, to_text
from evenpairs.trigraph import (bits_of, complement, graph_from_edges,
                                in_class_F, induced, is_complete,
                                make_trigraph, mask_of, realization,
                                switchable_vertices)

from conftest import (bipartition_by_side_array, count_calls,
                      even_theta_by_path_triples, graphs_upto_by_sorting,
                      has_k4_minor_by_counters, is_semirealization,
                      planted_class_f_trigraphs_by_sorting,
                      random_bipartite_graph, random_graph, random_trigraph,
                      simple_paths, split_for)


def _forced(verdict, t):
    """``t`` classified as ``verdict`` with its certificate, for a test of
    a class that classify_basic would not pick first."""
    if verdict == "line":
        return BasicClassification(verdict, line_root=line_root_of(t))
    if verdict == "complement_bipartite":
        return BasicClassification(verdict, bipartition=bipartition_of(complement(t)))
    assert verdict == "doubled"
    return BasicClassification(verdict, good_partition=good_partition_of(t))


# -- recognition ---------------------------------------------------------------

def test_classify_c6(c6):
    c = classify_basic(c6)
    assert c.verdict == "bipartite"
    assert c.bipartition == (frozenset({0, 2, 4}), frozenset({1, 3, 5}))


def test_classify_prism_and_forced_line_query():
    # complement of the prism is the bipartite C6, which the fixed order
    # hits first; the forced query still reconstructs the K_{2,3} root
    assert classify_basic(prism3()).verdict == "complement_bipartite"
    cert = line_root_of(prism3())
    assert cert is not None
    assert sorted(m.bit_count() for m in cert.root.adj) == [2, 2, 2, 3, 3]
    assert bipartition_of(cert.root) is not None


def test_classify_c4_order_and_forced_doubled(c4):
    assert classify_basic(c4).verdict == "bipartite"
    gp = good_partition_of(c4)
    assert gp is not None and gp.x == frozenset({0, 1}) and gp.y == frozenset({2, 3})


def test_classify_a_doubled_graph():
    # K_{1,3} with a pendant path: neither bipartite side nor a line graph
    # comes first, and the good partition is the certificate
    from evenpairs.certs import to_jsonable
    from evenpairs.formats import from_text

    t = from_text("trigraph 5\n0 3 E\n0 4 E\n1 4 E\n2 4 E\n3 4 E\n")
    doc = to_jsonable(classify_basic(t))
    assert doc["verdict"] == "doubled" and doc["bipartition"] is None
    assert doc["good_partition"] == {"kind": "good_partition",
                                     "x": [1, 2], "y": [0, 3, 4]}


def test_line_root_of_even_prism():
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
             (0, 6), (6, 3), (1, 7), (7, 4), (2, 8), (8, 5)]
    even_prism = graph_from_edges(9, edges)
    cert = line_root_of(even_prism)
    assert cert is not None  # the root is a theta of three odd paths


def test_line_trigraph_strong_clique_condition():
    # triangle with one switchable pair cannot be a line trigraph
    t = make_trigraph(3, [(0, 1, 0), (0, 2, 1), (1, 2, 1)])
    assert line_root_of(t) is None


def test_line_root_vertex_edge_map_is_line_graph():
    rng = random.Random(41)
    for _ in range(20):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        h = graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)
                                     if rng.random() < 0.7])
        lg, edges = line_graph(h)
        cert = line_root_of(lg)
        assert cert is not None
        # the recovered root reproduces the line graph exactly
        for i, j in itertools.combinations(range(lg.n), 2):
            shares = bool(set(cert.vertex_edges[i]) & set(cert.vertex_edges[j]))
            assert shares == (lg.value(i, j) == 1)


def _has_induced(g, pattern_edges, k):
    from evenpairs.trigraph import induced

    for sub in itertools.combinations(range(g.n), k):
        h = induced(g, sub)
        if sorted(h.strong_edges()) == sorted(pattern_edges):
            return True
    return False


def test_line_trigraphs_are_claw_and_diamond_free():
    # recognized line trigraphs never contain a claw or a diamond
    from evenpairs.trigraph import full_realization

    rng = random.Random(47)
    recognized = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 6), 0.45)
        if line_root_of(g) is None:
            continue
        recognized += 1
        fr = full_realization(g)
        claw = [(0, 1), (0, 2), (0, 3)]
        diamond = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
        assert not _has_induced(fr, claw, 4)
        assert not _has_induced(fr, diamond, 4)
    assert recognized > 15


def _census_and_complements():
    # the reference enumerations' representatives, which the digest pins
    base = graphs_upto_by_sorting(7) + list(planted_class_f_trigraphs_by_sorting(6))
    return base + [complement(t) for t in base]


def test_line_roots_are_golden():
    # the forced cliques come out in the order of their least edge, which
    # numbers the root nodes; this digest pins roots and vertex edges
    import hashlib
    import json

    from evenpairs.certs import to_jsonable

    h = hashlib.sha256()
    found = 0
    for t in _census_and_complements():
        cert = line_root_of(t)
        found += cert is not None
        h.update(json.dumps(to_jsonable(cert), sort_keys=True).encode() + b"\n")
    assert found == 512
    assert h.hexdigest() == (
        "7b966b8934803bb6fa002e4eb5d97c6ce0bf2d36b14a5f0aee471fba6dee57b5")


def _has_claw_or_diamond(g):
    # on four vertices the claw is the only graph with degrees 3, 1, 1, 1
    # and the diamond the only one with five edges
    for quad in itertools.combinations(range(g.n), 4):
        degrees = sorted((g.strong[v] & mask_of(quad)).bit_count() for v in quad)
        if degrees in ([1, 1, 1, 3], [2, 2, 3, 3]):
            return True
    return False


def test_line_roots_match_harary_holzmann():
    # line graphs of bipartite graphs are exactly the graphs with no
    # induced claw, diamond or odd hole
    from evenpairs.corpus import graphs_upto

    checked = 0
    for g in graphs_upto(6):
        for h in (g, complement(g)):
            expected = not _has_claw_or_diamond(h) and find_odd_hole(h) is None
            assert (line_root_of(h) is not None) == expected
            checked += expected
    assert checked > 100


def test_line_roots_match_networkx_inverse_line_graph():
    nx = pytest.importorskip("networkx")

    rng = random.Random(53)
    checked = 0
    for _ in range(400):
        lg, _ = line_graph(random_bipartite_graph(rng, 14))
        order = list(range(lg.n))
        rng.shuffle(order)
        lg = graph_from_edges(lg.n, [(order[u], order[v]) for u, v in lg.strong_edges()])
        as_nx = nx.Graph(lg.strong_edges())
        as_nx.add_nodes_from(range(lg.n))
        if not nx.is_connected(as_nx):
            continue
        cert = line_root_of(lg)
        assert cert is not None
        root = nx.Graph(cert.root.strong_edges())
        assert nx.is_isomorphic(root, nx.inverse_line_graph(as_nx))
        checked += 1
    assert checked > 100


def test_line_root_none_on_dense_non_line_graphs():
    # dense graphs that are not line graphs are rejected without a search
    assert line_root_of(complement(cycle(15))) is None
    assert line_root_of(random_graph(random.Random(7), 16, 0.7)) is None


def test_closure_over_all_semirealizations_of_planted_members():
    for t in planted_class_f_trigraphs(4):
        if not classify_basic(t).is_basic:
            continue
        pairs = t.switchable_pairs()
        for codes in itertools.product((-1, 0, 1), repeat=len(pairs)):
            semi = make_trigraph(t.n, [(u, v, 1) for u, v in t.strong_edges()]
                                 + [(u, v, code) for (u, v), code in zip(pairs, codes)])
            assert is_semirealization(semi, t)
            assert classify_basic(semi).is_basic


def test_doubled_recognizer_respects_definition():
    rng = random.Random(42)
    for _ in range(40):
        t = random_trigraph(rng, rng.randint(1, 6))
        gp = good_partition_of(t)
        if gp is None:
            continue
        from evenpairs.trigraph import components

        for comp in components(t, gp.x, "connected"):
            assert len(comp) <= 2
        for comp in components(t, gp.y, "anticonnected"):
            assert len(comp) <= 2
        assert not any(t.value(u, v) == 0 for u in gp.x for v in gp.y)


def test_closure_under_operations():
    # basics stay basic under induced subtrigraphs, semirealizations,
    # complementation (sampled)
    rng = random.Random(43)
    seeds = [cycle(6), cycle(4), prism3(), complete_graph(4), path_graph(5),
             complete_bipartite(2, 3)]
    for t in seeds:
        assert classify_basic(t).is_basic
        assert classify_basic(complement(t)).is_basic
        for _ in range(6):
            keep = [v for v in range(t.n) if rng.random() < 0.7]
            assert classify_basic(induced(t, keep)).is_basic
    switch = make_trigraph(6, [(i, (i + 1) % 6, 1) for i in range(5)] + [(5, 0, 0)])
    assert classify_basic(switch).is_basic
    for chosen in ([], [(0, 5)]):
        assert classify_basic(realization(switch, chosen)).is_basic


# -- favorability ----------------------------------------------------------------

def test_favorable_c6(c6):
    assert favorability(c6).favorable


def test_unfavorable_k5():
    v = favorability(complete_graph(5))
    assert not v.favorable and "antiadjacent" in v.failed


def test_unfavorable_small():
    v = favorability(complete_graph(4))
    assert not v.favorable and v.failed == "fewer than five vertices"


def test_favorable_block_of_c8(c8):
    block = build_block(c8, find_2join(c8), 1)
    assert favorability(block.trigraph).favorable


# -- bipartite finder -------------------------------------------------------------

def test_even_pair_bipartite_c6(c6):
    assert even_pair_basic(c6) == (0, 2)


def test_even_pair_bipartite_2k1():
    assert even_pair_basic(empty_graph(2)) == (0, 1)


def test_even_pair_bipartite_complete_signal(k4):
    assert even_pair_basic(complete_graph(2)) is None


def test_even_pair_bipartite_disjoint_on_light_block():
    c10 = cycle(10)
    block = build_block(c10, split_for(c10, {0, 1, 2, 3, 4}), 1)
    assert classify_basic(block.trigraph).verdict == "bipartite"
    pair = even_pair_basic(block.trigraph, need_disjoint=True)
    assert pair is not None
    assert not (set(pair) & set(block.markers))


def test_even_pair_bipartite_cross_pair():
    # one vertex on each side once the light component {0, 1, 2} is left
    # out: the pair is the cross pair, which the engine never asks for here,
    # because the favorable trigraph has a balanced skew partition
    T = make_trigraph(5, [(0, 1, 0), (1, 2, 0), (0, 3, 1)])
    assert classify_basic(T).verdict == "bipartite"
    assert favorability(T).favorable
    assert even_pair_basic(T, need_disjoint=True) == (3, 4)
    assert is_even_pair(T, 3, 4).is_even_pair
    report = find_even_pair_structured(T).report
    assert report.first_failure.name == "no_balanced_skew_partition"


# -- good pairs --------------------------------------------------------------------

def test_good_pair_on_length_three_path():
    h = path_graph(4)
    w = find_good_pair(h)
    assert w is not None
    assert {tuple(sorted(w.edge1)), tuple(sorted(w.edge2))} == {(0, 1), (2, 3)}


def test_good_pair_on_square(c4):
    w = find_good_pair(c4)
    assert w is not None
    assert not (set(w.edge1) & set(w.edge2))
    assert _good_witness(c4, bipartition_of(c4)[0], w.edge1, w.edge2) == w


def test_good_pair_none_on_star():
    assert find_good_pair(complete_bipartite(1, 3)) is None


def test_good_pair_rejects_non_bipartite():
    with pytest.raises(InputError, match="bipartite"):
        find_good_pair(complete_graph(3))
    with pytest.raises(InputError, match="good pairs live in graphs"):
        find_good_pair(make_trigraph(2, [(0, 1, 0)]))


def test_edges_sharing_an_end_are_no_good_pair(c4):
    # the shared end separates nothing from itself, so the scan loses no
    # good pair by skipping such edges
    side = bipartition_of(c4)[0]
    assert _good_witness(c4, side, (0, 1), (1, 2)) is None
    assert _good_witness(c4, side, (1, 2), (2, 3)) is None


def _good_by_definition(h, side, e1, e2):
    # every a1-a2 path meets {b1, b2} and every b1-b2 path meets {a1, a2}
    a1, b1 = e1 if e1[0] in side else (e1[1], e1[0])
    a2, b2 = e2 if e2[0] in side else (e2[1], e2[0])
    return (all({b1, b2} & set(p) for p in simple_paths(h, a1, a2))
            and all({a1, a2} & set(p) for p in simple_paths(h, b1, b2)))


def test_good_pair_oracle_definition():
    # cross-check the disconnection checks against brute-force path enumeration
    rng = random.Random(44)
    for _ in range(40):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        h = graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)
                                     if rng.random() < 0.6])
        side = bipartition_of(h)[0]
        for e1, e2 in itertools.combinations(h.strong_edges(), 2):
            if set(e1) & set(e2):
                continue
            brute = _good_by_definition(h, side, e1, e2)
            assert (_good_witness(h, side, e1, e2) is not None) == brute


def test_good_pair_avoids_forbidden_interior():
    # the forbidden set of the scan that the line finder runs
    h = cycle(8)
    w = _good_pair_scan(h, bipartition_of(h)[0], frozenset({1, 2}))
    assert w is not None
    assert not ((set(w.edge1) | set(w.edge2)) & {1, 2})


def test_find_good_pair_matches_definition():
    # the scan returns the first disjoint allowed pair that is good by the
    # path definition, and None exactly when there is no such pair
    rng = random.Random(47)
    found = 0
    for _ in range(40):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        h = graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)
                                     if rng.random() < 0.6])
        forb = frozenset(v for v in range(h.n) if rng.random() < 0.2)
        side = bipartition_of(h)[0]
        allowed = [e for e in h.strong_edges() if not set(e) & forb]
        good = [(e1, e2) for e1, e2 in itertools.combinations(allowed, 2)
                if not set(e1) & set(e2) and _good_by_definition(h, side, e1, e2)]
        w = _good_pair_scan(h, side, forb)
        assert find_good_pair(h) == _good_pair_scan(h, side, frozenset())
        if not good:
            assert w is None
            continue
        found += 1
        e1, e2 = good[0]
        assert {frozenset(w.edge1), frozenset(w.edge2)} == {frozenset(e1), frozenset(e2)}
        assert w.edge1[0] in side and w.edge2[0] in side
    assert found > 10


def test_good_pair_found_on_a_path_root_around_a_forbidden_vertex():
    # root path 4-0-1-3-2-5 with vertex 1 forbidden: the end edges are good
    h = graph_from_edges(6, [(0, 1), (0, 4), (1, 3), (2, 3), (2, 5)])
    w = _good_pair_scan(h, bipartition_of(h)[0], frozenset({1}))
    assert w is not None and _good_witness(h, bipartition_of(h)[0], w.edge1, w.edge2) == w
    assert not ((set(w.edge1) | set(w.edge2)) & {1})


# -- line finder --------------------------------------------------------------------

def test_even_pair_line_on_p3():
    p3 = path_graph(3)  # line graph of the length-three path
    assert even_pair_basic(p3, False, _forced("line", p3)) == (0, 2)


def test_even_pair_line_on_line_of_c8(c8):
    lg, _ = line_graph(c8)
    pair = even_pair_basic(lg, False, _forced("line", lg))
    assert pair is not None and is_even_pair(lg, *pair).is_even_pair


def test_even_pair_line_disjoint_on_marker_block(c8):
    block = build_block(c8, find_2join(c8), 1)
    cert = line_root_of(block.trigraph)
    assert cert is not None  # the 6-hole-with-switch is also a line trigraph
    pair = even_pair_basic(block.trigraph, True, BasicClassification("line", line_root=cert))
    assert pair is not None and not (set(pair) & set(block.markers))


def test_even_pair_line_disjoint_needs_a_pair_around_the_switchable_path():
    # a path with a small switchable pair on {0, 3}; the root path has its
    # interior vertex forbidden, and only its end edges make a good pair
    t = from_text("trigraph 5\n0 1 E\n0 3 S\n2 4 E\n3 4 E\n")
    assert even_pair_basic(t, True, _forced("line", t)) == (1, 2)
    assert is_even_pair(t, 1, 2).is_even_pair


def _planted_line_trigraphs(seed, roots):
    """Line graphs of seeded random bipartite roots (sides of 1-5 vertices,
    3-14 edges), each with every plant of one switchable pair on a strong
    edge and of a switchable path x-c-y with x, y nonadjacent; only the
    non-complete class members with no odd prism and a line root are
    kept."""
    rng = random.Random(seed)
    for _ in range(roots):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        edges = [(i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5]
        if not 3 <= len(edges) <= 14:
            continue
        lg, _ = line_graph(graph_from_edges(a + b, edges))
        strong = lg.strong_edges()
        plants = [{e} for e in strong]
        plants += [{(min(x, c), max(x, c)), (min(c, y), max(c, y))}
                   for c in range(lg.n) for x, y in itertools.combinations(bits_of(lg.adj[c]), 2)
                   if not lg.adj[x] >> y & 1]
        for switched in plants:
            t = make_trigraph(lg.n, [(u, v, 0 if (u, v) in switched else 1) for u, v in strong])
            if is_complete(t) or not in_class_F(t).ok or find_prism(t) is not None:
                continue
            cert = line_root_of(t)
            if cert is not None:
                yield t, cert


def test_even_pair_line_on_planted_line_trigraphs():
    # zero tolerance: every instance gets an oracle-verified pair, disjoint
    # from the switchable component whenever the instance is favorable
    instances = disjoint = 0
    for t, cert in _planted_line_trigraphs(1, 1000):
        need_disjoint = favorability(t).favorable
        pair = even_pair_basic(t, need_disjoint, BasicClassification("line", line_root=cert))
        assert pair is not None and is_even_pair(t, *pair).is_even_pair, to_text(t)
        if need_disjoint:
            disjoint += 1
            assert not set(pair) & switchable_vertices(t), to_text(t)
        instances += 1
    assert instances == 1335 and disjoint == 738


def test_line_finder_makes_one_oracle_call_per_pair(monkeypatch):
    import evenpairs.detect as detect

    oracle = count_calls(monkeypatch, detect, "is_even_pair")
    for t, cert in _planted_line_trigraphs(2, 100):
        oracle.clear()
        find_good_pair(cert.root)
        assert oracle == []
        pair = even_pair_basic(t, favorability(t).favorable,
                               BasicClassification("line", line_root=cert))
        assert oracle == [(t, *pair)]


# -- complement classes ---------------------------------------------------------------

def test_even_pair_co_classes_c4(c4):
    pair = even_pair_basic(c4, False, _forced("complement_bipartite", c4))
    assert pair is not None and is_even_pair(c4, *pair).is_even_pair


def test_even_pair_co_classes_co_p4(p4):
    co = complement(p4)
    pair = even_pair_basic(co, False, _forced("complement_bipartite", co))
    assert pair is not None and is_even_pair(co, *pair).is_even_pair


def test_even_pair_co_classes_octahedron():
    # the prism itself is out of scope (it carries a length-six antihole);
    # the octahedron is antihole-free co-bipartite with antipodal even pairs
    t = complement(make_trigraph(6, [(0, 1, 1), (2, 3, 1), (4, 5, 1)]))
    assert classify_basic(t).verdict == "complement_bipartite"
    pair = even_pair_basic(t)
    assert pair in ((0, 1), (2, 3), (4, 5))
    assert is_even_pair(t, *pair).is_even_pair


def test_odd_paths_short_in_co_classes():
    # complements of bipartite or line trigraphs have no odd path longer
    # than three
    rng = random.Random(45)
    from evenpairs.trigraph import iter_paths

    checked = 0
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 6))
        co = complement(g)
        verdict = classify_basic(co).verdict
        if verdict not in ("complement_bipartite", "complement_line"):
            continue
        checked += 1
        for u, v in itertools.combinations(range(co.n), 2):
            if co.value(u, v) >= 0:
                continue
            for seq in iter_paths(co, u, v):
                if (len(seq) - 1) % 2 == 1:
                    assert len(seq) - 1 <= 3
    assert checked > 20


def _complement_leaf_pool():
    """Graphs on <= 7 vertices, their complements, every small and light
    plant into both, and the complements of the planted class members on
    base <= 6."""
    graphs = graphs_upto(7)
    for g in list(graphs) + [complement(g) for g in graphs]:
        yield g
        for u, v in itertools.combinations(range(g.n), 2):
            yield plant_small(g, u, v)
            if g.value(u, v) == -1 and not g.adj[u] & g.adj[v]:
                yield plant_light(g, u, v)
    for t in planted_class_f_trigraphs(6):
        yield complement(t)


def test_complement_leaves_on_real_instances():
    # zero tolerance: every non-complete complement-class member with no odd
    # prism and no long antihole gets an oracle-verified pair, disjoint from
    # the switchable component whenever the instance is favorable
    verdicts = Counter()
    plants = favorable_plants = 0
    for t in _complement_leaf_pool():
        co = complement(t)
        # the two complement recognizers first: classify_basic is slow on the
        # many non-basic plants
        if is_complete(t) or bipartition_of(co) is None and line_root_of(co) is None:
            continue
        c = classify_basic(t)
        if c.verdict not in ("complement_bipartite", "complement_line"):
            continue
        if (not in_class_F(t).ok or find_prism(t) is not None
                or find_antihole_of_length_at_least(t, 6) is not None):
            continue
        need_disjoint = favorability(t).favorable
        pair = even_pair_basic(t, need_disjoint, c)
        assert pair is not None and is_even_pair(t, *pair).is_even_pair, to_text(t)
        D = switchable_vertices(t)
        if need_disjoint:
            assert not set(pair) & D, to_text(t)
        verdicts[c.verdict] += 1
        if D:
            plants += 1
            favorable_plants += need_disjoint
    assert verdicts == {"complement_bipartite": 579, "complement_line": 160}
    assert plants == 317 and favorable_plants == 0


# -- doubled finder ---------------------------------------------------------------------

def test_even_pair_doubled_c4(c4):
    pair = even_pair_basic(c4, False, _forced("doubled", c4))
    assert pair is not None and is_even_pair(c4, *pair).is_even_pair


def test_even_pair_doubled_disconnected():
    t = make_trigraph(4, [(0, 1, 1), (2, 3, 1)])
    pair = even_pair_basic(t, False, _forced("doubled", t))
    assert pair is not None and is_even_pair(t, *pair).is_even_pair


def test_even_pair_doubled_stable_x_clique_y():
    # stable X completely joined to a strong clique Y
    t = graph_from_edges(5, [(3, 4)] + [(i, j) for i in range(3) for j in (3, 4)])
    pair = even_pair_basic(t, False, _forced("doubled", t))
    assert pair is not None and pair < (3, 3)
    assert is_even_pair(t, *pair).is_even_pair


def test_even_pair_doubled_p4_partition_gap(p4):
    # the ({ends}, {middle}) partition routes through the singleton
    # anticomponent branch
    pair = even_pair_basic(p4, False, _forced("doubled", p4))
    assert pair is not None and is_even_pair(p4, *pair).is_even_pair


def test_even_pair_doubled_avoids_the_switchable_component():
    # planted doubled members: with the disjoint flag the finder returns the
    # least even pair off the switchable component, which on most of them is
    # not the least even pair overall; the counts are those of the reference
    # enumeration's representatives
    disjoint = moved = 0
    for t in planted_class_f_trigraphs_by_sorting(6):
        c = classify_basic(t)
        if c.verdict != "doubled" or is_complete(t) or not favorability(t).favorable:
            continue
        pair = even_pair_basic(t, True, c)
        D = switchable_vertices(t)
        assert is_even_pair(t, *pair).is_even_pair and not set(pair) & D
        assert all(set(p) & D or not is_even_pair(t, *p).is_even_pair
                   for p in itertools.combinations(range(t.n), 2)
                   if p < pair and t.value(*p) == -1)
        disjoint += 1
        moved += set(even_pair_basic(t, False, c)) & D != set()
    assert disjoint == 15 and moved == 12


def test_doubled_finder_skips_switchable_pairs_before_the_oracle(monkeypatch):
    # engine-style doubled leaves over graphs <= 7 and planted base <= 6: the
    # disjoint flag drops pairs meeting the switchable component before their
    # oracle call, so each run checks exactly the allowed strongly
    # antiadjacent pairs up to the one it returns; the counts are those of
    # the reference enumerations' representatives
    import evenpairs.detect as detect

    instances = [t for t in graphs_upto_by_sorting(7)
                 + list(planted_class_f_trigraphs_by_sorting(6))
                 if in_class_F(t).ok and not is_complete(t)]
    oracle = count_calls(monkeypatch, detect, "is_even_pair")
    runs = total = 0
    for t in instances:
        c = classify_basic(t)
        if c.verdict != "doubled":
            continue
        D = switchable_vertices(t)
        need_disjoint = bool(D) and favorability(t).favorable
        oracle.clear()
        pair = even_pair_basic(t, need_disjoint, c)
        avoid = D if need_disjoint else set()
        allowed = [p for p in itertools.combinations(range(t.n), 2)
                   if p <= pair and t.value(*p) == -1 and not set(p) & avoid]
        assert [call[1:] for call in oracle] == allowed, to_text(t)
        runs += 1
        total += len(oracle)
    assert runs == 286 and total == 351


# -- dispatch -----------------------------------------------------------------------------

def test_even_pair_basic_dispatch(c6, k4):
    assert even_pair_basic(c6) == (0, 2)
    assert even_pair_basic(k4) is None
    block = build_block(cycle(10), split_for(cycle(10), {0, 1, 2, 3, 4}), 1)
    pair = even_pair_basic(block.trigraph, need_disjoint=True)
    assert pair is not None and not (set(pair) & set(block.markers))


def _one_leaf_per_class():
    members = [cycle(6), complement(path_graph(5))]
    members.append(next(t for t in _complement_leaf_pool() if not is_complete(t)
                        and classify_basic(t).verdict == "complement_line"))
    members.append(next(t for t in planted_class_f_trigraphs(6) if not is_complete(t)
                        and classify_basic(t).verdict == "doubled"))
    members.append(next(t for t, _ in _planted_line_trigraphs(1, 1000)
                        if classify_basic(t).verdict == "line"))
    return members


def test_even_pair_basic_trusts_the_classification(monkeypatch):
    # a leaf is solved from the certificate classify_basic produced: no
    # recognizer runs on it again, and the line leaf takes its root's
    # coloring from the certificate instead of coloring the root again
    members = _one_leaf_per_class()
    logs = [count_calls(monkeypatch, basic, name)
            for name in ("bipartition_of", "line_root_of", "good_partition_of")]
    verdicts = []
    for t in members:
        c = classify_basic(t)
        need_disjoint = bool(switchable_vertices(t)) and favorability(t).favorable
        for log in logs:
            log.clear()
        pair = even_pair_basic(t, need_disjoint, c)
        assert pair is not None and is_even_pair(t, *pair).is_even_pair
        assert logs == [[], [], []], c.verdict
        verdicts.append(c.verdict)
    assert verdicts == ["bipartite", "complement_bipartite", "complement_line",
                        "doubled", "line"]


def test_even_pair_basic_rejects_non_basic():
    edges = [(0, 2), (1, 3), (2, 3), (2, 4), (3, 4),
             (5, 7), (6, 8), (7, 8), (7, 9), (8, 9),
             (0, 5), (0, 6), (1, 5), (1, 6), (4, 9)]
    g = graph_from_edges(10, edges)
    assert classify_basic(g).verdict == "not_basic"
    with pytest.raises(InputError):
        even_pair_basic(g)


def test_finders_always_verified():
    # every pair any finder returns passes the oracle (fuzzed)
    rng = random.Random(46)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 6))
        c = classify_basic(g)
        if not c.is_basic or not is_berge(g)[0]:
            continue
        if c.verdict == "line" and find_prism(g) is not None:
            continue
        from evenpairs.detect import find_antihole_of_length_at_least

        if find_antihole_of_length_at_least(g, 5) is not None:
            continue
        pair = even_pair_basic(g)
        from evenpairs.trigraph import is_complete

        assert (pair is None) == is_complete(g)
        if pair is not None:
            assert is_even_pair(g, *pair).is_even_pair


# -- guards ---------------------------------------------------------------------------------

# a path whose middle pair {2, 3} is switchable (a small component), and a
# light path {0, 1, 2} beside an isolated vertex
SMALL_PATH = make_trigraph(6, [(0, 1, 1), (1, 2, 1), (2, 3, 0), (3, 4, 1), (4, 5, 1)])
LIGHT_PATH = make_trigraph(4, [(0, 1, 0), (1, 2, 0)])


def _line_with_crossed_edges(t):
    """The line certificate of ``t`` with the root edges of vertices 0 and
    2 swapped."""
    cert = line_root_of(t)
    edges = list(cert.vertex_edges)
    edges[0], edges[2] = edges[2], edges[0]
    return BasicClassification("line", line_root=LineRootCertificate(
        cert.root, tuple(edges), cert.side))


BASIC_GUARDS = [
    # (sub-step patched with a wrong answer, or None when the classification
    #  is the wrong answer; leaf; need_disjoint; classification; message)
    ("crossed-root", None, SMALL_PATH, True, _line_with_crossed_edges,
     "switchable component does not map to a short root path"),
    ("no-good-pair", ("_good_pair_scan", lambda *_: None), SMALL_PATH, True,
     lambda t: _forced("line", t),
     "no good pair in the root of a non-complete line trigraph"),
    # the caller's favorability is the wrong answer: it asks a four-vertex
    # leaf, which is unfavorable, for a pair avoiding its switchable path
    ("bipartite-ran-out", None, LIGHT_PATH, True, classify_basic,
     "bipartite leaf ran out of vertices outside the switchable component"),
    ("light-in-doubled", None, LIGHT_PATH, False, lambda _: BasicClassification("doubled"),
     "light switchable component inside a doubled leaf"),
    ("no-even-pair", ("even_pairs", lambda *_: iter(())), prism3(), False,
     classify_basic, "complement_bipartite leaf found no even pair"),
    ("meets-component", ("_lifted_good_pair", lambda *_: (1, 2)), SMALL_PATH, True,
     lambda t: _forced("line", t),
     "line leaf: constructed pair (1, 2) meets the switchable component"),
]


@pytest.mark.parametrize("patch, t, need_disjoint, classify, message",
                         [row[1:] for row in BASIC_GUARDS],
                         ids=[row[0] for row in BASIC_GUARDS])
def test_each_basic_leaf_guard_raises(monkeypatch, patch, t, need_disjoint, classify,
                                      message):
    # one wrong answer from the sub-step a leaf guard checks reaches that
    # guard, with its own message
    classification = classify(t)
    if patch is not None:
        monkeypatch.setattr(basic, *patch)
    with pytest.raises(TheoremContradictionError) as err:
        even_pair_basic(t, need_disjoint, classification)
    assert str(err.value) == message


# -- root properties ------------------------------------------------------------------------

def _assert_even_theta(h, theta):
    # the ends are u and v, each path is even with distinct vertices and
    # steps along edges of h, and the interiors are pairwise disjoint
    u, v, paths = theta
    assert len(paths) == 3
    for p in paths:
        assert (p[0], p[-1]) == (u, v) and len(set(p)) == len(p), theta
        assert len(p) % 2 == 1 and all(h.adj[a] >> b & 1 for a, b in zip(p, p[1:])), theta
    for p, q in itertools.combinations(paths, 2):
        assert not set(p[1:-1]) & set(q[1:-1]), theta


def test_root_properties_k23_even_theta():
    report = verify_root_properties(complete_bipartite(2, 3))
    assert report.even_theta == (0, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1)))
    assert not report.ok


def test_root_properties_clean(c8):
    assert verify_root_properties(c8).ok
    assert verify_root_properties(path_graph(6)).ok


def test_root_properties_reject_a_non_bipartite_graph(c5):
    with pytest.raises(InputError, match="bipartite"):
        verify_root_properties(c5)


def test_even_theta_matches_the_path_triple_reference():
    # every bipartite graph on <= 7 vertices and 2,000 random roots: the
    # same first pair as the brute force, or None with it
    roots = [g for g in graphs_upto(7) if bipartition_of(g) is not None]
    assert len(roots) == 149
    rng = random.Random(5)
    roots += [random_bipartite_graph(rng) for _ in range(2000)]
    thetas = 0
    for h in roots:
        got = verify_root_properties(h).even_theta
        want = even_theta_by_path_triples(h)
        assert (got and got[:2]) == (want and want[:2]), h.strong_edges()
        if got:
            _assert_even_theta(h, got)
            thetas += 1
    assert thetas == 363


def _dense_root(seed, m):
    rng = random.Random(seed)
    cross = [(i, 8 + j) for i in range(8) for j in range(8)]
    rng.shuffle(cross)
    return graph_from_edges(16, cross[:m])


@pytest.mark.parametrize("h, pair", [
    *[(_dense_root(seed, 24), pair)
      for seed, pair in enumerate([(0, 3), (0, 1), (0, 1), (0, 2), (3, 4)])],
    *[(_dense_root(seed, 32), pair)
      for seed, pair in enumerate([(0, 1), (0, 1), (0, 1), (0, 1), (0, 2)])],
    (complete_bipartite(5, 5), (0, 1)),
])
def test_even_theta_pinned_on_dense_roots(h, pair):
    # the path-triple reference finds the same pairs on the 24-edge roots
    # and K5,5, in up to seconds each
    theta = verify_root_properties(h).even_theta
    assert theta[:2] == pair
    _assert_even_theta(h, theta)


@pytest.mark.parametrize("n, edges, theta", [
    # the second augmenting path 0-5-2-4-1 takes 2, the only way on from 7;
    # the third search enters 2 from 7 and undoes the step 5 -> 2, so the
    # path through 5 leaves through 3 instead
    (9, [(0, 5), (0, 7), (0, 8), (1, 4), (1, 6), (1, 8), (2, 4), (2, 5),
         (2, 7), (3, 5), (3, 6)],
     (0, 1, ((0, 5, 3, 6, 1), (0, 7, 2, 4, 1), (0, 8, 1)))),
    # the second path 0-5-8-7-1 takes 8 and 7; the third search enters 7
    # from 10 and undoes both steps 8 -> 7 and 5 -> 8, so the path through
    # 5 leaves through 9
    (12, [(0, 2), (0, 5), (0, 6), (1, 3), (1, 4), (1, 7), (2, 11), (3, 11),
          (4, 9), (5, 8), (5, 9), (6, 10), (7, 8), (7, 10)],
     (0, 1, ((0, 2, 11, 3, 1), (0, 5, 9, 4, 1), (0, 6, 10, 7, 1)))),
])
def test_even_theta_undoes_earlier_steps(n, edges, theta):
    h = graph_from_edges(n, edges)
    assert verify_root_properties(h).even_theta == theta
    assert theta[:2] == even_theta_by_path_triples(h)[:2]
    _assert_even_theta(h, theta)


def _reference_corpus():
    """Graphs on <= 7 vertices, planted trigraphs on base <= 6, the
    complements of both, and 1,000 random bipartite roots."""
    base = graphs_upto(7) + list(planted_class_f_trigraphs(6))
    rng = random.Random(61)
    return (base + [complement(t) for t in base]
            + [random_bipartite_graph(rng) for _ in range(1000)])


def test_bipartition_and_k4_minor_match_the_references():
    colorable = minors = 0
    for t in _reference_corpus():
        got = bipartition_of(t)
        assert got == bipartition_by_side_array(t), t
        colorable += got is not None
        got = has_k4_minor(t)
        assert got == has_k4_minor_by_counters(t), t
        minors += got
    # both answers occur often
    assert colorable > 1000 and minors > 1000


def test_k4_minor_detection(k4, c8):
    assert has_k4_minor(k4)
    assert not has_k4_minor(c8)
    subdivided = graph_from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert has_k4_minor(subdivided)
    assert not has_k4_minor(complete_bipartite(2, 3))
