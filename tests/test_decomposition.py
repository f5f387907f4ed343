import itertools
import random

import pytest

from evenpairs import decomposition
from evenpairs.corpus import (graphs_of_order, graphs_upto,
                              planted_class_f_trigraphs)
from evenpairs.decomposition import (TwoJoinSplit, _is_balanced,
                                     _odd_path_exists, _side_path_parities,
                                     _skew_masks, build_block,
                                     check_nobsp_2join_shape,
                                     find_2join, find_balanced_skew_partition,
                                     find_complement_2join, iter_2joins)
from evenpairs.detect import is_berge, is_even_pair
from evenpairs.errors import InputError
from evenpairs.families import cycle
from evenpairs.trigraph import (complement, components, full_realization,
                                in_class_F, make_trigraph, mask_of,
                                switchable_components)

from conftest import (count_calls, is_fragment, odd_path_exists_by_pairs,
                      random_graph, side_path_parities_by_pairs, split_for)


# -- star cutsets ------------------------------------------------------------

def test_star_cutset_p4(p4):
    wit = find_balanced_skew_partition(p4)
    assert wit.a == frozenset({0, 3}) and wit.b == frozenset({1, 2})
    assert wit.star == 1
    assert len(components(p4, wit.a)) > 1
    assert len(components(p4, wit.b, "anticonnected")) > 1


def test_star_cutset_absent(c6, k4):
    assert not _star_cutset_per_vertex(c6) and find_balanced_skew_partition(c6) is None
    assert not _star_cutset_per_vertex(k4) and find_balanced_skew_partition(k4) is None


def test_star_cutset_implies_bsp_for_berge():
    # star cutset forces a balanced skew-partition on Berge trigraphs:
    # exhaustive over all graphs up to six vertices plus the planted
    # trigraph corpus, then a random top-up at seven
    from evenpairs.corpus import graphs_upto, planted_class_f_trigraphs

    rng = random.Random(31)
    pool = list(graphs_upto(6)) + list(planted_class_f_trigraphs(5))
    pool += [random_graph(rng, 7) for _ in range(120)]
    hits = 0
    for g in pool:
        if not is_berge(g)[0]:
            continue
        if not _star_cutset_per_vertex(g):
            continue
        hits += 1
        assert find_balanced_skew_partition(g) is not None
    assert hits > 100


def _star_cutset_per_vertex(t):
    """Reference: B is a vertex v plus a nonempty set of its strong
    neighbors, tried for every such set, and A = V - B is nonempty and
    disconnected."""
    for v in range(t.n):
        nbrs = [w for w in range(t.n) if t.strong[v] >> w & 1]
        for size in range(1, len(nbrs) + 1):
            for chosen in itertools.combinations(nbrs, size):
                a = frozenset(range(t.n)) - {v, *chosen}
                if a and len(components(t, a)) > 1:
                    return True
    return False


def test_star_cutset_existence_matches_per_vertex_search():
    # a witness's star is the least vertex of B strongly complete to the
    # rest of B, and a witness with one is a star cutset by the reference
    from evenpairs.corpus import graphs_upto, planted_class_f_trigraphs

    hits = 0
    for t in list(graphs_upto(6)) + list(planted_class_f_trigraphs(5)):
        wit = find_balanced_skew_partition(t)
        if wit is None:
            continue
        b_mask = mask_of(wit.b)
        centers = [v for v in sorted(wit.b) if not t.anti[v] & b_mask]
        assert wit.star == (centers[0] if centers else None), t
        if centers:
            hits += 1
            assert _star_cutset_per_vertex(t), t
    assert hits > 100


# -- balanced skew-partitions -------------------------------------------------

def test_bsp_p4(p4):
    wit = find_balanced_skew_partition(p4)
    assert wit.balanced
    assert wit.a == frozenset({0, 3}) and wit.b == frozenset({1, 2})
    a1, a2, b1, b2 = wit.split
    assert a1 and a2 and b1 and b2
    # split sides behave as promised
    assert all(p4.value(u, v) == -1 for u in a1 for v in a2)
    assert all(p4.value(u, v) == 1 for u in b1 for v in b2)


def test_bsp_absent_on_c6_and_c8(c6, c8):
    assert find_balanced_skew_partition(c6) is None
    assert find_balanced_skew_partition(c8) is None


def test_bsp_total_on_non_berge(c5):
    # operation stays total off the Berge world
    find_balanced_skew_partition(c5)


def test_bsp_witness_takes_the_scan_balance(monkeypatch):
    # the scan's balance verdict goes into the witness: no skew-partition
    # is tested twice
    import evenpairs.decomposition as decomposition

    tested = count_calls(monkeypatch, decomposition, "_is_balanced")
    found = 0
    for g in graphs_of_order(5):
        tested.clear()
        wit = find_balanced_skew_partition(g)
        assert len(set(tested)) == len(tested)
        if wit is not None:
            found += 1
            assert wit.balanced and tested[-1] == (g, mask_of(wit.a), mask_of(wit.b))
    assert found > 0


def test_skew_partition_witness_takes_one_anticomponent_pass(monkeypatch):
    # a witness is built from one components pass over A and one
    # anticomponents pass over B, which also give its split and star center
    import evenpairs.trigraph as trigraph
    from evenpairs.corpus import graphs_upto

    passes = count_calls(monkeypatch, trigraph, "_mask_components")
    witnesses = 0
    for g in graphs_upto(6):
        passes.clear()
        wit = find_balanced_skew_partition(g)
        witnesses += wit is not None
        assert len(passes) == (0 if wit is None else 2)
    assert witnesses > 100


def test_balance_checker_direct(c6):
    # ends {0, 3} in B with interior {1, 2} in A: one odd path, unbalanced
    assert not _is_balanced(c6, mask_of({1, 2, 4, 5}), mask_of({0, 3}))


def _small_pool():
    """Graphs on <= 7 vertices and planted trigraphs on base <= 5, each with
    its complement."""
    pool = []
    for t in list(graphs_upto(7)) + list(planted_class_f_trigraphs(5)):
        pool += [t, complement(t)]
    return pool


def test_odd_path_exists_matches_the_per_pair_enumeration():
    rng = random.Random(11)
    checks = 0
    for t in _small_pool():
        co, full = complement(t), (1 << t.n) - 1
        masks = [rng.getrandbits(t.n) for _ in range(3)]
        masks += [m for m, _ in _skew_masks(t) if m not in masks]
        for a_mask in masks:
            a = frozenset(v for v in range(t.n) if a_mask >> v & 1)
            b = frozenset(v for v in range(t.n) if (full ^ a_mask) >> v & 1)
            # the two calls of the balance test, and T with the roles swapped;
            # the complement side runs on T's masks swapped
            for g, masks, ends, interior in ((t, (t.adj, t.anti), b, a),
                                             (co, (t.anti, t.adj), a, b),
                                             (t, (t.adj, t.anti), a, b)):
                assert (_odd_path_exists(*masks, mask_of(ends), mask_of(interior))
                        == odd_path_exists_by_pairs(g, ends, interior))
                checks += 1
    assert checks > 160_000


def test_odd_path_exists_on_a_stable_inner_set_runs_no_search(monkeypatch):
    # C6 with ends {0, 2, 4} and the stable inner set {1, 3, 5}: the only
    # paths are of length 2, and no odd one needs a search to rule out
    t = cycle(6)
    ends, inner = {0, 2, 4}, {1, 3, 5}
    paths = count_calls(monkeypatch, decomposition, "_paths")
    assert not _odd_path_exists(t.adj, t.anti, mask_of(ends), mask_of(inner))
    assert paths == []
    assert not odd_path_exists_by_pairs(t, ends, inner)


def test_side_path_parities_match_the_per_pair_enumeration():
    rng = random.Random(12)
    checks = 0
    for t in _small_pool():
        for _ in range(3):
            sides = [rng.randrange(3) for _ in range(t.n)]
            a, b, c = (frozenset(v for v in range(t.n) if sides[v] == i)
                       for i in range(3))
            assert (_side_path_parities(t, a, b, c)
                    == side_path_parities_by_pairs(t, a, b, c))
            checks += 1
    assert checks > 7_000


# -- 2-joins -------------------------------------------------------------------

def test_c8_two_join(c8):
    s = find_2join(c8)
    assert (s.a1, s.b1, s.c1) == (frozenset({0}), frozenset({3}), frozenset({1, 2}))
    assert (s.a2, s.b2, s.c2) == (frozenset({7}), frozenset({4}), frozenset({5, 6}))
    assert s.parity == "odd" and s.proper


def test_c6_has_no_two_join(c6):
    assert find_2join(c6) is None


def test_c10_even_join():
    c10 = cycle(10)
    s = split_for(c10, {0, 1, 2, 3, 4})
    assert s is not None and s.parity == "even" and s.proper
    assert s.a1 == frozenset({0}) and s.b1 == frozenset({4})


def test_two_join_roundtrip_validation(c8):
    # every returned split re-validates against the definition bullets
    for s in itertools.islice(iter_2joins(c8), 10):
        x1, x2 = s.x1, s.x2
        assert x1 | x2 == set(range(8)) and not (x1 & x2)
        assert s.a1 and s.a2 and s.b1 and s.b2
        assert len(x1) >= 3 and len(x2) >= 3
        for u in s.a1:
            assert all(c8.value(u, v) == 1 for v in s.a2)
        for u in s.b1:
            assert all(c8.value(u, v) == 1 for v in s.b2)
        for u in s.c1 | s.a1 | s.b1:
            for v in s.c2 | s.a2 | s.b2:
                inside_bundles = (u in s.a1 and v in s.a2) or (u in s.b1 and v in s.b2)
                if not inside_bundles:
                    assert c8.value(u, v) == -1


def test_two_join_scan_builds_no_trigraph(c8, monkeypatch):
    # splits are derived on the masks of the input; no side is rebuilt as
    # a trigraph of its own
    from evenpairs.trigraph import Trigraph

    built = []
    init = Trigraph.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Trigraph, "__init__", counting)
    splits = list(iter_2joins(c8))
    assert len(splits) == 8 and built == []


def test_join_parity(c8):
    assert find_2join(c8).parity == "odd"
    c10 = cycle(10)
    assert split_for(c10, {0, 1, 2, 3, 4}).parity == "even"


def test_split_side_is_one_or_two(c8):
    split = find_2join(c8)
    assert split.side(1) == (split.a1, split.b1, split.c1)
    assert split.side(2) == (split.a2, split.b2, split.c2)
    with pytest.raises(InputError, match="side must be 1 or 2"):
        split.side(3)


def test_complement_two_join(c8, c6, k4):
    s = find_complement_2join(complement(c8))
    assert s is not None and s.x1 == frozenset({0, 1, 2, 3})
    assert find_complement_2join(c6) is None
    assert find_complement_2join(k4) is None


def test_is_fragment(c8, c6):
    assert is_fragment(c8, {0, 1, 2, 3})
    assert not is_fragment(c8, {0, 1})
    assert not any(is_fragment(c6, set(c))
                   for k in range(1, 6)
                   for c in itertools.combinations(range(6), k))


@pytest.mark.parametrize("check", [split_for, is_fragment])
@pytest.mark.parametrize("X, bad", [({0, 1, 2, 3, 9}, 9), ({0, 1, -2}, -2)])
def test_split_for_rejects_out_of_range_vertices(c8, check, X, bad):
    with pytest.raises(InputError, match=f"vertex {bad} out of range"):
        check(c8, X)


# -- blocks --------------------------------------------------------------------

def test_block_of_c8_is_six_hole_with_switch(c8):
    s = find_2join(c8)
    block = build_block(c8, s, 1)
    assert block.kind == "small" and block.markers == (4, 5)
    assert block.trigraph.value(4, 5) == 0
    fr = full_realization(block.trigraph)
    assert sorted(m.bit_count() for m in fr.adj) == [2] * 6
    assert is_berge(block.trigraph)[0]
    assert in_class_F(block.trigraph).ok
    assert switchable_components(block.trigraph) == [frozenset({4, 5})]


def test_block_of_c8_reserializes_to_explicit_construction(c8):
    # the block equals the trigraph built from explicit entries: the path
    # 0-1-2-3 plus marker 4 on the A end, marker 5 on the B end, and the
    # switchable marker pair
    block = build_block(c8, find_2join(c8), 1)
    expected = make_trigraph(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                 (0, 4, 1), (3, 5, 1), (4, 5, 0)])
    assert block.trigraph == expected


def test_block_of_c10_light(c8):
    c10 = cycle(10)
    s = split_for(c10, {0, 1, 2, 3, 4})
    block = build_block(c10, s, 1)
    assert block.kind == "light" and block.markers == (5, 6, 7)
    fr = full_realization(block.trigraph)
    # full realization closes into an 8-cycle
    assert sorted(m.bit_count() for m in fr.adj) == [2] * 8
    assert switchable_components(block.trigraph) == [frozenset({5, 6, 7})]
    assert block.trigraph.value(5, 7) == -1


def test_block_side_two_symmetric(c8):
    s = find_2join(c8)
    block = build_block(c8, s, 2)
    assert sorted(v for v in block.parent_map if v is not None) == [4, 5, 6, 7]
    assert block.kind == "small"


def test_block_requires_known_parity(c8):
    s = find_2join(c8)
    broken = type(s)(s.a1, s.b1, s.c1, s.a2, s.b2, s.c2, None, True)
    with pytest.raises(InputError):
        build_block(c8, broken, 1)
    improper = type(s)(s.a1, s.b1, s.c1, s.a2, s.b2, s.c2, "odd", False)
    with pytest.raises(InputError):
        build_block(c8, improper, 1)


def test_block_even_pair_lifts_to_parent(c8):
    s = find_2join(c8)
    block = build_block(c8, s, 1)
    t = block.trigraph
    markers = set(block.markers)
    for u, v in itertools.combinations(range(t.n), 2):
        if {u, v} & markers or t.value(u, v) != -1:
            continue
        if is_even_pair(t, u, v).is_even_pair:
            pu, pv = block.parent_map[u], block.parent_map[v]
            assert is_even_pair(c8, pu, pv).is_even_pair


# -- shape report ---------------------------------------------------------------

def test_shape_report_clean(c8):
    assert check_nobsp_2join_shape(c8, find_2join(c8)).ok


def test_shape_report_names_an_improper_split(c8):
    s = find_2join(c8)
    improper = TwoJoinSplit(s.a1, s.b1, s.c1, s.a2, s.b2, s.c2, s.parity, proper=False)
    assert check_nobsp_2join_shape(c8, improper).violations == ("2-join is not proper",)


def test_shape_report_negative_control():
    # a small-side 2-join on a skew-partition-having graph gets named violations
    edges = [(0, 1), (0, 2), (1, 2), (2, 3),
             (4, 5), (4, 6), (5, 6), (6, 7),
             (0, 4), (0, 5), (1, 4), (1, 5), (3, 7)]
    from evenpairs.trigraph import graph_from_edges

    g = graph_from_edges(8, edges)
    s = find_2join(g)
    report = check_nobsp_2join_shape(g, s)
    assert not report.ok
    assert any("|X1| < 4" in v for v in report.violations)
    from evenpairs.certs import to_jsonable

    assert to_jsonable(report) == {
        "kind": "two_join_shape", "ok": False,
        "violations": ["|X1| < 4", "C1 empty but A1 or B1 is a singleton"]}
    # its C1 is empty, so the parity comes from the direct A-B edges
    assert s.c1 == frozenset() and s.parity == "odd"
