"""Acceptance suite: each test runs one acceptance criterion end to end at
its stated scale and prints a PASS line with the observed counts.

These are exhaustive or large-sample runs; the whole module takes a few
minutes.  Every expectation is zero-tolerance (structural equalities), no
numeric slack anywhere.
"""

import itertools
import random

from evenpairs.basic import favorability, find_good_pair, verify_root_properties
from evenpairs.contraction import (_merge, derive_coloring,
                                   run_contraction_sequence)
from evenpairs.corpus import graphs_upto, planted_class_f_trigraphs
from evenpairs import trigraph
from evenpairs.decomposition import (_skew_masks, build_block,
                                     find_balanced_skew_partition, iter_2joins)
from evenpairs.detect import (_gadget_sees_odd_path,
                              find_antihole_of_length_at_least, find_prism,
                              is_berge, is_even_pair)
from evenpairs.engine import verify_main_theorem
from evenpairs.families import line_graph
from evenpairs.trigraph import (ANTI, bits_of, clique_number, components,
                                is_complete)

from conftest import count_calls, random_bipartite_graph


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


# -- criterion 1: main theorem on graphs -------------------------------------

def test_criterion_1_main_theorem_graphs_exhaustive():
    summary = verify_main_theorem(7, "graphs")
    assert summary.failures == (), summary.failures
    assert summary.instances == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    assert summary.filtered_in == summary.complete + summary.even_pair
    report("criterion 1 (exhaustive n<=7)",
           f"{summary.instances} graphs, {summary.filtered_in} past the filter, "
           f"{summary.complete} complete, {summary.even_pair} with even pairs, "
           f"0 failures")


def test_criterion_1_main_theorem_graphs_exhaustive_n8(monkeypatch):
    # the run builds no complement
    complements = count_calls(monkeypatch, trigraph, "complement")
    summary = verify_main_theorem(8, "graphs")
    assert summary.failures == (), summary.failures[:3]
    assert (summary.instances, summary.filtered_in, summary.complete,
            summary.even_pair) == (13598, 23, 8, 15)
    assert complements == []
    report("criterion 1 (exhaustive n<=8)",
           f"{summary.instances} graphs, {summary.filtered_in} past the filter, "
           f"{summary.complete} complete, {summary.even_pair} with even pairs, "
           f"0 failures")


# -- criterion 2: trigraph generalization ------------------------------------

def test_criterion_2_trigraphs_in_class():
    summary = verify_main_theorem(6, "trigraphs_in_F")
    assert summary.failures == (), summary.failures
    assert summary.instances == len(planted_class_f_trigraphs(6))
    report("criterion 2 (planted trigraphs, base n<=6)",
           f"{summary.instances} planted members, {summary.filtered_in} past "
           f"the filter, {summary.even_pair} with even pairs, 0 failures")


# -- criterion 3: contraction invariants --------------------------------------

def test_criterion_3_contraction_invariants():
    graphs = [g for g in graphs_upto(7) if is_berge(g)[0]]
    pairs_checked = 0
    for g in graphs:
        omega = clique_number(g)
        for u, v in itertools.combinations(range(g.n), 2):
            if g.value(u, v) != ANTI:
                continue
            if not is_even_pair(g, u, v).is_even_pair:
                continue
            contracted = _merge(g, u, v)
            assert is_berge(contracted)[0], (g.strong_edges(), (u, v))
            assert clique_number(contracted) == omega, (g.strong_edges(), (u, v))
            pairs_checked += 1
    report("criterion 3 (contraction invariants)",
           f"{len(graphs)} Berge graphs, {pairs_checked} even-pair "
           f"contractions, Bergeness and clique number preserved exactly")


# -- criterion 4: 2-join parity ------------------------------------------------

def test_criterion_4_two_join_parity():
    corpus = list(planted_class_f_trigraphs(6))
    joins = 0
    for t in corpus:
        for split in iter_2joins(t):
            if not split.proper:
                continue
            joins += 1
            assert split.parity in ("odd", "even"), \
                (t.strong_edges(), t.switchable_pairs(), split)
    assert joins > 0
    report("criterion 4 (2-join parity)",
           f"{joins} proper 2-joins over {len(corpus)} class members, "
           f"all with a single path parity")


# -- criterion 5: block theorems -------------------------------------------------

def test_criterion_5_block_theorems():
    # the planted corpus plus the even cycles, which are the desk-scale
    # members that carry fragments while having no balanced skew-partition
    from evenpairs.families import cycle

    corpus = list(planted_class_f_trigraphs(6)) + [cycle(8), cycle(10), cycle(12)]
    fragments = blocks_clean = lifted = 0
    for t in corpus:
        no_bsp = find_balanced_skew_partition(t) is None
        strong_hyp = (no_bsp and find_prism(t) is None
                      and find_antihole_of_length_at_least(t, 5) is None)
        for split in iter_2joins(t):
            if not split.proper or split.parity is None:
                continue
            for side in (1, 2):
                fragments += 1
                block = build_block(t, split, side)
                bt = block.trigraph
                assert is_berge(bt)[0], (t, split, side)
                if no_bsp:
                    assert find_balanced_skew_partition(bt) is None, (t, split)
                    blocks_clean += 1
                if strong_hyp:
                    assert find_prism(bt) is None, (t, split)
                    assert find_antihole_of_length_at_least(bt, 5) is None
                markers = set(block.markers)
                for u, v in itertools.combinations(range(bt.n), 2):
                    if {u, v} & markers or bt.value(u, v) != ANTI:
                        continue
                    if not is_even_pair(bt, u, v).is_even_pair:
                        continue
                    pu, pv = block.parent_map[u], block.parent_map[v]
                    assert is_even_pair(t, pu, pv).is_even_pair, \
                        (t, split, side, (u, v))
                    lifted += 1
    assert fragments > 0 and lifted > 0
    report("criterion 5 (block theorems)",
           f"{fragments} fragments, {blocks_clean} no-BSP blocks verified, "
           f"{lifted} block even pairs lifted to the parent, 0 violations")


# -- criterion 6: good pairs ------------------------------------------------------

def test_criterion_6_good_pairs_on_random_roots():
    rng = random.Random(66)
    accepted = skipped = 0
    complete_line_graphs = 0
    while accepted < 1000:
        h = random_bipartite_graph(rng, max_edges=12)
        root_report = verify_root_properties(h)
        # K4 has maximum degree 3, so a K4 minor gives a K4 subdivision;
        # two of its branch vertices share a side and span an even theta
        assert root_report.even_theta or not root_report.has_k4_minor, h.strong_edges()
        lg, edges = line_graph(h)
        if find_prism(lg) is not None:
            # the odd prism of the line graph is an even theta of the root
            assert root_report.even_theta, h.strong_edges()
            skipped += 1
            continue
        accepted += 1
        assert root_report.ok, h.strong_edges()
        witness = find_good_pair(h)
        if is_complete(lg):
            complete_line_graphs += 1
            continue
        assert witness is not None, h.strong_edges()
        edge_to_vertex = {frozenset(e): i for i, e in enumerate(edges)}
        u = edge_to_vertex[frozenset(witness.edge1)]
        v = edge_to_vertex[frozenset(witness.edge2)]
        assert is_even_pair(lg, u, v).is_even_pair, h.strong_edges()
    report("criterion 6 (good pairs)",
           f"1000 odd-prism-free roots (<=12 edges); root properties clean; "
           f"{skipped} roots with an odd-prism line graph skipped, each with an "
           f"even theta; every K4 minor spans an even theta; "
           f"{complete_line_graphs} complete line graphs skipped; every other "
           f"witness lifted to a verified even pair")


# -- criterion 7: favorability ------------------------------------------------------

def test_criterion_7_unfavorable_members_are_tiny():
    corpus = list(planted_class_f_trigraphs(6))
    unfavorable = 0
    for t in corpus:
        if find_balanced_skew_partition(t) is not None:
            continue
        if find_antihole_of_length_at_least(t, 6) is not None:
            continue
        if favorability(t).favorable:
            continue
        unfavorable += 1
        assert is_complete(t) or t.n <= 5, (t.strong_edges(),
                                            t.switchable_pairs())
    report("criterion 7 (favorability)",
           f"{unfavorable} unfavorable no-BSP members, every one complete "
           f"or on at most five vertices")


# -- criterion 8: coloring -----------------------------------------------------------

def test_criterion_8_contraction_colorings():
    contractile = 0
    stuck = 0
    for g in graphs_upto(7):
        if not is_berge(g)[0]:
            continue
        seq = run_contraction_sequence(g)
        if seq.outcome != "complete":
            stuck += 1
            continue
        contractile += 1
        coloring = derive_coloring(seq)
        assert coloring.color_count == clique_number(g)
        for u, v in g.strong_edges():
            assert coloring.assignment[u] != coloring.assignment[v]
    assert contractile > 0
    report("criterion 8 (colorings)",
           f"{contractile} even-contractile Berge graphs at n<=7 colored with "
           f"exactly clique-number colors ({stuck} not even-contractile)")


# -- criterion 9: dual-method agreement ------------------------------------------------

def test_criterion_9_gadget_vs_enumeration():
    pairs = 0
    for g in graphs_upto(7):
        for u, v in itertools.combinations(range(g.n), 2):
            if g.value(u, v) != ANTI:
                continue
            pairs += 1
            enumerated = is_even_pair(g, u, v)  # raises on any disagreement
            gadget_odd = _gadget_sees_odd_path(g, u, v)
            assert gadget_odd == (enumerated.verdict == "not_even_pair")
    report("criterion 9 (dual-method even pairs)",
           f"{pairs} nonadjacent pairs across all graphs n<=7, gadget and "
           f"enumeration in full agreement")


# -- criterion 10: a skew-partition forces a balanced one ---------------------

def test_criterion_10_skew_partitions_are_balanced():
    # Chudnovsky, Robertson, Seymour and Thomas: a Berge graph with a
    # skew-partition has a balanced one.  Checked here, on trigraphs too,
    # and never assumed by the library.
    corpora = {"Berge graphs n<=7": [g for g in graphs_upto(7) if is_berge(g)[0]],
               "planted trigraphs base n<=6": planted_class_f_trigraphs(6)}
    counts = {}
    for name, instances in corpora.items():
        skew = 0
        for T in instances:
            leaf = next(_skew_masks(T), None)
            if leaf is None:
                continue
            a = set(bits_of(leaf[0]))
            assert len(components(T, a, "connected")) > 1
            assert len(components(T, set(range(T.n)) - a, "anticonnected")) > 1
            skew += 1
            assert find_balanced_skew_partition(T) is not None, T
        counts[name] = (len(instances), skew)
    assert counts == {"Berge graphs n<=7": (1105, 1086),
                      "planted trigraphs base n<=6": (379, 358)}
    report("criterion 10 (skew implies balanced skew)",
           ", ".join(f"{skew} of {total} {name} have a skew-partition"
                     for name, (total, skew) in counts.items())
           + "; every one has a balanced one, 0 exceptions")
