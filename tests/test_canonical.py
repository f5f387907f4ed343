import itertools
import random

import networkx as nx
import pytest

from evenpairs import canonical, corpus
from evenpairs.canonical import (canonical_form, canonical_labeling,
                                 mask_automorphisms, relabel)
from evenpairs.corpus import (_degree_invariant, _mask_image, _orbit_firsts,
                              _pair_image, graphs_of_order, graphs_upto,
                              planted_class_f_trigraphs,
                              random_canonical_graphs)
from evenpairs import trigraph
from evenpairs.trigraph import bits_of, in_class_F

from conftest import (canonical_labeling_by_sorting, count_calls,
                      degree_invariant_by_sorting, graphs_of_order_by_sorting,
                      labeled_children_by_sorting, labeled_plants_by_sorting,
                      planted_class_f_trigraphs_by_sorting,
                      random_canonical_graphs_by_forms, random_graph,
                      random_trigraph)


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(51)
    for _ in range(200):
        t = random_trigraph(rng, rng.randint(1, 7))
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_form(t) == canonical_form(relabel(t, tuple(perm)))


def test_canonical_labeling_consistency():
    rng = random.Random(52)
    for _ in range(100):
        t = random_trigraph(rng, rng.randint(1, 7))
        form, perm = canonical_labeling(t)
        assert canonical_form(relabel(t, perm)) == form
        assert sorted(perm) == list(range(t.n))


def to_nx(t):
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.strong_edges())
    return g


def test_canonical_form_agrees_with_networkx_isomorphism():
    rng = random.Random(53)
    for _ in range(250):
        n = rng.randint(2, 7)
        a, b = random_graph(rng, n), random_graph(rng, n)
        assert (canonical_form(a) == canonical_form(b)) == \
            nx.is_isomorphic(to_nx(a), to_nx(b))


def test_labeling_matches_the_sorted_signature_reference():
    # every augmentation child on <= 7 vertices, every planting candidate on
    # a base of <= 6, and seeded random graphs and trigraphs on 8-10
    cases = [case for n in range(2, 8) for case in labeled_children_by_sorting(n)]
    cases += labeled_plants_by_sorting(6)
    rng = random.Random(54)
    for i in range(240):
        n = 8 + i % 3
        t = (random_graph(rng, n, rng.random()) if i % 2
             else random_trigraph(rng, n, rng.choice((0.05, 0.15, 0.4))))
        cases.append((t, canonical_labeling_by_sorting(t)))
    assert len(cases) == 11290 + 3343 + 240
    for t, expected in cases:
        assert canonical_labeling(t) == expected


def _forms(graphs):
    return [canonical_form(g) for g in graphs]


def test_enumeration_matches_the_reference_enumeration():
    # the canonical augmentation keeps other members of the classes than
    # the reference's dedupe by form, so the classes agree as sets of forms,
    # each met once
    for n in range(1, 8):
        forms = _forms(graphs_of_order(n))
        assert len(set(forms)) == len(forms)
        assert set(forms) == set(_forms(graphs_of_order_by_sorting(n)))
    forms = _forms(planted_class_f_trigraphs(6))
    assert len(set(forms)) == len(forms) == 379
    assert set(forms) == set(_forms(planted_class_f_trigraphs_by_sorting(6)))


def test_graphs_on_eight_vertices_are_distinct_classes():
    forms = set(_forms(graphs_of_order(8)))
    assert len(graphs_of_order(8)) == len(forms) == 12346


def test_each_representative_is_its_parent_plus_its_last_vertex():
    # deleting vertex n - 1 gives a level-(n - 1) representative, masks and
    # all
    for n in range(2, 9):
        parents = {tuple(G.strong) for G in graphs_of_order(n - 1)}
        below = (1 << (n - 1)) - 1
        for G in graphs_of_order(n):
            assert tuple(m & below for m in G.strong[:-1]) in parents
            assert not any(G.switch)


def test_enumeration_builds_a_trigraph_per_class_only(monkeypatch):
    # a child is tested on its masks, so only a kept child builds a
    # Trigraph, not each of the 11,290 children the bases have
    built = []
    init = trigraph.Trigraph.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(trigraph.Trigraph, "__init__", counting)
    graphs_of_order.cache_clear()
    classes = graphs_upto(7)
    assert len(classes) == 1252
    assert len(built) <= len(classes)


def test_the_empty_trigraph_has_the_empty_form():
    assert canonical_form(trigraph.make_trigraph(0)) == b"\x00"
    assert mask_automorphisms([], []) == ((), [])


def test_automorphisms_fix_the_trigraph():
    # every graph on <= 7 vertices, every planted member on a base of <= 6,
    # and seeded random graphs and trigraphs on 8-10, switchable pairs
    # included
    cases = graphs_upto(7) + list(planted_class_f_trigraphs(6))
    rng = random.Random(55)
    for i in range(240):
        n = 8 + i % 3
        cases.append(random_graph(rng, n, rng.random()) if i % 2
                     else random_trigraph(rng, n, rng.choice((0.05, 0.15, 0.4))))
    generators = 0
    for t in cases:
        perm, gens = mask_automorphisms(t.strong, t.switch)
        assert perm == canonical_labeling(t)[1]
        for g in gens:
            assert sorted(g) == list(range(t.n)) and g != tuple(range(t.n))
            assert _same_graphs([relabel(t, g)], [t])
            generators += 1
    assert generators > len(cases)


def test_orbit_firsts_are_the_orbit_minima_under_the_full_group():
    for G in graphs_upto(6):
        n = G.n
        group = [p for p in itertools.permutations(range(n))
                 if all(sum(1 << p[u] for u in bits_of(G.strong[v]))
                        == G.strong[p[v]] for v in range(n))]
        gens = mask_automorphisms(G.strong, G.switch)[1]
        masks = range(1 << n)
        assert list(_orbit_firsts(masks, gens, _mask_image)) == [
            m for m in masks
            if m == min(sum(1 << p[v] for v in range(n) if m >> v & 1)
                        for p in group)]
        pairs = list(itertools.combinations(range(n), 2))
        assert list(_orbit_firsts(pairs, gens, _pair_image)) == [
            (u, v) for u, v in pairs
            if (u, v) == min(tuple(sorted((p[u], p[v]))) for p in group)]


def test_enumeration_labels_one_child_per_orbit(monkeypatch):
    # orbit mates under the base's automorphisms are isomorphic, so only the
    # first of each orbit is a candidate, and only a candidate whose new
    # vertex ties another on (degree, neighbor degree sum) is labeled: 541
    # of the 11,290 augmentation children, besides one automorphism search
    # per base.  Planting labels nothing
    labelings = count_calls(monkeypatch, canonical, "canonical_labeling")
    searches = count_calls(monkeypatch, canonical, "mask_automorphisms")
    graphs_of_order.cache_clear()
    planted_class_f_trigraphs.cache_clear()
    assert len(graphs_upto(7)) == 1252
    bases = len(graphs_upto(6))
    assert bases == 208 and len(searches) == bases + 541
    assert not labelings
    searches.clear()
    assert len(planted_class_f_trigraphs(6)) == 379
    assert len(searches) == bases and not labelings


def test_graph_counts_per_order():
    # the numbers of graphs up to isomorphism on 1..7 vertices
    assert [len(graphs_of_order(n)) for n in range(1, 8)] == \
        [1, 2, 4, 11, 34, 156, 1044]


def test_graphs_upto_accumulates():
    assert len(graphs_upto(5)) == 1 + 2 + 4 + 11 + 34


def test_random_canonical_graphs_distinct():
    sample = random_canonical_graphs(7, 120, seed=5)
    forms = {canonical_form(g) for g in sample}
    assert len(forms) == 120
    assert all(g.n == 7 for g in sample)


def _same_graphs(xs, ys):
    return [(g.strong, g.switch) for g in xs] == [(g.strong, g.switch) for g in ys]


def test_random_canonical_graphs_match_the_form_per_draw_sampler():
    for n, count, seed in itertools.product((1, 4, 6, 8), (1, 5, 30),
                                            (0, 7)):
        try:
            expected = random_canonical_graphs_by_forms(n, count, seed)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                random_canonical_graphs(n, count, seed)
            continue
        assert _same_graphs(random_canonical_graphs(n, count, seed), expected)


def test_random_canonical_graphs_raise_at_the_same_draw_limit():
    # 4 classes on 3 vertices: a fifth is never found
    with pytest.raises(RuntimeError, match="could not collect 5 distinct"):
        random_canonical_graphs_by_forms(3, 5, 1)
    with pytest.raises(RuntimeError, match="could not collect 5 distinct"):
        random_canonical_graphs(3, 5, 1)


def test_census_sampling_computes_few_canonical_forms(monkeypatch):
    # the census jobs draw 20 classes on 8 vertices; each draw gets one
    # degree invariant, and needs a form only when an earlier draw shares it
    forms = count_calls(monkeypatch, canonical, "canonical_form")
    draws = count_calls(monkeypatch, corpus, "_degree_invariant")
    for seed in range(100):
        random_canonical_graphs(8, 20, seed)
        assert len(forms) <= len(draws)
    assert len(draws) == 2001
    assert len(forms) == 10


def test_degree_invariant_buckets_match_the_sorted_neighbor_degrees():
    # the count-per-degree-class key and the sorted-neighbor-degree key it
    # replaced put graphs in the same buckets: equal under one exactly when
    # equal under the other
    graphs = list(graphs_upto(7)) + [G for seed in range(100)
                                     for G in random_canonical_graphs(8, 20, seed)]
    keys = {(degree_invariant_by_sorting(G), _degree_invariant(G)) for G in graphs}
    buckets = len({old for old, _ in keys})
    assert buckets == len({new for _, new in keys}) == len(keys)
    # non-isomorphic graphs share buckets, so the split is not trivial
    assert 1000 < buckets < len(graphs) - 100


def test_planted_corpus_members_are_class_members():
    corpus = planted_class_f_trigraphs(5)
    assert corpus
    kinds = set()
    for t in corpus:
        verdict = in_class_F(t)
        assert verdict.ok and verdict.component is not None
        kinds.add(verdict.kind)
    assert kinds == {"small", "light"}
    assert len({canonical_form(t) for t in corpus}) == len(corpus)
