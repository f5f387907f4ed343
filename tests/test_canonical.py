import itertools
import random

import networkx as nx
import pytest

from evenpairs import canonical
from evenpairs.canonical import canonical_form, canonical_labeling, relabel
from evenpairs.corpus import (graphs_of_order, graphs_upto,
                              planted_class_f_trigraphs,
                              random_canonical_graphs)
from evenpairs import trigraph
from evenpairs.trigraph import in_class_F

from conftest import (count_calls, random_canonical_graphs_by_forms,
                      random_graph, random_trigraph)


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
    # the census jobs draw 20 classes on 8 vertices; a draw needs a form
    # only when an earlier draw shares its degree invariant
    forms = count_calls(monkeypatch, canonical, "canonical_form")
    draws = count_calls(monkeypatch, trigraph, "graph_from_edges")
    for seed in range(100):
        random_canonical_graphs(8, 20, seed)
        assert len(forms) <= len(draws)
    assert len(draws) == 2001
    assert len(forms) == 10


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
