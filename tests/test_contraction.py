import itertools
import random
from collections import Counter

import pytest

from evenpairs.contraction import (_merge, derive_coloring,
                                   run_contraction_sequence)
from evenpairs.corpus import graphs_upto
from evenpairs.detect import is_berge, is_even_pair
from evenpairs.errors import InputError, NonBergeError
from evenpairs.families import cycle, empty_graph, prism3
from evenpairs.formats import from_graph6
from evenpairs.trigraph import clique_number, is_complete, make_trigraph

from conftest import count_calls, merge_by_renumbering, random_graph


def test_contract_c4_gives_path(c4):
    g = _merge(c4, 0, 2)
    assert g.n == 3
    assert sorted(g.strong_edges()) == [(0, 1), (0, 2)]


def test_contract_two_isolated_vertices():
    g = _merge(empty_graph(2), 0, 1)
    assert g.n == 1


def test_contract_c6_preserves_clique_number(c6):
    g = _merge(c6, 0, 2)
    assert g.n == 5 and clique_number(g) == 2


def test_contract_rejects_trigraph():
    t = make_trigraph(3, [(0, 1, 0)])
    with pytest.raises(InputError, match="graph input"):
        run_contraction_sequence(t)


def test_sequence_c4_two_steps(c4):
    seq = run_contraction_sequence(c4)
    assert seq.outcome == "complete"
    assert [s.pair for s in seq.steps] == [(0, 2), (1, 2)]
    assert seq.terminal.n == 2 and is_complete(seq.terminal)


def test_sequence_complete_input_is_empty(k4):
    seq = run_contraction_sequence(k4)
    assert seq.outcome == "complete" and not seq.steps
    assert seq.initial == seq.terminal == k4


def test_sequence_rejects_non_berge(c5):
    with pytest.raises(NonBergeError):
        run_contraction_sequence(c5)


def test_c6_even_contractile(c6):
    seq = run_contraction_sequence(c6)
    assert seq.outcome == "complete" and seq.terminal.n == 2


def test_every_step_revalidates():
    rng = random.Random(21)
    checked = 0
    while checked < 10:
        g = random_graph(rng, 6)
        if not is_berge(g)[0]:
            continue
        checked += 1
        seq = run_contraction_sequence(g)
        before = seq.initial
        for step in seq.steps:
            assert is_even_pair(before, *step.pair).is_even_pair
            before = step.after


def test_derive_coloring_c4(c4):
    seq = run_contraction_sequence(c4)
    coloring = derive_coloring(seq)
    assert coloring.color_count == 2
    a = coloring.assignment
    assert a[0] == a[2] and a[1] == a[3] and a[0] != a[1]


def test_derive_coloring_complete(k4):
    coloring = derive_coloring(run_contraction_sequence(k4))
    assert coloring.color_count == 4
    assert len(set(coloring.assignment)) == 4


def test_derive_coloring_c6(c6):
    coloring = derive_coloring(run_contraction_sequence(c6))
    assert coloring.color_count == 2
    assert coloring.assignment[0] != coloring.assignment[1]


def test_derive_coloring_rejects_stuck():
    # prism3 has no even pair at all; FCrQo has no complete sequence, so
    # the search falls back to the greedy one, stuck after (0, 2)
    for G, pairs in [(prism3(), []), (from_graph6("FCrQo"), [(0, 2)])]:
        seq = run_contraction_sequence(G)
        assert seq.outcome == "stuck" and not is_complete(seq.terminal)
        assert [s.pair for s in seq.steps] == pairs
        with pytest.raises(InputError):
            derive_coloring(seq)


@pytest.mark.parametrize("G", [cycle(8), cycle(10), from_graph6("FCrQo")],
                         ids=["C8", "C10", "FCrQo"])
def test_each_contracted_pair_is_checked_once(monkeypatch, G):
    # the scan's oracle check (with its gadget cross-check) is the only one
    # a contracted pair gets; the merge does not check it again
    from evenpairs import detect

    checks, gadgets = Counter(), Counter()

    def counted(counter, original):
        def wrapper(T, u, v, *args, **kwargs):
            counter[T, (min(u, v), max(u, v))] += 1
            return original(T, u, v, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(detect, "_gadget_sees_odd_path",
                        counted(gadgets, detect._gadget_sees_odd_path))
    monkeypatch.setattr(detect, "is_even_pair", counted(checks, detect.is_even_pair))
    seq = run_contraction_sequence(G)
    assert seq.steps
    befores = (seq.initial,) + tuple(step.after for step in seq.steps)
    for before, step in zip(befores, seq.steps):
        assert checks[before, step.pair] == 1
        assert gadgets[before, step.pair] == 1


def test_search_keys_no_graph_before_a_dead_end(monkeypatch):
    # C10 contracts to a clique on the first descent, so no graph is ever
    # exhausted and no canonical key is needed
    import evenpairs.canonical as canonical

    keys = count_calls(monkeypatch, canonical, "canonical_form")
    assert run_contraction_sequence(cycle(10)).outcome == "complete"
    assert keys == []


def test_merge_deletes_the_vertex_as_renumbering_does():
    # every pair u < v, adjacent pairs included: _merge does not ask for an
    # even pair
    merged = 0
    for G in graphs_upto(7):
        for u, v in itertools.combinations(range(G.n), 2):
            assert _merge(G, u, v) == merge_by_renumbering(G, u, v), (G, u, v)
            merged += 1
    assert merged == 24684


def test_contraction_preserves_berge_and_clique_number():
    # contraction of an even pair preserves Bergeness and clique number
    rng = random.Random(22)
    checked = 0
    while checked < 15:
        g = random_graph(rng, rng.randint(3, 6))
        if not is_berge(g)[0]:
            continue
        pairs = [(u, v) for u, v in itertools.combinations(range(g.n), 2)
                 if g.value(u, v) == -1 and is_even_pair(g, u, v).is_even_pair]
        if not pairs:
            continue
        checked += 1
        for u, v in pairs:
            h = _merge(g, u, v)
            assert is_berge(h)[0]
            assert clique_number(h) == clique_number(g)
