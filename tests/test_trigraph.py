import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evenpairs.contraction import _merge
from evenpairs.errors import InputError
from evenpairs.families import (complete_graph, cycle, empty_graph, line_graph,
                                prism3)
from evenpairs.trigraph import (ANTI, STRONG, Trigraph, _paths, _reach, bits_of,
                                clique_number, complement, components,
                                full_realization, graph_from_edges,
                                in_class_F, induced, is_complete, iter_paths,
                                make_trigraph, mask_of, realization,
                                switchable_components, validate_hole,
                                validate_path)

from conftest import is_semirealization, iter_paths_with_used, random_trigraph


# -- construction ----------------------------------------------------------

def test_make_trigraph_defaults_to_antiadjacent():
    t = make_trigraph(2)
    assert t.value(0, 1) == ANTI
    assert t.is_graph


def test_make_trigraph_explicit_cycle(c5):
    built = make_trigraph(5, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert built == c5


@pytest.mark.parametrize("entries, message", [
    ([(0, 5, 1)], "out of range"),
    ([(0, 0, 1)], "out of range"),
    ([(0, 1, 1), (1, 0, -1)], "duplicate"),
    ([(0, 1, 7)], "illegal code"),
])
def test_make_trigraph_rejects_bad_entries(entries, message):
    with pytest.raises(InputError, match=message):
        make_trigraph(3, entries)


def test_vertex_cap():
    with pytest.raises(InputError, match="cap"):
        make_trigraph(33)
    with pytest.raises(InputError, match="nonnegative"):
        make_trigraph(-1)


@pytest.mark.parametrize("strong, switch, message", [
    ([0b10, 0b01], [0], "same vertices"),
    ([0b01, 0], [0, 0], "self-pair"),
    ([0b100, 0b1], [0, 0], "out of range"),
    ([0b10, 0b01], [0b10, 0b01], "both strong and switchable"),
    ([0b10, 0], [0, 0], "asymmetric"),
    ([0b10, 0], [0, 0b01], "asymmetric"),
])
def test_trigraph_rejects_inconsistent_masks(strong, switch, message):
    with pytest.raises(InputError, match=message):
        Trigraph(strong, switch)


def test_trigraph_names_the_pair_of_every_one_sided_flip():
    # flipping one off-diagonal bit of one row leaves exactly that pair
    # with codes that disagree; a flip that makes the pair both strong and
    # switchable in that row is refused by its own check instead
    rng = random.Random(31)
    flips = 0
    for n in sorted(3 * list(range(2, 13))):
        T = random_trigraph(rng, n, 0.2, 0.6)
        v = rng.randrange(n)
        for row in ("strong", "switch"):
            for u in range(n):
                if u == v:
                    continue
                strong, switch = list(T.strong), list(T.switch)
                (strong if row == "strong" else switch)[v] ^= 1 << u
                if strong[v] & switch[v]:
                    continue
                lo, hi = sorted((u, v))
                with pytest.raises(InputError,
                                   match=rf"^pair \({lo}, {hi}\) has asymmetric codes$"):
                    Trigraph(strong, switch)
                flips += 1
    assert flips > 200


def test_repr_names_the_kind_and_the_pair_counts():
    assert repr(cycle(5)) == "<graph n=5 strong=5 switchable=0>"
    assert repr(make_trigraph(3, [(0, 1, 0), (1, 2, 1)])) == (
        "<trigraph n=3 strong=1 switchable=1>")


def test_families_reject_bad_input():
    with pytest.raises(InputError, match="at least three vertices"):
        cycle(2)
    with pytest.raises(InputError, match="expects a graph"):
        line_graph(make_trigraph(2, [(0, 1, 0)]))


def test_value_rejects_out_of_range(c5):
    with pytest.raises(InputError, match="out of range"):
        c5.value(0, 5)
    with pytest.raises(InputError, match="no self-pair"):
        c5.value(2, 2)


# -- complement ------------------------------------------------------------

def test_complement_is_involution_on_randoms():
    rng = random.Random(0)
    for _ in range(50):
        t = random_trigraph(rng, rng.randint(0, 8))
        assert complement(complement(t)) == t


def test_complement_leaves_its_input_as_it_was():
    # nothing is attached to T, so a worker that is sent T gets T alone
    t = cycle(6)
    before = pickle.dumps(t)
    co = complement(t)
    assert pickle.dumps(t) == before and complement(co) == t


def test_complement_of_c6_is_prism(c6):
    co = complement(c6)
    # two disjoint triangles plus a perfect matching
    assert clique_number(co) == 3
    assert len(co.strong_edges()) == 9
    from evenpairs.canonical import canonical_form
    assert canonical_form(co) == canonical_form(prism3())


def test_complement_c5_self(c5):
    from evenpairs.canonical import canonical_form
    assert canonical_form(complement(c5)) == canonical_form(c5)


# -- induced ---------------------------------------------------------------

def test_induced_identity(c6):
    assert induced(c6, range(6)) == c6


def test_derived_trigraph_pickles_as_its_pair_codes(c4, c6):
    # a trigraph derived from another carries nothing beyond its pair codes
    assert pickle.dumps(induced(c6, range(6))) == pickle.dumps(c6)
    assert (pickle.dumps(_merge(c4, 0, 2))
            == pickle.dumps(graph_from_edges(3, [(0, 1), (0, 2)])))


def test_induced_of_c6_arc(c6):
    sub = induced(c6, [0, 1, 2])
    assert sorted(sub.strong_edges()) == [(0, 1), (1, 2)]


def test_induced_triangle_of_prism(c6):
    sub = induced(complement(c6), [0, 2, 4])
    assert is_complete(sub) and sub.is_graph


def test_induced_rejects_out_of_range(c6):
    with pytest.raises(InputError):
        induced(c6, [0, 9])


def test_induced_empty_allowed(c6):
    assert induced(c6, []).n == 0


# -- realizations ----------------------------------------------------------

def test_realization_of_graph_is_identity(c6):
    assert realization(c6, []) == c6


def test_realization_single_switchable_pair():
    t = make_trigraph(2, [(0, 1, 0)])
    assert realization(t, [(0, 1)]) == complete_graph(2)
    assert realization(t, []) == empty_graph(2)


def test_realization_rejects_non_switchable(c6):
    with pytest.raises(InputError, match="not switchable"):
        realization(c6, [(0, 1)])
    with pytest.raises(InputError, match="out of range"):
        realization(c6, [(0, 6)])


def test_every_realization_is_semirealization():
    rng = random.Random(1)
    for _ in range(30):
        t = random_trigraph(rng, rng.randint(1, 7))
        pairs = t.switchable_pairs()
        for r in range(len(pairs) + 1):
            chosen = pairs[:r]
            assert is_semirealization(realization(t, chosen), t)


def test_is_semirealization_reflexive_and_directional():
    rng = random.Random(2)
    for _ in range(30):
        t = random_trigraph(rng, rng.randint(1, 7))
        assert is_semirealization(t, t)
        assert is_semirealization(full_realization(t), t)
    base = make_trigraph(2, [(0, 1, 0)])
    fixed = make_trigraph(2)
    assert is_semirealization(fixed, base)
    assert not is_semirealization(base, complete_graph(2))


def test_is_semirealization_size_mismatch():
    with pytest.raises(InputError):
        is_semirealization(make_trigraph(2), make_trigraph(3))


# -- components ------------------------------------------------------------

def test_components_connected_c6(c6):
    assert components(c6) == [frozenset(range(6))]


def test_components_anticonnected_edge(c4):
    assert components(c4, [2, 3], "anticonnected") == [frozenset({2}), frozenset({3})]


def test_components_rejects_unknown_mode(c6):
    with pytest.raises(InputError, match="unknown mode"):
        components(c6, mode="strong")


def test_semiadjacent_counts_both_ways():
    t = make_trigraph(2, [(0, 1, 0)])
    assert components(t, mode="connected") == [frozenset({0, 1})]
    assert components(t, mode="anticonnected") == [frozenset({0, 1})]


def test_components_partition_and_maximality():
    rng = random.Random(3)
    for _ in range(40):
        t = random_trigraph(rng, rng.randint(1, 7))
        for mode in ("connected", "anticonnected"):
            comps = components(t, mode=mode)
            union = set().union(*comps) if comps else set()
            assert union == set(range(t.n))
            assert sum(len(c) for c in comps) == t.n
            # merging any two components must not be connected
            neigh = t.adj if mode == "connected" else t.anti
            for a, b in itertools.combinations(comps, 2):
                assert not any((neigh[u] >> v) & 1 for u in a for v in b)


def test_reach_matches_networkx_has_path():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    for _ in range(300):
        t = random_trigraph(rng, rng.randint(1, 9))
        for neigh in (t.adj, t.anti):
            mask = rng.randrange(1 << t.n)
            seed = mask & rng.randrange(1 << t.n)
            g = nx.Graph()
            g.add_nodes_from(bits_of(mask))
            g.add_edges_from((v, w) for v in bits_of(mask)
                             for w in bits_of(neigh[v] & mask))
            expected = sum(1 << w for w in bits_of(mask)
                           if any(nx.has_path(g, s, w) for s in bits_of(seed)))
            assert _reach(neigh, mask, seed) == expected, (t, mask, seed)


# -- paths -----------------------------------------------------------------

def oracle_paths(t, u, v):
    """Independent generator: check every vertex sequence directly."""
    found = []
    rest = [w for w in range(t.n) if w not in (u, v)]
    for k in range(len(rest) + 1):
        for interior in itertools.permutations(rest, k):
            seq = (u,) + interior + (v,)
            try:
                validate_path(t, seq)
            except InputError:
                continue
            found.append(seq)
    return sorted(found)


def test_enumerate_paths_c4(c4):
    assert list(iter_paths(c4, 0, 2)) == [(0, 1, 2), (0, 3, 2)]


def test_enumerate_paths_unique_on_path(p4):
    paths = list(iter_paths(p4, 0, 3))
    assert len(paths) == 1 and len(paths[0]) - 1 == 3


def test_enumerate_paths_c6_lengths(c6):
    assert sorted(len(seq) - 1 for seq in iter_paths(c6, 0, 2)) == [2, 4]


def test_enumerate_paths_against_oracle():
    rng = random.Random(4)
    for _ in range(60):
        t = random_trigraph(rng, rng.randint(2, 8))
        u, v = rng.sample(range(t.n), 2)
        got = list(iter_paths(t, u, v))
        assert sorted(got) == oracle_paths(t, u, v)
        assert got == sorted(got)  # lexicographic emission order
        for seq in got:
            validate_path(t, seq)


@pytest.mark.parametrize("u, v, bad", [(0, 9, 9), (-1, 3, -1)])
def test_enumerate_paths_rejects_out_of_range_ends(c6, u, v, bad):
    with pytest.raises(InputError, match=f"vertex {bad} out of range"):
        iter_paths(c6, u, v)


def test_iter_paths_rejects_equal_ends(c6):
    with pytest.raises(InputError, match="endpoints must differ"):
        iter_paths(c6, 2, 2)


def test_interior_restriction(c6):
    # the interior mask of the path search; the ends lie outside it
    seqs = list(_paths(c6.adj, c6.anti, 0, 1 << 2, 1 << 1))
    assert seqs == [(0, 1, 2)]


def test_iter_paths_matches_the_used_mask_reference():
    # every ordered pair, with no interior and with a seeded random one, on
    # graphs <= 6, planted trigraphs on base <= 5 and their complements
    from evenpairs.corpus import graphs_upto, planted_class_f_trigraphs

    rng = random.Random(14)
    paths = 0
    for t in list(graphs_upto(6)) + list(planted_class_f_trigraphs(5)):
        for g in (t, complement(t)):
            for u, v in itertools.permutations(range(g.n), 2):
                interior = [w for w in range(g.n) if rng.random() < 0.6]
                got = list(iter_paths(g, u, v))
                assert got == list(iter_paths_with_used(g, u, v)), (g, u, v)
                inner = list(_paths(g.adj, g.anti, u, 1 << v, mask_of(interior)))
                assert inner == list(iter_paths_with_used(g, u, v, interior)), (g, u, v, interior)
                paths += len(got) + len(inner)
    assert paths > 20_000


# -- switchable components and class membership ----------------------------

def test_graphs_have_no_switchable_components(c6):
    assert switchable_components(c6) == []


def test_switchable_component_small_and_light():
    small = make_trigraph(3, [(0, 1, 0), (1, 2, 1)])
    assert switchable_components(small) == [frozenset({0, 1})]
    light = make_trigraph(4, [(0, 1, 0), (1, 2, 0), (0, 3, 1), (2, 3, 1)])
    assert switchable_components(light) == [frozenset({0, 1, 2})]


def test_in_class_f_c6(c6):
    verdict = in_class_F(c6)
    assert verdict.ok and verdict.component is None


def test_in_class_f_rejects_common_neighbor():
    bad = make_trigraph(3, [(0, 1, 0), (0, 2, 1), (1, 2, 1)])
    verdict = in_class_F(bad)
    assert not verdict.ok and "common neighbor" in verdict.violation


def test_in_class_f_rejects_two_components():
    bad = make_trigraph(4, [(0, 1, 0), (2, 3, 0)])
    assert "more than one" in in_class_F(bad).violation


def test_in_class_f_rejects_non_berge(c5):
    assert in_class_F(c5).violation == "not Berge"


def test_in_class_f_light_conditions():
    light = make_trigraph(5, [(0, 1, 0), (1, 2, 0), (0, 3, 1), (2, 4, 1)])
    verdict = in_class_F(light)
    assert verdict.ok and verdict.kind == "light"
    # ends sharing a neighbor besides the center breaks the light shape
    bad = make_trigraph(4, [(0, 1, 0), (1, 2, 0), (0, 3, 1), (2, 3, 1)])
    assert "common neighbors besides the center" in in_class_F(bad).violation
    bad = make_trigraph(4, [(0, 1, 0), (1, 2, 0), (0, 3, 1), (1, 3, 1)])
    assert "center has a neighbor" in in_class_F(bad).violation
    bad = make_trigraph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
    assert "ends are not strongly antiadjacent" in in_class_F(bad).violation
    bad = make_trigraph(4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
    assert "more than two edges" in in_class_F(bad).violation


# -- completeness and cliques ----------------------------------------------

def test_is_complete(k4, c4):
    assert is_complete(k4)
    assert not is_complete(c4)
    assert is_complete(make_trigraph(2, [(0, 1, 0)]))


def test_clique_number_examples(c5, k4):
    assert clique_number(c5) == 2
    assert clique_number(k4) == 4
    assert clique_number(prism3()) == 3


def test_clique_number_against_subset_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = make_trigraph(n, [(u, v, 1)
                              for u, v in itertools.combinations(range(n), 2)
                              if rng.random() < 0.5])
        best = max(k for k in range(1, n + 1)
                   for s in itertools.combinations(range(n), k)
                   if all(g.value(a, b) == STRONG
                          for a, b in itertools.combinations(s, 2)))
        assert clique_number(g) == best


def test_clique_number_rejects_trigraph():
    with pytest.raises(InputError):
        clique_number(make_trigraph(2, [(0, 1, 0)]))


# -- witnesses -------------------------------------------------------------

def test_validate_hole(c6, c5):
    validate_hole(c6, (0, 1, 2, 3, 4, 5), "hole")
    with pytest.raises(InputError):
        validate_hole(c6, (0, 1, 2, 3), "hole")
    with pytest.raises(InputError):
        validate_hole(c6, (0, 1, 2, 4, 5), "hole")
    validate_hole(complement(c5), (0, 1, 2, 3, 4), "antihole")


@pytest.mark.parametrize("t, cycle_, kind, message", [
    (cycle(6), (0, 1, 2, 3, 4, 4), "hole", "hole vertices must be distinct"),
    (cycle(6), (0, 1, 2, 3, 4, 5), "cycle", "unknown hole kind 'cycle'"),
    (complete_graph(5), (0, 1, 2, 3, 4), "hole",
     r"chord pair \(0, 2\) not antiadjacent"),
], ids=["repeated", "kind", "chord"])
def test_validate_hole_errors(t, cycle_, kind, message):
    with pytest.raises(InputError, match=message):
        validate_hole(t, cycle_, kind)


@pytest.mark.parametrize("seq, message", [
    ((), "empty vertex sequence"),
    ((0, 1, 0), "path vertices must be distinct"),
], ids=["empty", "repeated"])
def test_validate_path_errors(c6, seq, message):
    with pytest.raises(InputError, match=message):
        validate_path(c6, seq)


# -- property tests --------------------------------------------------------

@st.composite
def trigraphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    entries = []
    for u, v in itertools.combinations(range(n), 2):
        code = draw(st.sampled_from([-1, -1, 0, 1, 1]))
        if code != -1:
            entries.append((u, v, code))
    return make_trigraph(n, entries)


@given(trigraphs())
@settings(max_examples=60, deadline=None)
def test_complement_involution_property(t):
    assert complement(complement(t)) == t


@given(trigraphs(max_n=5))
@settings(max_examples=40, deadline=None)
def test_full_realization_keeps_strong_edges(t):
    g = full_realization(t)
    assert g.is_graph
    assert is_semirealization(g, t)
    assert set(t.strong_edges()) <= set(g.strong_edges())
