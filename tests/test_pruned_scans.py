"""The pruned structure searches against flat scans of every candidate.

``_pruned_masks`` skips only subtrees its step rules out, so the BSP,
2-join and good-partition searches built on it must give what a scan of
every bipartition in increasing mask order gives; the prism search skips
only triangle pairs no matching can join.  The flat references below are
those scans, and the work pins keep the searches far from 2^n on the
class members that used to force the whole scan.  The skew and 2-join
steps, which carry a state down the tree, are also compared node by node
with the stateless predicates they replaced (kept in conftest), and the
leaf states they hand over with the scans of the leaf they replaced: the
bundles of X1 for 2-joins, the one-vertex anticomponents of B for star
centers.
"""

import itertools
import random
import sys
import tracemalloc

import pytest

from evenpairs import basic, decomposition, detect
from evenpairs.basic import GoodPartition, _good_partition_masks, good_partition_of
from evenpairs.corpus import (graphs_upto, planted_class_f_trigraphs,
                              random_canonical_graphs)
from evenpairs.decomposition import (_is_balanced, _mask_connected,
                                     _skew_masks, _two_join_step, find_2join,
                                     find_balanced_skew_partition, iter_2joins)
from evenpairs.detect import _iter_prisms, find_prism, validate_prism
from evenpairs.engine import check_preconditions
from evenpairs.families import cycle, line_graph
from evenpairs.trigraph import (_pruned_masks, bits_of, complement,
                                graph_from_edges, mask_of)

from conftest import (_bundles, count_calls, extend_rungs_by_grow,
                      random_bipartite_graph, random_graph, random_trigraph,
                      skew_feasible_by_connectivity, skew_witness_by_components,
                      split_by_bundles, two_join_feasible_by_bundles)


def _instances():
    rng = random.Random(606)
    for n in range(7, 13):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for T in (random_graph(rng, n, p), random_trigraph(rng, n, p / 5, p)):
                yield T
                yield complement(T)
    roots = 0
    while roots < 12:
        lg, _ = line_graph(random_bipartite_graph(rng, 12))
        if 7 <= lg.n:
            roots += 1
            yield lg
            yield complement(lg)


INSTANCES = list(_instances())


def flat_2joins(T):
    splits = (split_by_bundles(T, x1) for x1 in range(1, (1 << T.n) - 1))
    return [s for s in splits if s is not None]


def flat_skew_masks(T):
    full = (1 << T.n) - 1
    for a_mask in range(1, full):
        b_mask = full ^ a_mask
        if not (_mask_connected(T.anti, b_mask) or _mask_connected(T.adj, a_mask)):
            yield a_mask, b_mask


def flat_bsp(T):
    for a_mask, b_mask in flat_skew_masks(T):
        if _is_balanced(T, a_mask, b_mask):
            return skew_witness_by_components(T, a_mask)
    return None


def flat_good_partition(T):
    full = (1 << T.n) - 1
    for x_mask in itertools.chain(range(1, full), (0, full)):
        if _good_partition_masks(T, x_mask):
            x = frozenset(bits_of(x_mask))
            return GoodPartition(x, frozenset(range(T.n)) - x)
    return None


def flat_prisms(T):
    """Every pair of disjoint triangles, every matching of their vertices,
    each rung grown by the reference DFS."""
    adj = T.adj
    triangles = [(a, b, c) for a, b, c in itertools.combinations(range(T.n), 3)
                 if adj[a] >> b & 1 and adj[c] >> a & 1 and adj[c] >> b & 1]
    for ia, tri_a in enumerate(triangles):
        for tri_b in triangles[ia + 1:]:
            if mask_of(tri_a) & mask_of(tri_b):
                continue
            for perm in itertools.permutations(tri_b):
                if all(not adj[tri_a[i]] >> perm[j] & 1
                       for i in range(3) for j in range(3) if i != j):
                    yield from extend_rungs_by_grow(T, tri_a, perm, 0,
                                                    mask_of(tri_a) | mask_of(tri_b), ())


def test_instances_cover_the_structures():
    assert len(INSTANCES) == 6 * 5 * 4 + 2 * 12
    for has in (lambda T: find_balanced_skew_partition(T) is not None,
                lambda T: next(iter_2joins(T), None) is not None,
                lambda T: good_partition_of(T) is not None,
                lambda T: next(_iter_prisms(T), None) is not None):
        assert 10 < sum(map(has, INSTANCES)) < len(INSTANCES) - 10


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_pruned_searches_match_flat_scans(index):
    T = INSTANCES[index]
    assert list(iter_2joins(T)) == flat_2joins(T)
    assert find_balanced_skew_partition(T) == flat_bsp(T)
    assert good_partition_of(T) == flat_good_partition(T)
    assert list(_iter_prisms(T)) == list(flat_prisms(T))


@pytest.mark.parametrize("n", range(10, 21))
def test_prisms_match_the_flat_scan_on_complements_of_cycles(n):
    # dense: every vertex of co-C_n is in a triangle, and most triangle
    # pairs are blocked
    T = complement(cycle(n))
    assert list(_iter_prisms(T)) == list(flat_prisms(T))


def test_prisms_match_the_reference_rungs_on_small_classes():
    # the census corpora: graphs <= 7, planted trigraphs on base <= 6 and
    # the sampled classes on 8 vertices of seeds 100-109, with their
    # complements; every prism yielded is also checked by validate_prism
    census = (list(graphs_upto(7)) + list(planted_class_f_trigraphs(6))
              + [G for seed in range(100, 110)
                 for G in random_canonical_graphs(8, 20, seed)])
    prisms = 0
    for t in census:
        for g in (t, complement(t)):
            got = list(_iter_prisms(g))
            assert got == list(flat_prisms(g)), g
            for witness in got:
                validate_prism(g, witness)
            prisms += len(got)
    assert len(census) == 1252 + 379 + 200
    assert prisms > 40


@pytest.mark.parametrize("n", range(0, 11))
def test_pruned_masks_without_pruning_is_every_proper_mask(n):
    assert (list(_pruned_masks(n, lambda state, x, y, free: True, True))
            == [(x, True) for x in range(1, (1 << n) - 1)])


def test_pruned_masks_keeps_exactly_the_masks_its_predicate_allows():
    # the predicate "some wanted mask agrees with the fixed vertices" is the
    # tightest necessary condition; the yield must be the wanted proper masks
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        wanted = {rng.randrange(1 << n) for _ in range(rng.randint(0, 6))}

        def feasible(state, x, y, free):
            return any(m & (x | y) == x for m in wanted)

        got = [x for x, _ in _pruned_masks(n, feasible, True)]
        assert got == sorted(m for m in wanted if 0 < m < (1 << n) - 1)


def test_pruned_masks_hands_each_node_its_parents_state():
    # each state is a fresh list naming its node, so a child handed a
    # sibling's, a grandparent's or a copy of its parent's state is caught;
    # random nodes leave, and no node below one that left is entered; each
    # mask comes with the very state its leaf returned
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(0, 8)
        root = ["root"]
        returned = {}

        def step(state, x, y, free):
            v = free.bit_length()
            if v == n:
                assert state is root and (x, y, free) == (0, 0, (1 << n) - 1)
            else:
                parent = (x & ~(1 << v), y & ~(1 << v), free | 1 << v)
                assert state is returned[parent]
            if rng.random() < 0.15:
                return None
            returned[x, y, free] = [x, y, free]
            return returned[x, y, free]

        got = list(_pruned_masks(n, step, root))
        full = (1 << n) - 1
        assert [x for x, _ in got] == sorted(x for x, y, free in returned
                                             if not free and 0 < x < full)
        assert all(state is returned[x, full ^ x, 0] for x, state in got)


@pytest.mark.parametrize("falsy", [None, False, 0, (), []])
def test_pruned_masks_drops_a_leaf_whose_state_is_falsy(falsy):
    n = 6
    dropped = {5, 18, 40, 61}

    def step(state, x, y, free):
        return falsy if not free and x in dropped else state

    got = [x for x, _ in _pruned_masks(n, step, "root")]
    assert got == [m for m in range(1, (1 << n) - 1) if m not in dropped]


@pytest.mark.parametrize("T", [cycle(16), complement(cycle(16)), cycle(24)],
                         ids=["C16", "co-C16", "C24"])
def test_scans_stay_polynomial_on_cycles(monkeypatch, T):
    # a flat scan makes at least 2^n - 2 calls of each
    bound = T.n ** 3
    splits = count_calls(monkeypatch, decomposition, "_derive_split")
    list(iter_2joins(T))
    assert len(splits) <= bound
    masks = count_calls(monkeypatch, basic, "_good_partition_masks")
    good_partition_of(T)
    assert len(masks) <= bound
    connected = count_calls(monkeypatch, decomposition, "_mask_connected")
    find_balanced_skew_partition(T)
    assert len(connected) <= bound


def _two_join_corpus():
    """Graphs <= 7, planted trigraphs on base <= 6, seeded G(n, p) on 10..16
    vertices, each with its complement."""
    rng = random.Random(31)
    base = list(graphs_upto(7)) + list(planted_class_f_trigraphs(6))
    base += [random_graph(rng, n, p) for n in range(10, 17) for p in (0.1, 0.2, 0.5, 0.8)]
    return [g for t in base for g in (t, complement(t))]


def test_find_2join_is_the_first_of_iter_2joins():
    # find_2join searches one orientation of each bipartition, the one with
    # vertex n - 1 in X2, and still returns the first split of the full list
    found = 0
    for T in _two_join_corpus():
        split = find_2join(T)
        assert split == next(iter_2joins(T), None), T
        found += split is not None
    assert found > 1000


@pytest.mark.parametrize("n", [0, 1, 2])
def test_find_2join_on_tiny_trigraphs(n):
    T = graph_from_edges(n, [(0, 1)] if n == 2 else [])
    assert find_2join(T) is None
    assert list(iter_2joins(T)) == []


def _step_calls(monkeypatch, search, T):
    """The calls ``search(T)`` makes of its ``_pruned_masks`` step."""
    kernel = decomposition._pruned_masks
    calls = []

    def counting(n, step, root):
        def counted(*args):
            calls.append(args[1:])
            return step(*args)

        return kernel(n, counted, root)

    with monkeypatch.context() as m:
        m.setattr(decomposition, "_pruned_masks", counting)
        search(T)
    return calls


def test_find_2join_node_count_on_complement_of_c16(monkeypatch):
    # one orientation and the three-vertex cut: 559 step calls at the
    # parent, which searched both orientations without the cut
    T = complement(cycle(16))
    calls = _step_calls(monkeypatch, find_2join, T)
    assert find_2join(T) is None
    assert len(calls) == 247
    # the one node that puts vertex 15 in X1 is left at once
    assert [c for c in calls if c[0] >> 15] == [(1 << 15, 0, (1 << 15) - 1)]


def _small_sides_masks(T):
    """The reference good-partition search: ``_small_sides`` at every node."""
    return [x for x, _ in _pruned_masks(
        T.n, lambda ok, x, y, free: basic._small_sides(T, x, y), True)]


def test_good_partition_step_matches_small_sides_at_every_node(monkeypatch):
    # with every candidate refused, the search hands over each mask the
    # reference keeps, then the two one-side partitions, and never runs
    # _small_sides itself
    rng = random.Random(32)
    masks = 0
    for _ in range(1500):
        T = random_trigraph(rng, rng.randint(1, 10), switch_prob=rng.choice((0.05, 0.15, 0.3)),
                            p=rng.choice((0.3, 0.5, 0.7)))
        tried = []
        with monkeypatch.context() as m:
            m.setattr(basic, "_good_partition_masks", lambda T, x: tried.append(x))
            small = count_calls(m, basic, "_small_sides")
            assert good_partition_of(T) is None
        assert tried == _small_sides_masks(T) + [0, (1 << T.n) - 1], T
        assert not small
        masks += len(tried)
    assert masks > 6000


def test_good_partition_checks_small_sides_only_at_candidates(monkeypatch):
    # the step carries the check down the tree, so _small_sides runs once
    # per candidate the search hands over, the yielded masks and the two
    # one-side partitions
    rng = random.Random(33)
    missing = 0
    for _ in range(300):
        T = random_trigraph(rng, rng.randint(2, 10), switch_prob=0.1, p=rng.choice((0.3, 0.7)))
        with monkeypatch.context() as m:
            small = count_calls(m, basic, "_small_sides")
            tried = count_calls(m, basic, "_good_partition_masks")
            witness = good_partition_of(T)
        assert len(small) == len(tried), T
        if witness is None:
            missing += 1
            assert len(tried) == len(_small_sides_masks(T)) + 2, T
    assert missing > 50


def test_c24_passes_the_preconditions():
    assert check_preconditions(cycle(24)).ok


def _queries_like(rng):
    """Co-bipartite graphs and complements of G(n, 0.3) on 13..16 vertices,
    drawn the way the single-graph benchmark draws its inputs."""
    for n in range(13, 17):
        for _ in range(2):
            side = [rng.random() < 0.5 for _ in range(n)]
            yield complement(graph_from_edges(n, [
                (u, v) for u, v in itertools.combinations(range(n), 2)
                if side[u] != side[v] and rng.random() < 0.4]))
            yield complement(graph_from_edges(n, [
                (u, v) for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.3]))


def _run_recorded(monkeypatch, search, T):
    """The nodes where the step of ``search(T)`` returned a state, and the
    masks its ``_pruned_masks`` yielded."""
    kernel = decomposition._pruned_masks
    nodes, masks = [], []

    def recording(n, step, root):
        def recorded(state, x, y, free):
            state = step(state, x, y, free)
            if state:
                nodes.append((x, y, free))
            return state

        for x, state in kernel(n, recorded, root):
            masks.append(x)
            yield x, state

    with monkeypatch.context() as m:
        m.setattr(decomposition, "_pruned_masks", recording)
        list(search(T))
    return nodes, masks


def _run_predicate(n, feasible):
    """The nodes a stateless predicate enters, and the masks it yields."""
    nodes = []

    def step(state, x, y, free):
        if feasible(x, y, free):
            nodes.append((x, y, free))
            return True
        return False

    return nodes, [x for x, _ in _pruned_masks(n, step, True)]


DIFFERENTIAL = (INSTANCES + list(graphs_upto(7)) + list(planted_class_f_trigraphs(6))
                + list(_queries_like(random.Random(909))))


def test_search_states_enter_only_nodes_the_stateless_predicates_entered(monkeypatch):
    dropped = 0
    for T in DIFFERENTIAL:
        # skew: the same predicate, so the same nodes and masks
        got = _run_recorded(monkeypatch, _skew_masks, T)
        assert got == _run_predicate(T.n, skew_feasible_by_connectivity(T)), T
        # 2-join: a subset of the nodes; the leaves it drops have no split
        nodes, masks = _run_recorded(monkeypatch, iter_2joins, T)
        old_nodes, old_masks = _run_predicate(T.n, two_join_feasible_by_bundles(T))
        assert set(nodes) <= set(old_nodes), T
        assert set(masks) <= set(old_masks), T
        assert all(split_by_bundles(T, x) is None for x in set(old_masks) - set(masks)), T
        assert list(iter_2joins(T)) == [s for s in map(
            lambda x: split_by_bundles(T, x), old_masks) if s is not None]
        dropped += len(old_masks) - len(masks)
    assert len(DIFFERENTIAL) == len(INSTANCES) + 1252 + 379 + 16
    assert dropped > 0


def test_two_join_leaf_states_are_the_bundles_of_x1():
    # a leaf is kept exactly when the scan of X1 finds two bundles and each
    # side has three vertices, and its bicliques are those bundles once
    # named with A holding the smallest bundle vertex
    kept = 0
    for T in DIFFERENTIAL:
        full = (1 << T.n) - 1
        leaves = dict(_pruned_masks(T.n, _two_join_step(T), (0, 0, 0, 0)))
        for x1 in range(1, full):
            bundles = _bundles(T, x1, full ^ x1)
            if (bundles is None or not bundles[3]
                    or min(x1.bit_count(), (full ^ x1).bit_count()) < 3):
                assert x1 not in leaves, (T, x1)
                continue
            p1, q1, p2, q2 = leaves[x1]
            if p2 & -p2 < p1 & -p1:
                p1, q1, p2, q2 = p2, q2, p1, q1
            assert (p1, q1, p2, q2) == bundles, (T, x1)
            kept += 1
    assert kept > 1000


def test_star_centers_match_the_flat_scan():
    # the star center comes from the skew leaf state, the references take it
    # from the one-vertex anticomponents of B
    bsps = stars = 0
    for T in INSTANCES + list(graphs_upto(7)) + list(planted_class_f_trigraphs(6)):
        bsp = find_balanced_skew_partition(T)
        assert bsp == flat_bsp(T), T
        bsps += bsp is not None
        stars += bsp is not None and bsp.star is not None
    assert 1000 < stars < bsps


@pytest.mark.parametrize("n", [24, 32])
def test_prism_search_stays_polynomial_on_complements_of_cycles(n):
    # co-C24 (co-C32) has 1,520 (4,032) triangles and no prism; a scan of
    # every later triangle per first triangle examines about 1.2M (8.1M)
    # pairs, each at least two lines of detect.  The line count stays far
    # below that, and past the bound the run stops at once.
    T = complement(cycle(n))
    bound = 2 * n ** 3
    lines = 0
    source = detect.__file__

    def per_line(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            if lines > bound:
                raise AssertionError(f"prism search ran past {bound} lines")
        return per_line

    def per_call(frame, event, arg):
        return per_line if frame.f_code.co_filename == source else None

    previous = sys.gettrace()
    sys.settrace(per_call)
    try:
        witness = find_prism(T)
    finally:
        sys.settrace(previous)
    assert witness is None
    assert lines > 0


def test_search_state_stays_on_the_stack():
    # the 2-join and skew searches keep one state per node of the current
    # path, never one per node visited: co-C24 traces about 4 KB
    T = complement(cycle(24))
    find_2join(T)
    find_balanced_skew_partition(T)
    tracemalloc.start()
    try:
        find_2join(T)
        find_balanced_skew_partition(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
