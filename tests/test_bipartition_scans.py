"""The bipartition scans against definition-level references.

The BSP, good-partition and 2-join searches scan all 2^n bipartitions on
integer masks.  The references below state each test with vertex sets and
``components()``, the way the definitions read, and scan in the same
increasing-mask order; the library must return the same first witness.
Connectivity comes from networkx, independent of the library's search.
"""

import random

import networkx as nx
import pytest

from evenpairs import basic
from evenpairs.basic import GoodPartition, good_partition_of
from evenpairs.corpus import graphs_upto, planted_class_f_trigraphs
from evenpairs.decomposition import (TwoJoinSplit, _is_balanced,
                                     find_balanced_skew_partition)
from evenpairs.families import cycle
from evenpairs.trigraph import (_mask_connected, bits_of, complement, components,
                                full_realization, induced)

from conftest import (random_trigraph, side_path_parities_by_pairs,
                      skew_witness_by_components, split_for)


def _connected(T, X, mode):
    """Whether the vertex set X is connected (or empty) in the graph of the
    adj relation, or of the anti relation when ``mode`` is anticonnected."""
    neigh = T.adj if mode == "connected" else T.anti
    g = nx.Graph()
    g.add_nodes_from(X)
    g.add_edges_from((v, w) for v in X for w in X if neigh[v] >> w & 1)
    return not g or nx.is_connected(g)


def reference_bsp(T):
    n = T.n
    for a_mask in range(1, (1 << n) - 1):
        a = frozenset(bits_of(a_mask))
        b = frozenset(range(n)) - a
        if _connected(T, a, "connected") or _connected(T, b, "anticonnected"):
            continue
        if _is_balanced(T, a_mask, ((1 << n) - 1) ^ a_mask):
            return skew_witness_by_components(T, a_mask)
    return None


def _reference_good(T, x):
    y = frozenset(range(T.n)) - x
    if any(T.value(u, v) == 0 for u in x for v in y):
        return False
    x_comps = components(T, x, "connected")
    y_anticomps = components(T, y, "anticonnected")
    if any(len(c) > 2 for c in x_comps + y_anticomps):
        return False

    def at_most_one_each(v, side):
        return (sum(T.value(v, w) == 1 for w in side) <= 1
                and sum(T.value(v, w) == -1 for w in side) <= 1)

    return all(all(at_most_one_each(v, cy) for v in cx)
               and all(at_most_one_each(v, cx) for v in cy)
               for cx in x_comps for cy in y_anticomps)


def reference_good_partition(T):
    full = (1 << T.n) - 1
    order = list(range(1, full)) + [0, full] if T.n else [0]
    for x_mask in order:
        x = frozenset(bits_of(x_mask))
        if _reference_good(T, x):
            return GoodPartition(x, frozenset(range(T.n)) - x)
    return None


def reference_split(T, x1):
    """The 2-join split of (X1, V - X1) from the definition: every X1
    vertex's strong cross neighborhood is empty (C1) or one of exactly two
    disjoint targets, with A1 holding the smallest bundle vertex.  The
    parity comes from the per-pair path enumeration."""
    x2 = frozenset(range(T.n)) - x1
    if len(x1) < 3 or len(x2) < 3:
        return None
    if any(T.value(u, v) == 0 for u in x1 for v in x2):
        return None
    cross = {v: frozenset(w for w in x2 if T.value(v, w) == 1) for v in x1}
    targets = sorted({t for t in cross.values() if t},
                     key=lambda t: min(v for v in x1 if cross[v] == t))
    if len(targets) != 2 or targets[0] & targets[1]:
        return None
    a2, b2 = targets
    a1 = frozenset(v for v in x1 if cross[v] == a2)
    b1 = frozenset(v for v in x1 if cross[v] == b2)
    c1 = x1 - a1 - b1
    c2 = x2 - a2 - b2
    for v in x2:
        expected = a1 if v in a2 else b1 if v in b2 else frozenset()
        if frozenset(w for w in x1 if T.value(v, w) == 1) != expected:
            return None
    for a, b, side in ((a1, b1, x1), (a2, b2, x2)):
        if len(a) == len(b) == 1 and len(side) == 3:
            part = full_realization(induced(T, side))
            if sorted(m.bit_count() for m in part.adj) == [1, 1, 2]:
                return None
    proper = all(comp & a and comp & b
                 for a, b, c in ((a1, b1, c1), (a2, b2, c2))
                 for comp in components(T, a | b | c, "connected"))
    parities = (side_path_parities_by_pairs(T, a1, b1, c1)
                | side_path_parities_by_pairs(T, a2, b2, c2))
    parity = {frozenset({1}): "odd", frozenset({0}): "even"}.get(frozenset(parities))
    return TwoJoinSplit(a1, b1, c1, a2, b2, c2, parity=parity, proper=proper)


def _instances():
    for G in graphs_upto(6):
        yield G
        yield complement(G)
    yield from planted_class_f_trigraphs(5)
    for n in (8, 10, 12):
        yield cycle(n)


INSTANCES = list(_instances())


def test_instance_corpus_size():
    # the 208 graphs on 1..6 vertices and their complements, the 77 planted
    # trigraphs on base <= 5, and three even cycles
    assert len(INSTANCES) == 2 * 208 + 77 + 3


def test_bsp_matches_reference():
    found = 0
    for T in INSTANCES:
        got = find_balanced_skew_partition(T)
        assert got == reference_bsp(T), T
        found += got is not None
    assert 0 < found < len(INSTANCES)


def test_good_partition_matches_reference():
    found = 0
    for T in INSTANCES:
        got = good_partition_of(T)
        assert got == reference_good_partition(T), T
        found += got is not None
    assert 0 < found < len(INSTANCES)


def test_good_partition_masks_match_reference_on_every_mask():
    # not only the first witness: every mask of the small trigraphs
    for T in INSTANCES:
        if T.n > 5:
            continue
        for x_mask in range(1 << T.n):
            assert (basic._good_partition_masks(T, x_mask)
                    == _reference_good(T, frozenset(bits_of(x_mask)))), (T, x_mask)


def test_derive_split_matches_reference_on_every_mask():
    splits = 0
    for T in INSTANCES:
        for x1_mask in range(1, (1 << T.n) - 1):
            got = split_for(T, bits_of(x1_mask))
            assert got == reference_split(T, frozenset(bits_of(x1_mask))), (T, x1_mask)
            splits += got is not None
    assert splits > 0


@pytest.mark.parametrize("mode", ["connected", "anticonnected"])
def test_mask_connected_matches_components(mode):
    rng = random.Random(7)
    for _ in range(300):
        T = random_trigraph(rng, rng.randint(1, 9))
        neigh = T.adj if mode == "connected" else T.anti
        for mask in [0, (1 << T.n) - 1] + [rng.randrange(1 << T.n) for _ in range(8)]:
            expected = _connected(T, list(bits_of(mask)), mode)
            assert _mask_connected(neigh, mask) == expected

