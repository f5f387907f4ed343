"""The pruned structure searches against flat scans of every candidate.

``_pruned_masks`` skips only subtrees its predicate rules out, so the BSP,
2-join and good-partition searches built on it must give what a scan of
every bipartition in increasing mask order gives; the prism search skips
only triangle pairs no matching can join.  The flat references below are
those scans, and the work pins keep the searches far from 2^n on the
class members that used to force the whole scan.
"""

import itertools
import random

import pytest

from evenpairs import basic, decomposition
from evenpairs.basic import GoodPartition, _good_partition_masks, good_partition_of
from evenpairs.corpus import (graphs_upto, planted_class_f_trigraphs,
                              random_bipartite_graph)
from evenpairs.decomposition import (_derive_split, _mask_connected, _witness_for,
                                     find_balanced_skew_partition,
                                     is_balanced_partition, iter_2joins)
from evenpairs.detect import _iter_prisms
from evenpairs.engine import check_preconditions
from evenpairs.families import cycle, line_graph
from evenpairs.trigraph import _pruned_masks, bits_of, complement, mask_of

from conftest import count_calls, extend_rungs_by_grow, random_graph, random_trigraph


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
    splits = (_derive_split(T, x1) for x1 in range(1, (1 << T.n) - 1))
    return [s for s in splits if s is not None]


def flat_bsp(T):
    full = (1 << T.n) - 1
    for a_mask in range(1, full):
        b_mask = full ^ a_mask
        if _mask_connected(T.anti, b_mask) or _mask_connected(T.adj, a_mask):
            continue
        a = frozenset(bits_of(a_mask))
        b = frozenset(bits_of(b_mask))
        if is_balanced_partition(T, a, b):
            return _witness_for(T, a_mask, b_mask, True)
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


def test_prisms_match_the_reference_rungs_on_small_classes():
    # graphs <= 7, planted trigraphs on base <= 6 and their complements
    prisms = 0
    for t in list(graphs_upto(7)) + list(planted_class_f_trigraphs(6)):
        for g in (t, complement(t)):
            got = list(_iter_prisms(g))
            assert got == list(flat_prisms(g)), g
            prisms += len(got)
    assert prisms > 30


@pytest.mark.parametrize("n", range(0, 11))
def test_pruned_masks_without_pruning_is_every_proper_mask(n):
    assert list(_pruned_masks(n, lambda x, y, free: True)) == list(range(1, (1 << n) - 1))


def test_pruned_masks_keeps_exactly_the_masks_its_predicate_allows():
    # the predicate "some wanted mask agrees with the fixed vertices" is the
    # tightest necessary condition; the yield must be the wanted proper masks
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        wanted = {rng.randrange(1 << n) for _ in range(rng.randint(0, 6))}

        def feasible(x, y, free):
            return any(m & (x | y) == x for m in wanted)

        got = list(_pruned_masks(n, feasible))
        assert got == sorted(m for m in wanted if 0 < m < (1 << n) - 1)


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


def test_c24_passes_the_preconditions():
    assert check_preconditions(cycle(24)).ok
