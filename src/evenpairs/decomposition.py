"""Skew-partitions, star cutsets, 2-joins, fragments, and blocks.

The balanced-skew-partition and 2-join searches meet bipartitions in
increasing bitmask order (bit i is vertex i), so results are deterministic
and the first witness returned is the one with the smallest characteristic
mask.  Split sets are derived from the cross strong-edge pattern: a valid
2-join forces the classification of every vertex once the bipartition is
fixed, so no split search is needed.

The bipartitions come from ``trigraph._pruned_masks``, a depth-first search
that leaves a subtree once its fixed vertices rule out every completion.
Each search supplies a necessary condition for that and runs its full
mask test on every bipartition that remains, so it returns exactly what a
scan of all 2^n bipartitions would.  Sets are built only for a candidate
that passes the mask tests.  On one core of a 2-vCPU machine the full
balanced-skew-partition search of C16 and the full 2-join search of its
complement take about 2 ms each.  The searches stay exponential in the
worst case; near-complete inputs prune least.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .detect import is_berge
from .errors import InputError, NonBergeError
from .trigraph import (Trigraph, _mask_components, _mask_connected,
                       _pruned_masks, bits_of, complement, components,
                       full_realization, induced, is_connected, iter_paths,
                       mask_of, renumber)


@dataclass(frozen=True)
class TwoJoinSplit:
    """The six sets of a 2-join, with the observed path parity.

    ``parity`` is "odd" or "even" when every path from A_i to B_i through
    C_i (either side) has that parity, and None when the sides disagree or
    no such path exists; Berge inputs with a proper split always get a
    definite parity.
    """

    a1: frozenset[int]
    b1: frozenset[int]
    c1: frozenset[int]
    a2: frozenset[int]
    b2: frozenset[int]
    c2: frozenset[int]
    parity: str | None
    proper: bool

    @property
    def x1(self) -> frozenset[int]:
        return self.a1 | self.b1 | self.c1

    @property
    def x2(self) -> frozenset[int]:
        return self.a2 | self.b2 | self.c2

    def side(self, i: int) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        if i == 1:
            return self.a1, self.b1, self.c1
        if i == 2:
            return self.a2, self.b2, self.c2
        raise InputError("side must be 1 or 2")


@dataclass(frozen=True)
class SkewPartitionWitness:
    """A partition (A, B) with A disconnected and B not anticonnected,
    plus a split and, when some anticomponent of B is a singleton, the
    star-cutset center."""

    a: frozenset[int]
    b: frozenset[int]
    split: tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]
    balanced: bool
    star: int | None


@dataclass(frozen=True)
class Block:
    """Block of decomposition: one side of a proper 2-join plus marker
    vertices that stand in for the other side's connections.

    Odd joins get two markers joined by a switchable pair ("small"); even
    joins get a three-vertex switchable path ("light").  ``parent_map[i]``
    is the parent vertex behind block vertex i, or None for markers.
    """

    trigraph: Trigraph
    markers: tuple[int, ...]
    kind: str  # "small" | "light"
    side: int
    parent_split: TwoJoinSplit
    parent_map: tuple[int | None, ...]


def _odd_path_exists(T: Trigraph, ends: frozenset[int], interior: frozenset[int]) -> bool:
    """Any odd path of length > 1 with both ends in ``ends`` and every
    interior vertex in ``interior``?"""
    for u, v in itertools.combinations(sorted(ends), 2):
        for seq in iter_paths(T, u, v, interior=interior):
            if len(seq) > 2 and len(seq) % 2 == 0:
                return True
    return False


def is_balanced_partition(T: Trigraph, a: frozenset[int], b: frozenset[int]) -> bool:
    """Balance for a skew-partition: no odd path of length > 1 with ends in
    B and interior in A, and no odd antipath of length > 1 with ends in A
    and interior in B."""
    if _odd_path_exists(T, b, a):
        return False
    return not _odd_path_exists(complement(T), a, b)


def _partition_split(T: Trigraph, a: frozenset[int], b: frozenset[int]):
    comps = components(T, a, "connected")
    anticomps = components(T, b, "anticonnected")
    a1 = comps[0]
    a2 = frozenset().union(*comps[1:])
    b1 = anticomps[0]
    b2 = frozenset().union(*anticomps[1:])
    return a1, a2, b1, b2


def _star_center(T: Trigraph, b: frozenset[int]) -> int | None:
    for comp in components(T, b, "anticonnected"):
        if len(comp) == 1:
            return next(iter(comp))
    return None


def _witness_for(T: Trigraph, a: frozenset[int], b: frozenset[int],
                 balanced: bool) -> SkewPartitionWitness:
    return SkewPartitionWitness(a, b, _partition_split(T, a, b), balanced,
                                _star_center(T, b))


def find_star_cutset(T: Trigraph) -> SkewPartitionWitness | None:
    """First skew-partition (A, B) in which some anticomponent of B is a
    single vertex v; then B consists of v and strong neighbors of v."""
    n = T.n
    for v in range(n):
        strong_nbrs = list(bits_of(T.strong[v]))
        for size in range(1, len(strong_nbrs) + 1):
            for chosen in itertools.combinations(strong_nbrs, size):
                b = frozenset(chosen) | {v}
                a = frozenset(range(n)) - b
                if not a or is_connected(T, a):
                    continue
                # v has no antiadjacent partner in B, so {v} is a singleton
                # anticomponent and B is automatically not anticonnected
                return _witness_for(T, a, b, is_balanced_partition(T, a, b))
    return None


def _skew_masks(T: Trigraph):
    """The A-masks of the skew-partitions (A, B) of T, in increasing order.

    The masks come from ``_pruned_masks``, which skips a subtree only when
    no A-mask in it can be skew.  A fixed part of B that is anticonnected
    lies inside one anticomponent of B, so some free vertex must be strongly
    adjacent to all of it; a fixed part of A that is connected lies inside
    one component of A, so some free vertex must see none of it.  Both skew
    conditions are then tested on each remaining mask.
    """
    full = (1 << T.n) - 1
    adj, anti = T.adj, T.anti

    def feasible(a_fixed: int, b_fixed: int, free: int) -> bool:
        if b_fixed and _mask_connected(anti, b_fixed):
            if all(anti[v] & b_fixed for v in bits_of(free)):
                return False
        if a_fixed and _mask_connected(adj, a_fixed):
            if all(adj[v] & a_fixed for v in bits_of(free)):
                return False
        return True

    for a_mask in _pruned_masks(T.n, feasible):
        if not (_mask_connected(anti, full ^ a_mask) or _mask_connected(adj, a_mask)):
            yield a_mask


def find_balanced_skew_partition(T: Trigraph) -> SkewPartitionWitness | None:
    """First balanced skew-partition (A, B) in increasing A-mask order.

    Only the skew-partitions from ``_skew_masks`` are tested for balance,
    and they come in the order a scan of every bipartition meets them, so
    the witness is the one that scan would return.  Sets are built only for
    a skew-partition.  The pruned search stays exponential in the worst
    case.
    """
    full = (1 << T.n) - 1
    for a_mask in _skew_masks(T):
        a = frozenset(bits_of(a_mask))
        b = frozenset(bits_of(full ^ a_mask))
        if is_balanced_partition(T, a, b):
            return _witness_for(T, a, b, True)
    return None


def _derive_split(T: Trigraph, x1_mask: int) -> TwoJoinSplit | None:
    """Classify a bipartition as a 2-join, or reject it.

    The cross strong edges must form exactly two complete bipartite bundles
    A1-A2 and B1-B2 with nothing else crossing; that classification is
    forced, so each bipartition yields at most one split (up to swapping the
    A and B names, fixed here by putting the smallest bundle vertex in A).
    """
    n = T.n
    full = (1 << n) - 1
    x2_mask = full & ~x1_mask
    if x1_mask.bit_count() < 3 or x2_mask.bit_count() < 3:
        return None
    strong, switch = T.strong, T.switch
    # X1 side: each vertex crosses to nothing (C1) or to one of at most two
    # bundle targets, the first met (holding the smallest vertex) named A
    a2_mask = b2_mask = a1_mask = b1_mask = c1_mask = 0
    rest = x1_mask
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if switch[v] & x2_mask:
            return None  # no switchable pair may cross
        cross = strong[v] & x2_mask
        if not cross:
            c1_mask |= low
        elif cross == a2_mask:
            a1_mask |= low
        elif cross == b2_mask:
            b1_mask |= low
        elif not a2_mask:
            a2_mask, a1_mask = cross, low
        elif not b2_mask:
            b2_mask, b1_mask = cross, low
        else:
            return None  # a third bundle
    if not b2_mask or a2_mask & b2_mask:
        return None  # two bundles with disjoint targets are needed
    c2_mask = x2_mask & ~a2_mask & ~b2_mask
    # the X2 side of the pattern is forced; verify it
    rest = x2_mask
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if switch[v] & x1_mask:
            return None
        expected = a1_mask if low & a2_mask else b1_mask if low & b2_mask else 0
        if strong[v] & x1_mask != expected:
            return None
    for side_a, side_b, side_x in ((a1_mask, b1_mask, x1_mask),
                                   (a2_mask, b2_mask, x2_mask)):
        if side_a.bit_count() == 1 and side_b.bit_count() == 1:
            if side_x.bit_count() == 3:
                part = full_realization(induced(T, bits_of(side_x)))
                degrees = sorted(m.bit_count() for m in part.adj)
                if degrees == [1, 1, 2]:
                    return None  # side realizes as a path of length two
    split_masks = (a1_mask, b1_mask, c1_mask, a2_mask, b2_mask, c2_mask)
    sets = tuple(frozenset(bits_of(m)) for m in split_masks)
    proper = _is_proper(T, split_masks)
    parity = observed_parity(T, sets)
    return TwoJoinSplit(*sets, parity=parity, proper=proper)


def _is_proper(T: Trigraph, masks: tuple[int, ...]) -> bool:
    a1, b1, c1, a2, b2, c2 = masks
    for a, b, c in ((a1, b1, c1), (a2, b2, c2)):
        for comp_mask in _mask_components(T.adj, a | b | c):
            if not (comp_mask & a) or not (comp_mask & b):
                return False
    return True


def _side_path_parities(T: Trigraph, a: frozenset[int], b: frozenset[int],
                        c: frozenset[int]) -> set[int]:
    parities: set[int] = set()
    for u in sorted(a):
        for v in sorted(b):
            for seq in iter_paths(T, u, v, interior=c):
                parities.add((len(seq) - 1) % 2)
                if len(parities) == 2:
                    return parities
    return parities


def observed_parity(T: Trigraph, sets) -> str | None:
    """Common parity of all A_i - B_i paths through C_i, both sides, or
    None when there is no such path or the parities disagree."""
    a1, b1, c1, a2, b2, c2 = sets
    parities = _side_path_parities(T, a1, b1, c1) | _side_path_parities(T, a2, b2, c2)
    if parities == {1}:
        return "odd"
    if parities == {0}:
        return "even"
    return None


def _bundles_fit(T: Trigraph, side: int, other: int) -> bool:
    """Whether no switchable pair joins ``side`` to ``other`` and the strong
    crossings of ``side`` into ``other`` are pairwise equal or disjoint with
    at most two distinct nonempty values, as the restriction of a 2-join's
    A1-A2 and B1-B2 bundles to ``other`` must be."""
    strong, switch = T.strong, T.switch
    first = second = 0
    while side:
        low = side & -side
        side ^= low
        v = low.bit_length() - 1
        if switch[v] & other:
            return False
        cross = strong[v] & other
        if not cross or cross == first or cross == second:
            continue
        if second or cross & first:
            return False
        if first:
            second = cross
        else:
            first = cross
    return True


def iter_2joins(T: Trigraph):
    """All 2-join splits, in increasing X1-mask order.

    Each unordered bipartition appears twice, once per choice of X1; that is
    deliberate since fragments are one-sided.  The X1-masks come from
    ``_pruned_masks``, which leaves a subtree once a switchable pair crosses
    between the fixed parts or the strong crossings of either fixed part
    into the other no longer fit two disjoint bundles; no mask it skips has
    a split, so the sequence is the one a scan of every bipartition gives.
    The search stays exponential in the worst case.
    """
    adj = T.adj

    def feasible(x1_fixed: int, x2_fixed: int, free: int) -> bool:
        # v is the vertex fixed last (n at the root).  When it sees nothing
        # on the other side, the crossings are those of the parent node,
        # which passed already.
        v = free.bit_length()
        if v < T.n and not adj[v] & (x2_fixed if x1_fixed >> v & 1 else x1_fixed):
            return True
        return (_bundles_fit(T, x1_fixed, x2_fixed)
                and _bundles_fit(T, x2_fixed, x1_fixed))

    for x1_mask in _pruned_masks(T.n, feasible):
        split = _derive_split(T, x1_mask)
        if split is not None:
            yield split


def find_2join(T: Trigraph) -> TwoJoinSplit | None:
    return next(iter_2joins(T), None)


def join_parity(T: Trigraph, split: TwoJoinSplit) -> str:
    """Parity of a proper 2-join of a Berge trigraph, verified exhaustively
    over both sides; mixed parities would contradict the parity theorem for
    Berge trigraphs and raise."""
    berge, witness = is_berge(T)
    if not berge:
        raise NonBergeError("join parity requires a Berge trigraph", witness)
    if not split.proper:
        raise InputError("join parity requires a proper 2-join")
    parities = (_side_path_parities(T, split.a1, split.b1, split.c1)
                | _side_path_parities(T, split.a2, split.b2, split.c2))
    if len(parities) != 1:
        raise AssertionError(
            f"proper 2-join of a Berge trigraph with parities {parities}")
    return "odd" if parities == {1} else "even"


def find_complement_2join(T: Trigraph) -> TwoJoinSplit | None:
    """First 2-join of the complement, reported in T's vertex labels."""
    return find_2join(complement(T))


def split_for(T: Trigraph, X) -> TwoJoinSplit | None:
    """The split of the bipartition (X, V - X), if it is a 2-join.

    The classification is forced by the cross edges, so this is the only
    split the bipartition can have (up to the A/B naming convention).
    """
    x_mask = mask_of(X)
    if x_mask >= (1 << T.n) or x_mask == 0 or x_mask == (1 << T.n) - 1:
        return None
    return _derive_split(T, x_mask)


def is_fragment(T: Trigraph, X) -> bool:
    """True iff (X, V - X) is a proper 2-join of T."""
    split = split_for(T, X)
    return split is not None and split.proper


def build_block(T: Trigraph, split: TwoJoinSplit, side: int) -> Block:
    """Block of decomposition for one side of a proper 2-join.

    Keeps the side's vertices (reindexed in sorted order) and appends the
    markers: for an odd join, a and b with a switchable pair between them;
    for an even join, a, c, b with switchable pairs a-c and c-b.  Marker a
    is strongly complete to the side's A set, b to its B set, and there are
    no other edges leaving the markers.
    """
    if not split.proper:
        raise InputError("blocks are defined for proper 2-joins only")
    if split.parity not in ("odd", "even"):
        raise InputError("block construction needs a known join parity")
    a_set, b_set, c_set = split.side(side)
    side_vertices = sorted(a_set | b_set | c_set)
    m = len(side_vertices)
    marker_count = 2 if split.parity == "odd" else 3
    strong = renumber(T.strong, side_vertices) + [0] * marker_count
    switch = renumber(T.switch, side_vertices) + [0] * marker_count
    a_marker = m
    b_marker = m + marker_count - 1
    for j, old in enumerate(side_vertices):
        if old in a_set:
            strong[a_marker] |= 1 << j
            strong[j] |= 1 << a_marker
        if old in b_set:
            strong[b_marker] |= 1 << j
            strong[j] |= 1 << b_marker
    if split.parity == "odd":
        markers = (a_marker, b_marker)
        kind = "small"
    else:
        markers = (a_marker, m + 1, b_marker)
        kind = "light"
    for x, y in zip(markers, markers[1:]):
        switch[x] |= 1 << y
        switch[y] |= 1 << x
    parent_map = tuple(side_vertices) + (None,) * marker_count
    return Block(Trigraph(strong, switch), markers, kind, side, split, parent_map)


@dataclass(frozen=True)
class ShapeReport:
    """Checks a 2-join split against the shape every 2-join of a
    no-balanced-skew-partition member of the working class must have."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_nobsp_2join_shape(T: Trigraph, split: TwoJoinSplit) -> ShapeReport:
    violations: list[str] = []
    if not split.proper:
        violations.append("2-join is not proper")
    for i in (1, 2):
        a, b, c = split.side(i)
        if len(a | b | c) < 4:
            violations.append(f"|X{i}| < 4")
        if not c and (len(a) < 2 or len(b) < 2):
            violations.append(f"C{i} empty but A{i} or B{i} is a singleton")
    return ShapeReport(tuple(violations))
