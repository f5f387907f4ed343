"""Balanced skew-partitions, 2-joins, and blocks.

The balanced-skew-partition and 2-join searches meet bipartitions in
increasing bitmask order (bit i is vertex i), so results are deterministic
and the first witness returned is the one with the smallest characteristic
mask.  Split sets are derived from the cross strong-edge pattern: a valid
2-join forces the classification of every vertex once the bipartition is
fixed, so no split search is needed.

The bipartitions come from ``trigraph._pruned_masks``, a depth-first search
that leaves a subtree once its fixed vertices rule out every completion.
Each search supplies a necessary condition for that, as a step that
updates the state of the parent node with the one vertex fixed last: for
skew partitions the masks of the free vertices that can still extend the
fixed parts, for 2-joins the bicliques the crossing edges form.  A
bipartition that remains is judged once, from the state at its leaf: for
skew partitions the condition itself, exact once no vertex is free, whose
mask of vertices complete to B holds the star centers; for 2-joins
``_derive_split`` on the two bicliques.  So each search returns exactly
what a scan of all 2^n bipartitions would.  Sets are built only for a
candidate that passes the mask tests.  A 2-join is an unordered
bipartition, so ``find_2join`` searches one orientation of each, with
vertex n - 1 in X2, and ``iter_2joins`` lists both.  On one core of a
2-vCPU machine the full balanced-skew-partition search of C16 takes about
0.4 ms, and the 2-join search of its complement about 0.1 ms (0.2 ms for
both orientations).  The searches stay exponential in the worst case;
near-complete inputs prune least.
"""

from __future__ import annotations

from .errors import InputError
from .trigraph import (Trigraph, _mask_components, _mask_connected, _paths,
                       _pruned_masks, _Record, bits_of, complement, mask_of,
                       renumber)


class TwoJoinSplit(_Record):
    """The six sets of a 2-join, with the observed path parity.

    ``parity`` is "odd" or "even" when every path from A_i to B_i through
    C_i (either side) has that parity, and None when the sides disagree or
    no such path exists; Berge inputs with a proper split always get a
    definite parity.
    """

    def __init__(self, a1: frozenset[int], b1: frozenset[int], c1: frozenset[int],
                 a2: frozenset[int], b2: frozenset[int], c2: frozenset[int],
                 parity: str | None, proper: bool):
        self.__dict__.update(a1=a1, b1=b1, c1=c1, a2=a2, b2=b2, c2=c2,
                             parity=parity, proper=proper)

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


class SkewPartitionWitness(_Record):
    """A partition (A, B) with A disconnected and B not anticonnected,
    plus a split and, when some anticomponent of B is a singleton, the
    star-cutset center."""

    def __init__(self, a: frozenset[int], b: frozenset[int],
                 split: tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]],
                 balanced: bool, star: int | None):
        self.__dict__.update(a=a, b=b, split=split, balanced=balanced, star=star)


class Block(_Record):
    """Block of decomposition: one side of a proper 2-join plus marker
    vertices that stand in for the other side's connections.

    Odd joins get two markers joined by a switchable pair ("small"); even
    joins get a three-vertex switchable path ("light").  ``parent_map[i]``
    is the parent vertex behind block vertex i, or None for markers.
    """

    def __init__(self, trigraph: Trigraph, markers: tuple[int, ...], kind: str, side: int,
                 parent_split: TwoJoinSplit, parent_map: tuple[int | None, ...]):
        self.__dict__.update(trigraph=trigraph, markers=markers, kind=kind, side=side,
                             parent_split=parent_split, parent_map=parent_map)


def _touching(adj, mask: int, target: int) -> int:
    """The vertices of ``mask`` with a neighbor in ``target``."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        if adj[low.bit_length() - 1] & target:
            out |= low
    return out


def _odd_path_exists(adj, anti, ends: int, inner: int) -> bool:
    """Any odd path of length > 1 with both ends in the mask ``ends`` and
    every interior vertex in the mask ``inner``, in the trigraph with the
    per-vertex masks ``adj`` and ``anti`` (the complement's are the same two
    swapped)?

    Such a path has length at least 3, so at least two interior vertices,
    each adjacent to the next or the previous one.  The interior therefore
    lies in the core, the vertices of ``inner`` with a neighbor in
    ``inner``, and each end has a neighbor in the core; when ``inner`` is
    stable the core is empty and no search runs.  Otherwise one
    chordless-path search (``_paths``) through the core from each such end
    u in ascending order, closing only at such ends above u; it returns at
    the first odd path."""
    core = _touching(adj, inner, inner)
    if not core:
        return False
    above = _touching(adj, ends, core)
    while above:
        low = above & -above
        # the search from this end closes only at the ends above it
        above ^= low
        if any(len(path) > 2 and len(path) % 2 == 0
               for path in _paths(adj, anti, low.bit_length() - 1, above, core)):
            return True
    return False


def _is_balanced(T: Trigraph, a_mask: int, b_mask: int) -> bool:
    """Balance for the skew-partition (A, B) with the masks ``a_mask`` and
    ``b_mask``: no odd path of length > 1 with ends in B and interior in A,
    and no odd antipath of length > 1 with ends in A and interior in B.
    Each side is one chordless-path search per end (``_odd_path_exists``);
    the antipaths are the paths of the swapped masks."""
    return not (_odd_path_exists(T.adj, T.anti, b_mask, a_mask)
                or _odd_path_exists(T.anti, T.adj, a_mask, b_mask))


def _witness_for(T: Trigraph, a_mask: int, complete_b: int) -> SkewPartitionWitness:
    """The witness of the balanced skew-partition (A, B) with the A-mask
    ``a_mask``: the split puts the first component of A and the first
    anticomponent of B apart from the rest, and the star center is the
    lowest vertex of B in ``complete_b`` (the leaf state of
    ``_skew_masks``), if any.  The (anti)components come as masks from one
    ``_mask_components`` pass each, and sets are built only for the
    witness."""
    b_mask = ((1 << T.n) - 1) ^ a_mask
    comp = _mask_components(T.adj, a_mask)[0]
    anticomp = _mask_components(T.anti, b_mask)[0]
    split = tuple(frozenset(bits_of(m)) for m in (
        comp, a_mask ^ comp, anticomp, b_mask ^ anticomp))
    stars = complete_b & b_mask
    star = (stars & -stars).bit_length() - 1 if stars else None
    return SkewPartitionWitness(frozenset(bits_of(a_mask)),
                                frozenset(bits_of(b_mask)), split, True, star)


def _skew_masks(T: Trigraph):
    """The A-masks of the skew-partitions (A, B) of T, in increasing order,
    each with its leaf state.

    The masks come from ``_pruned_masks``, which skips a subtree only when
    no A-mask in it can be skew.  A fixed part of B that is anticonnected
    lies inside one anticomponent of B, so some free vertex must be strongly
    adjacent to all of it; a fixed part of A that is connected lies inside
    one component of A, so some free vertex must see none of it.  At a leaf,
    where no vertex is free, that is exactly the skew condition.

    The search state is two masks and two flags: the vertices strongly
    complete to the fixed part of B, the vertices with no neighbor in the
    fixed part of A, and whether each fixed part is anticonnected
    (connected), or None while unknown.  A node takes its parent's state and
    places the one vertex v it fixed.  When v joins B, its antineighbors
    leave the first mask, and the fixed part of B is anticonnected if it
    was and v has an antineighbor in it, is not if v has none there, and
    is unknown otherwise (``_grown``).  In A the same holds with neighbors.  A connectivity
    search (``_mask_connected``) runs only when no free vertex is left in a
    mask and the flag is unknown, so the nodes entered and the masks yielded
    are those of the predicate alone.  At a leaf the vertices of B in the
    first mask are exactly the one-vertex anticomponents of B.
    """
    n, adj, anti = T.n, T.adj, T.anti

    def step(state, a_fixed: int, b_fixed: int, free: int):
        complete_b, lonely_a, b_whole, a_whole = state
        v = free.bit_length()  # fixed last; n at the root
        if v < n:
            bit = 1 << v
            if a_fixed & bit:
                lonely_a &= ~adj[v]
                a_whole = _grown(a_whole, a_fixed ^ bit, adj[v])
            else:
                complete_b &= ~anti[v]
                b_whole = _grown(b_whole, b_fixed ^ bit, anti[v])
        if b_fixed and not free & complete_b:
            if b_whole is None:
                b_whole = _mask_connected(anti, b_fixed)
            if b_whole:
                return None
        if a_fixed and not free & lonely_a:
            if a_whole is None:
                a_whole = _mask_connected(adj, a_fixed)
            if a_whole:
                return None
        return complete_b, lonely_a, b_whole, a_whole

    # a leaf has no free vertex, so the step there is the skew test itself
    full = (1 << n) - 1
    return _pruned_masks(n, step, (full, full, None, None))


def _grown(whole: bool | None, before: int, neigh: int) -> bool | None:
    """Whether a fixed part is one component under the relation ``neigh``
    after a vertex with the mask ``neigh`` joins it, given ``whole`` for
    the part ``before`` (None when unknown): it is if the part was empty, or
    was one component the vertex reaches; it is not if the vertex reaches
    none of a nonempty part; otherwise unknown."""
    if not before:
        return True
    if not neigh & before:
        return False
    return True if whole else None


def find_balanced_skew_partition(T: Trigraph) -> SkewPartitionWitness | None:
    """First balanced skew-partition (A, B) in increasing A-mask order.

    Only the skew-partitions from ``_skew_masks`` are tested for balance,
    and they come in the order a scan of every bipartition meets them, so
    the witness is the one that scan would return.  Balance is tested on
    masks, and sets are built only for the witness.  The pruned search stays exponential in the worst
    case.
    """
    full = (1 << T.n) - 1
    for a_mask, (complete_b, *_) in _skew_masks(T):
        if _is_balanced(T, a_mask, full ^ a_mask):
            return _witness_for(T, a_mask, complete_b)
    return None


def _derive_split(T: Trigraph, x1_mask: int,
                  bicliques: tuple[int, int, int, int]) -> TwoJoinSplit | None:
    """Classify a bipartition as a 2-join, or reject it.

    ``bicliques`` is the leaf state ``(p1, q1, p2, q2)`` of
    ``_two_join_step``: the cross strong edges form exactly the bundles
    p1-q1 and p2-q2.  That classification is forced, so each bipartition
    yields at most one split, up to swapping the A and B names: A holds the
    smallest bundle vertex, so the bundles swap when p2's is below p1's.
    """
    x2_mask = ((1 << T.n) - 1) & ~x1_mask
    if x1_mask.bit_count() < 3 or x2_mask.bit_count() < 3:
        return None
    a1_mask, a2_mask, b1_mask, b2_mask = bicliques
    if b1_mask & -b1_mask < a1_mask & -a1_mask:
        a1_mask, a2_mask, b1_mask, b2_mask = b1_mask, b2_mask, a1_mask, a2_mask
    c1_mask = x1_mask & ~a1_mask & ~b1_mask
    # the X2 side needs no pass of its own: the masks are symmetric, so each
    # vertex of A2 (B2) sees exactly A1 (B1) across, C2 nothing, and no
    # switchable pair crosses
    c2_mask = x2_mask & ~a2_mask & ~b2_mask
    for side_a, side_b, side_x in ((a1_mask, b1_mask, x1_mask),
                                   (a2_mask, b2_mask, x2_mask)):
        if (side_a.bit_count() == 1 and side_b.bit_count() == 1
                and side_x.bit_count() == 3):
            degrees = sorted((T.adj[v] & side_x).bit_count() for v in bits_of(side_x))
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
    """The parities (1 odd, 0 even) of the paths from A to B through C, an
    edge from A to B included: one chordless-path search (``_paths``) per
    vertex of A, in ascending order, stopping once both parities are seen."""
    b_mask, c_mask = mask_of(b), mask_of(c)
    parities: set[int] = set()
    for u in sorted(a):
        for path in _paths(T.adj, T.anti, u, b_mask, c_mask):
            parities.add((len(path) - 1) % 2)
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


def _two_join_step(T: Trigraph, mirrors: bool = True):
    """The step of the 2-join search for ``_pruned_masks``.

    It leaves a node once the strong edges that cross between the fixed
    parts no longer form at most two disjoint bicliques p1 x q1 and p2 x q2
    (p in X1, q in X2), or a switchable pair crosses, or a side can no
    longer reach three vertices; a leaf needs both bicliques.  No mask it
    skips has a split.  The bicliques are the search state: a node takes its
    parent's and places the one vertex it fixed, which must cross strongly
    to nothing, to exactly one q (p for a vertex of X2), or, while a
    biclique is unused, outside the other one.  So at a leaf each vertex of
    p_i crosses to exactly q_i, each of q_i to exactly p_i, and every other
    vertex to nothing: the state is the bundles.
    Without ``mirrors`` it also leaves a node that puts vertex n - 1 in X1.
    """
    n, strong, switch = T.n, T.strong, T.switch
    top = n if mirrors else n - 1  # the vertices X1 may hold are below top

    def step(state, x1_fixed: int, x2_fixed: int, free: int):
        v = free.bit_length()  # fixed last; n at the root
        if v < n:
            bit = 1 << v
            p1, q1, p2, q2 = state
            in_x1 = x1_fixed & bit
            if in_x1:
                if v >= top:
                    return None
                other = x2_fixed
            else:  # seen from X2, each p trades places with its q
                other = x1_fixed
                p1, q1, p2, q2 = q1, p1, q2, p2
            # the other side lost v, and a split needs three vertices a side
            if switch[v] & other or (other | free).bit_count() < 3:
                return None
            cross = strong[v] & other
            if cross:
                if cross == q1:
                    p1 |= bit
                elif cross == q2:
                    p2 |= bit
                elif not q1:
                    p1, q1 = bit, cross
                elif not q2 and not cross & q1:
                    p2, q2 = bit, cross
                else:
                    return None
                state = (p1, q1, p2, q2) if in_x1 else (q1, p1, q2, p2)
        # a split needs two bundles, so a leaf with fewer is dropped
        return state if free or state[3] else None

    return step


def iter_2joins(T: Trigraph):
    """All 2-join splits, in increasing X1-mask order.

    Each unordered bipartition appears twice, once per choice of X1; that is
    deliberate since fragments are one-sided.  Each leaf of the search with
    ``_two_join_step`` is judged once, by ``_derive_split`` on its bundles,
    so the sequence is the one a scan of every bipartition gives.  The
    search stays exponential in the worst case.
    """
    leaves = _pruned_masks(T.n, _two_join_step(T), (0, 0, 0, 0))
    return filter(None, (_derive_split(T, *leaf) for leaf in leaves))


def find_2join(T: Trigraph) -> TwoJoinSplit | None:
    """The first split of ``iter_2joins(T)``.  The search step and
    ``_derive_split`` read the same from either side, so they accept a mask
    exactly when they accept its mirror, the smaller of the two being the
    one with vertex n - 1 in X2; the search never puts n - 1 in X1."""
    leaves = _pruned_masks(T.n, _two_join_step(T, mirrors=False), (0, 0, 0, 0))
    return next(filter(None, (_derive_split(T, *leaf) for leaf in leaves)), None)


def find_complement_2join(T: Trigraph) -> TwoJoinSplit | None:
    """First 2-join of the complement, reported in T's vertex labels."""
    return find_2join(complement(T))


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


class ShapeReport(_Record):
    """Checks a 2-join split against the shape every 2-join of a
    no-balanced-skew-partition member of the working class must have."""

    def __init__(self, violations: tuple[str, ...]):
        self.__dict__.update(violations=violations)

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
