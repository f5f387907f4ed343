"""Core trigraph representation and operations.

A trigraph assigns each unordered vertex pair one of three adjacency codes:
+1 (strongly adjacent), 0 (semiadjacent, a "switchable" pair), or -1
(strongly antiadjacent).  A pair is *adjacent* if its code is in {0, +1} and
*antiadjacent* if its code is in {-1, 0}; a graph is exactly a trigraph with
no switchable pair.  All values here are immutable after construction and
every operation is a pure function that attaches nothing to its input
(``complement`` builds a new trigraph on each call), so everything is safe
to use from multiple workers.

Vertices are the integers 0..n-1.  Both input formats cap n at
MAX_VERTICES (``_check_vertex_count``), plenty for the exhaustive workloads
this library targets; derived trigraphs such as the root graph of a line
trigraph (up to 2n nodes) are built from masks past it.  Adjacency is
stored as two per-vertex bitmasks, one for the strong partners and one for
the switchable partners; every other pair is strongly antiadjacent.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import InputError

MAX_VERTICES = 32

STRONG = 1
SWITCHABLE = 0
ANTI = -1


# the set bit positions of every byte
_BYTE_BITS = tuple(tuple(v for v in range(8) if m >> v & 1) for m in range(256))


def bits_of(mask: int) -> Sequence[int]:
    """The set bit positions of the nonnegative ``mask`` in increasing
    order: below 256 a row of a shared table of tuples, above it a new list
    from one walk of the low bits."""
    if mask < 256:
        return _BYTE_BITS[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Trigraph:
    """Immutable trigraph on vertices 0..n-1.

    The pair codes are the per-vertex bitmasks

    - ``strong[v]``: partners with code +1,
    - ``switch[v]``: partners with code 0,

    and every other pair has code -1.  Derived once at construction:

    - ``adj[v]``: adjacent partners (code >= 0),
    - ``anti[v]``: antiadjacent partners (code <= 0).
    """

    __slots__ = ("n", "strong", "switch", "adj", "anti")

    def __init__(self, strong: Sequence[int], switch: Sequence[int]):
        strong, switch = tuple(strong), tuple(switch)
        n = len(strong)
        if len(switch) != n:
            raise InputError("strong and switch masks must cover the same vertices")
        full = (1 << n) - 1
        adj, anti = [], []
        # the partners below each vertex, mirrored from the rows above it
        strong_below, switch_below = [0] * n, [0] * n
        for v in range(n):
            s, w = strong[v], switch[v]
            others = full ^ (1 << v)
            if (s | w) & ~others:
                raise InputError(f"vertex {v} has a self-pair or a partner out of range")
            if s & w:
                u = (s & w).bit_length() - 1
                raise InputError(f"pair ({v}, {u}) is both strong and switchable")
            adj.append(s | w)
            anti.append(others & ~s)
            bit = 1 << v
            above = s & -(2 << v)
            while above:
                low = above & -above
                strong_below[low.bit_length() - 1] |= bit
                above ^= low
            above = w & -(2 << v)
            while above:
                low = above & -above
                switch_below[low.bit_length() - 1] |= bit
                above ^= low
        for v in range(n):
            below = (1 << v) - 1
            odd = (strong[v] & below ^ strong_below[v]
                   | switch[v] & below ^ switch_below[v])
            if odd:
                u = (odd & -odd).bit_length() - 1
                raise InputError(f"pair ({u}, {v}) has asymmetric codes")
        self.n = n
        self.strong = strong
        self.switch = switch
        self.adj = tuple(adj)
        self.anti = tuple(anti)

    @property
    def is_graph(self) -> bool:
        return not any(self.switch)

    def value(self, u: int, v: int) -> int:
        if u == v:
            raise InputError(f"no self-pair ({u}, {v})")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"pair ({u}, {v}) out of range for n={self.n}")
        if self.strong[u] >> v & 1:
            return STRONG
        return SWITCHABLE if self.switch[u] >> v & 1 else ANTI

    def _pairs_in(self, masks: Sequence[int]) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits_of(masks[u] >> u << u)]

    def strong_edges(self) -> list[tuple[int, int]]:
        return self._pairs_in(self.strong)

    def switchable_pairs(self) -> list[tuple[int, int]]:
        return self._pairs_in(self.switch)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Trigraph) and self.strong == other.strong
                and self.switch == other.switch)

    def __hash__(self) -> int:
        return hash((self.n, self.strong, self.switch))

    def __repr__(self) -> str:
        kind = "graph" if self.is_graph else "trigraph"
        return (f"<{kind} n={self.n} strong={len(self.strong_edges())} "
                f"switchable={len(self.switchable_pairs())}>")


def renumber(masks: Sequence[int], order: Sequence[int]) -> list[int]:
    """Rows ``order`` of a per-vertex mask table, renumbered so that vertex
    ``order[i]`` becomes i; vertices missing from ``order`` drop out."""
    where = {old: new for new, old in enumerate(order)}
    keep = mask_of(order)
    out = []
    for old in order:
        m = 0
        for w in bits_of(masks[old] & keep):
            m |= 1 << where[w]
        out.append(m)
    return out


def _check_vertex_count(n: int) -> None:
    """The vertex cap of the input paths, ``make_trigraph`` and graph6
    decoding: a negative count, or one past MAX_VERTICES, raises
    InputError."""
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds cap {MAX_VERTICES}")


def make_trigraph(n: int, entries: Iterable[tuple[int, int, int]] = ()) -> Trigraph:
    """Build a trigraph from explicit pair codes.

    Pairs not listed default to -1 (strongly antiadjacent).  Rejects more
    than MAX_VERTICES vertices, out-of-range vertices, duplicate pairs, and
    codes outside {-1, 0, +1}, naming the offending pair.
    """
    _check_vertex_count(n)
    strong, switch = [0] * n, [0] * n
    seen: set[tuple[int, int]] = set()
    for u, v, value in entries:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise InputError(f"pair ({u}, {v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"duplicate pair ({key[0]}, {key[1]})")
        if value not in (ANTI, SWITCHABLE, STRONG):
            raise InputError(f"illegal code {value} for pair ({u}, {v})")
        seen.add(key)
        if value != ANTI:
            masks = strong if value == STRONG else switch
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return Trigraph(strong, switch)


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Trigraph:
    """Plain graph: listed pairs strongly adjacent, everything else -1."""
    return make_trigraph(n, [(u, v, STRONG) for u, v in edges])


def complement(T: Trigraph) -> Trigraph:
    """Negate every pair code (an involution).  Its ``adj`` and ``anti`` are
    T's ``anti`` and ``adj``, so a search that needs only those masks takes
    them swapped; a caller that needs the complement as a ``Trigraph`` gets
    a new one on each call, and T is left as it was."""
    return Trigraph([a & ~w for a, w in zip(T.anti, T.switch)], T.switch)


def induced(T: Trigraph, X: Iterable[int]) -> Trigraph:
    """Restriction to the vertex set X: new vertex i is the i-th smallest
    vertex of X.  X may be empty.
    """
    idx = list(bits_of(_vertex_mask(T, X)))
    return Trigraph(renumber(T.strong, idx), renumber(T.switch, idx))


def realization(T: Trigraph, S: Iterable[tuple[int, int]]) -> Trigraph:
    """Graph whose edges are the strong edges of T plus the chosen
    switchable pairs S; every other pair becomes strongly antiadjacent."""
    strong = list(T.strong)
    for u, v in S:
        if u == v or not (0 <= u < T.n and 0 <= v < T.n):
            raise InputError(f"pair ({u}, {v}) out of range for n={T.n}")
        if not T.switch[u] >> v & 1:
            raise InputError(f"pair ({u}, {v}) is not switchable")
        strong[u] |= 1 << v
        strong[v] |= 1 << u
    return Trigraph(strong, [0] * T.n)


def full_realization(T: Trigraph) -> Trigraph:
    return Trigraph(T.adj, [0] * T.n)


def _reach(neigh: Sequence[int], mask: int, seed: int) -> int:
    """The vertices of ``mask`` reachable under ``neigh`` from the vertices
    of the mask ``seed``, the seed included.  One frontier grows until it
    stops; every component, connectivity, 2-coloring and reachability
    question of the package is answered by this search."""
    reached = frontier = seed
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= neigh[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & mask & ~reached
        reached |= frontier
    return reached


def _mask_components(neigh: Sequence[int], mask: int) -> list[int]:
    """The components of ``mask`` under ``neigh`` as masks, ordered by
    lowest bit: ``_reach`` from the lowest vertex not yet covered."""
    comps = []
    while mask:
        comp = _reach(neigh, mask, mask & -mask)
        comps.append(comp)
        mask ^= comp
    return comps


def _mask_connected(neigh: Sequence[int], mask: int) -> bool:
    """Whether ``mask`` is one component (or empty) under ``neigh``: the
    vertices ``_reach`` finds from the lowest bit must be all of it."""
    return _reach(neigh, mask, mask & -mask) == mask


def _is_clique(adj: Sequence[int], mask: int) -> bool:
    """Whether every two vertices of ``mask`` are adjacent under ``adj``."""
    return all(mask & ~adj[v] == 1 << v for v in bits_of(mask))


def _pruned_masks(n: int, step: Callable[[object, int, int, int], object],
                  root: object) -> Iterator[tuple[int, object]]:
    """Yield the masks 0 < x < 2^n - 1 in increasing order, each with the
    state ``step`` returned at its leaf, skipping subtrees that cannot hold
    a wanted mask.

    A depth-first search decides vertex n - 1 first and vertex 0 last,
    putting each vertex on the Y side (bit clear) before the X side, which
    is increasing integer order.  At each node, leaves included, it calls
    ``step(state, x_fixed, y_fixed, free)``, where ``free`` is the mask of
    the undecided vertices and ``state`` is what ``step`` returned at the
    parent node (``root`` at the root).  The vertex fixed last is
    ``free.bit_length()`` (n at the root), so a step can update its parent's
    state with that one vertex.  A falsy return leaves the node and its
    subtree; any other value is the node's state, kept on the DFS stack
    beside the node and handed to its two children only.  Leaving must be a
    necessary condition: when ``step`` returns a truthy state on every
    partial assignment that a wanted mask completes, every wanted mask is
    yielded, in the order of ``range(1, 2^n - 1)``.
    """
    full = (1 << n) - 1
    stack = [(0, 0, full, root)]
    while stack:
        x, y, free, state = stack.pop()
        state = step(state, x, y, free)
        if not state:
            continue
        if not free:
            if 0 < x < full:
                yield x, state
            continue
        bit = 1 << (free.bit_length() - 1)
        free ^= bit
        stack.append((x | bit, y, free, state))
        stack.append((x, y | bit, free, state))


def _vertex_mask(T: Trigraph, X: Iterable[int] | None) -> int:
    """The mask of X (every vertex when X is None); a vertex of X outside
    0..n-1 raises InputError naming it."""
    if X is None:
        return (1 << T.n) - 1
    mask = 0
    for v in X:
        if not 0 <= v < T.n:
            raise InputError(f"vertex {v} out of range for n={T.n}")
        mask |= 1 << v
    return mask


def components(T: Trigraph, X: Iterable[int] | None = None,
               mode: str = "connected") -> list[frozenset[int]]:
    """Maximal connected (or anticonnected) subsets of X.

    Connectivity counts a semiadjacent pair as adjacent; anticonnectivity
    counts it as antiadjacent, i.e. the modes use the code >= 0 and the
    code <= 0 relations respectively.  Returns a partition of X ordered by
    smallest member.
    """
    if mode not in ("connected", "anticonnected"):
        raise InputError(f"unknown mode {mode!r}")
    neigh = T.adj if mode == "connected" else T.anti
    return [frozenset(bits_of(c)) for c in _mask_components(neigh, _vertex_mask(T, X))]


class _Record:
    """Base of the immutable result classes.

    A subclass's ``__init__`` sets every field once, in declaration order,
    through ``self.__dict__``, and nothing else is stored on an instance,
    so ``__dict__`` is exactly the fields.  Two records are equal when they
    have the same class and equal fields; the hash is that of the field
    tuple and the repr is ``Name(field=value, ...)``.  Assigning or
    deleting an attribute raises AttributeError.
    """

    def __setattr__(self, name: str, value: object):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({fields})"


class PathWitness(_Record):
    """A path in the trigraph sense: consecutive vertices adjacent, all
    other pairs antiadjacent."""

    def __init__(self, vertices: tuple[int, ...]):
        self.__dict__.update(vertices=vertices)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_odd(self) -> bool:
        return self.length % 2 == 1


def validate_path(T: Trigraph, vertices: Sequence[int]) -> None:
    """Raise InputError unless the sequence is a path of T."""
    k = len(vertices)
    if k == 0:
        raise InputError("empty vertex sequence")
    if len(set(vertices)) != k:
        raise InputError("path vertices must be distinct")
    for i, j in itertools.combinations(range(k), 2):
        code = T.value(vertices[i], vertices[j])
        if j - i == 1:
            if code < 0:
                raise InputError(
                    f"consecutive pair ({vertices[i]}, {vertices[j]}) not adjacent")
        elif code > 0:
            raise InputError(
                f"non-consecutive pair ({vertices[i]}, {vertices[j]}) not antiadjacent")


def _paths(adj: Sequence[int], anti: Sequence[int], u: int, targets: int,
           inner: int) -> Iterator[tuple[int, ...]]:
    """The chordless paths from u to a vertex of the mask ``targets`` whose
    interior lies in the mask ``inner``, in lexicographic order of their
    vertex sequences.  Consecutive vertices are adjacent under the masks
    ``adj`` and the others antiadjacent under ``anti``, which must not hold
    a vertex itself.  A target ends a path and never extends one.

    One DFS takes candidates in ascending order.  ``tail``, the vertices
    antiadjacent to every path vertex before the last, already excludes
    those vertices, so no mask of used vertices is kept.  A branch stops
    extending once no target is antiadjacent to the whole path, since no
    longer path could close then.
    """
    def grow(path: tuple[int, ...], tail: int) -> Iterator[tuple[int, ...]]:
        last = path[-1]
        whole = tail & anti[last]
        step = adj[last] & tail & (targets | inner if whole & targets else targets)
        while step:
            low = step & -step
            step ^= low
            if low & targets:
                yield path + (low.bit_length() - 1,)
            else:
                yield from grow(path + (low.bit_length() - 1,), whole)

    return grow((u,), -1)


def iter_paths(T: Trigraph, u: int, v: int,
               interior: Iterable[int] | None = None) -> Iterator[tuple[int, ...]]:
    """All paths from u to v in lexicographic order of their vertex
    sequences, from the chordless-path search ``_paths``.  When ``interior``
    is given, interior vertices are restricted to that set (the endpoints
    are not constrained)."""
    if u == v:
        raise InputError("path endpoints must differ")
    for end in (u, v):
        if not 0 <= end < T.n:
            raise InputError(f"vertex {end} out of range for n={T.n}")
    return _paths(T.adj, T.anti, u, 1 << v, _vertex_mask(T, interior))


class HoleWitness(_Record):
    """A hole (chordless cycle on >= 5 vertices) or an antihole (its
    complement-side counterpart), listed in cyclic order."""

    def __init__(self, vertices: tuple[int, ...], kind: str):  # "hole" | "antihole"
        self.__dict__.update(vertices=vertices, kind=kind)

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def is_odd(self) -> bool:
        return self.length % 2 == 1


def validate_hole(T: Trigraph, cycle: Sequence[int], kind: str = "hole") -> None:
    """Raise InputError unless the cyclic sequence is a hole (antihole) of T."""
    k = len(cycle)
    if k < 5:
        raise InputError("holes have at least five vertices")
    if len(set(cycle)) != k:
        raise InputError("hole vertices must be distinct")
    if kind not in ("hole", "antihole"):
        raise InputError(f"unknown hole kind {kind!r}")
    H = T if kind == "hole" else complement(T)
    for i, j in itertools.combinations(range(k), 2):
        code = H.value(cycle[i], cycle[j])
        d = j - i
        if d == 1 or d == k - 1:
            if code < 0:
                raise InputError(f"cyclically consecutive pair ({cycle[i]}, {cycle[j]}) not adjacent")
        elif code > 0:
            raise InputError(f"chord pair ({cycle[i]}, {cycle[j]}) not antiadjacent")


def switchable_components(T: Trigraph) -> list[frozenset[int]]:
    """Components of the graph of switchable pairs, size >= 2 only: the
    components of the vertices that have a switchable partner."""
    partnered = mask_of(v for v, m in enumerate(T.switch) if m)
    return [frozenset(bits_of(c)) for c in _mask_components(T.switch, partnered)]


class ClassFVerdict(_Record):
    """Outcome of the restricted-switchable-structure membership test."""

    def __init__(self, ok: bool, violation: str | None = None,
                 component: frozenset[int] | None = None,
                 kind: str | None = None):  # "small" | "light" | None
        self.__dict__.update(ok=ok, violation=violation, component=component, kind=kind)


def switchable_vertices(T: Trigraph) -> frozenset[int]:
    """Union of the switchable components: the vertices with a switchable
    partner."""
    return frozenset(v for v in range(T.n) if T.switch[v])


def switchable_structure(T: Trigraph) -> ClassFVerdict:
    """The structural half of class membership: at most one switchable
    component, either a single pair ("small") or a two-edge path ("light"),
    with the neighborhood restrictions checked here.  ``in_class_F`` adds
    Bergeness."""
    comps = switchable_components(T)
    if len(comps) > 1:
        return ClassFVerdict(False, "more than one switchable component")
    if not comps:
        return ClassFVerdict(True, None, None, None)
    D = comps[0]
    sigma_edges = T.switchable_pairs()
    if len(sigma_edges) > 2:
        return ClassFVerdict(False, "switchable component has more than two edges", D)
    if len(sigma_edges) == 1:
        x, y = sigma_edges[0]
        if T.adj[x] & T.adj[y]:
            return ClassFVerdict(
                False, "small switchable pair has a common neighbor", D, "small")
        return ClassFVerdict(True, None, D, "small")
    # two switchable edges, a path x - center - y: its center's other edges are strong
    center = next(w for w in D if T.switch[w].bit_count() == 2)
    x, y = bits_of(T.switch[center])
    if T.strong[center]:
        return ClassFVerdict(
            False, "light component center has a neighbor outside the component",
            D, "light")
    if T.adj[x] >> y & 1:
        return ClassFVerdict(
            False, "light component ends are not strongly antiadjacent", D, "light")
    if T.adj[x] & T.adj[y] != 1 << center:
        return ClassFVerdict(
            False, "light component ends have common neighbors besides the center",
            D, "light")
    return ClassFVerdict(True, None, D, "light")


def with_bergeness(structure: ClassFVerdict, berge: bool) -> ClassFVerdict:
    """Class membership from its two halves, the ``switchable_structure``
    verdict and whether the trigraph is Berge.  A structural violation is
    named first, so the reported violation is deterministic."""
    if structure.ok and not berge:
        return ClassFVerdict(False, "not Berge", structure.component, structure.kind)
    return structure


def in_class_F(T: Trigraph) -> ClassFVerdict:
    """Membership test for the working class of Berge trigraphs whose only
    switchable component is a single pair ("small") or a two-edge path
    ("light") with the neighborhood restrictions checked here.

    Structural conditions are checked first so the named violation is
    deterministic; Bergeness is checked last.
    """
    verdict = switchable_structure(T)
    if not verdict.ok:
        return verdict
    from .detect import is_berge  # deferred: detect builds on this module

    return with_bergeness(verdict, is_berge(T)[0])


def is_complete(T: Trigraph) -> bool:
    """True iff every pair is adjacent (semiadjacent counts as adjacent)."""
    return _is_clique(T.adj, (1 << T.n) - 1)


def clique_number(G: Trigraph) -> int:
    """Maximum clique size of a graph, by branch and bound over bitmasks."""
    if not G.is_graph:
        raise InputError("clique_number requires a graph (no switchable pairs)")
    adj = G.adj
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(cand & adj[v], size + 1)

    expand((1 << G.n) - 1, 0)
    return best
