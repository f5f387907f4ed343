"""Detectors for odd holes, antiholes, prisms, Bergeness, and even pairs.

Everything here is an exhaustive search with deterministic tie-breaking:
a hole search is one DFS over chordless paths in ascending vertex order,
bounded by the shortest hole found so far and cut wherever no hole can
close below a path any more, so the returned witness is the
minimum-length lexicographically-least one, the same one a scan of the
lengths one at a time in increasing order would return.  An antihole
search is the hole search on the masks with adjacency and antiadjacency
swapped, so no complement is built.  One DFS can answer several length
sets, each with its own best hole and bound: the precondition pass asks
for the odd antiholes and the long ones at once, which on C16 takes
0.07 ms on one core of a 2-vCPU machine, about what either search alone
takes.  Witnesses are always checkable objects, never bare booleans.

``is_even_pair`` is the one even-pair oracle: it walks the chordless paths
of ``trigraph._paths``, and on graphs a hole search through a gadget vertex
must agree.  ``even_pairs`` is the one scan, calling it once per candidate.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator

from .errors import InputError, TheoremContradictionError
from .trigraph import (ANTI, HoleWitness, PathWitness, Trigraph, _paths, _Record,
                       _vertex_mask, bits_of, mask_of)

# is_even_pair gives up with a RuntimeError past this many u-v paths
MAX_PATHS = 1_000_000


def _shortest_holes(n: int, adj, anti, wanted,
                    first: int | None = None) -> list[tuple[int, ...] | None]:
    """For each mask of ``wanted``, whose bit k stands for the length k
    (each at least five), the shortest hole of a length it holds, in
    canonical form (smallest vertex first, second vertex smaller than the
    last), and among those the first one met; None if there is none.  With
    ``first``, only the holes whose smallest vertex is ``first``.  The
    trigraph is given by its vertex count and ``adj`` and ``anti`` masks,
    so callers can search one they never build, or its complement by swapping.

    One DFS, for all the masks at once, grows chordless paths from each
    smallest vertex h1 in ascending order, taking candidates in ascending
    order.  Each mask keeps its live lengths, those shorter than its best
    hole so far; ``live`` is their union.  A candidate adjacent to h1 and
    above the second vertex closes a hole for each mask with that length
    live; one antiadjacent to h1 extends the path (a vertex semiadjacent to
    h1 does both).  A path is dropped as soon as no live length longer than
    it can close on it, or no closing vertex is antiadjacent to all of its
    vertices but h1, since a hole closed further down needs one.  A mask's
    lengths shrink only at its own holes, so the tree of a search for one
    mask alone is a pruned subtree of this one, met in the same order: each
    answer is that search's, which is what scanning the mask's lengths one
    by one in increasing order would return.

    No mask of used vertices is kept, since every path vertex is already
    excluded from the candidates: h1 by ``closers`` and ``extenders``,
    which hold only vertices above h1, the interior vertices by
    ``tail_anti``, since no vertex is antiadjacent to itself, and the last
    vertex by its own adjacency mask.
    """
    upto, lives, bests, live = (2 << n) - 1, [], [], 0
    for w in wanted:
        w &= upto
        lives.append(w)
        bests.append(None)
        live |= w
    if not live:
        return bests
    shortest = (live & -live).bit_length() - 1
    limit = live.bit_length() - 1  # the longest live length

    def grow(path: tuple[int, ...], tail_anti: int) -> None:
        # tail_anti: the vertices antiadjacent to every interior path vertex
        nonlocal live, limit
        depth = len(path)
        last = path[-1]
        step = adj[last] & tail_anti
        if live >> (depth + 1) & 1:
            close = step & closers
            if close:
                hole = path + ((close & -close).bit_length() - 1,)
                # each mask that takes it keeps only the shorter lengths; a
                # lone mask takes every hole, so its closes skip the loop
                if len(lives) == 1:
                    bests[0] = hole
                    lives[0] = live = live & (2 << depth) - 1
                else:
                    bit, live = 2 << depth, 0
                    for i, wanted in enumerate(lives):
                        if wanted & bit:
                            bests[i] = hole
                            lives[i] = wanted = wanted & bit - 1
                        live |= wanted
                limit = live.bit_length() - 1
        if depth + 2 > limit:
            return
        next_tail = tail_anti & anti[last]
        if not closers & next_tail:
            return
        extend = step & extenders
        while extend:
            low = extend & -extend
            grow(path + (low.bit_length() - 1,), next_tail)
            if depth + 2 > limit:
                return
            extend ^= low

    full = (1 << n) - 1
    for h1 in range(n - shortest + 1) if first is None else (first,):
        if limit < shortest:
            break
        above = full & -(2 << h1)
        seconds = adj[h1] & above
        extenders = anti[h1] & above
        while seconds and limit >= shortest:
            low = seconds & -seconds
            # canonical form: the closing vertex is above the second
            closers = adj[h1] & -(low << 1)
            grow((h1, low.bit_length() - 1), full)
            seconds ^= low
    return bests


@functools.cache
def _odd_lengths(n: int) -> int:
    """The mask of the odd lengths from five to n, bit k for the length k:
    (4^j - 1) / 3 sets the bits 0, 2, ..., 2j - 2, and doubled the odd ones."""
    return (1 << (n + 1 & -2)) // 3 * 2 & -32


def find_odd_hole(T: Trigraph) -> HoleWitness | None:
    cycle = _shortest_holes(T.n, T.adj, T.anti, (_odd_lengths(T.n),))[0]
    return None if cycle is None else HoleWitness(cycle, "hole")


def find_odd_antihole(T: Trigraph) -> HoleWitness | None:
    """Shortest odd antihole: a hole search with adjacency and
    antiadjacency swapped, which is the complement's."""
    cycle = _shortest_holes(T.n, T.anti, T.adj, (_odd_lengths(T.n),))[0]
    return None if cycle is None else HoleWitness(cycle, "antihole")


def find_antihole_of_length_at_least(T: Trigraph, k: int) -> HoleWitness | None:
    """Shortest antihole of length >= k, of any parity, by the hole search
    on the swapped masks."""
    if k < 5:
        raise InputError("antiholes have at least five vertices")
    cycle = _shortest_holes(T.n, T.anti, T.adj, (-1 << k,))[0]
    return None if cycle is None else HoleWitness(cycle, "antihole")


def _antiholes(T: Trigraph, k: int) -> tuple[HoleWitness | None, HoleWitness | None]:
    """``find_odd_antihole(T)`` and ``find_antihole_of_length_at_least(T, k)``
    from one DFS."""
    return tuple(None if cycle is None else HoleWitness(cycle, "antihole")
                 for cycle in _shortest_holes(T.n, T.anti, T.adj,
                                              (_odd_lengths(T.n), -1 << k)))


def is_berge(T: Trigraph) -> tuple[bool, HoleWitness | None]:
    """No odd hole and no odd antihole; the offending witness otherwise."""
    wit = find_odd_hole(T)
    if wit is not None:
        return False, wit
    wit = find_odd_antihole(T)
    if wit is not None:
        return False, wit
    return True, None


class PrismWitness(_Record):
    """Two disjoint triangles joined by three disjoint rungs such that the
    induced subtrigraph realizes exactly the prism (no stray edges)."""

    def __init__(self, cliques: tuple[tuple[int, int, int], tuple[int, int, int]],
                 rungs: tuple[PathWitness, PathWitness, PathWitness]):
        self.__dict__.update(cliques=cliques, rungs=rungs)

    @property
    def parity(self) -> str:
        parities = {r.length % 2 for r in self.rungs}
        if parities == {1}:
            return "odd"
        if parities == {0}:
            return "even"
        return "mixed"

    @property
    def vertices(self) -> tuple[int, ...]:
        seen: list[int] = []
        for r in self.rungs:
            seen.extend(r.vertices)
        return tuple(dict.fromkeys(seen))


def validate_prism(T: Trigraph, witness: PrismWitness) -> None:
    """Raise InputError unless the witness really is a prism of T."""
    a, b = witness.cliques
    verts = witness.vertices
    if len(verts) != sum(len(r.vertices) for r in witness.rungs):
        raise InputError("prism rungs overlap")
    for tri in (a, b):
        for u, v in itertools.combinations(tri, 2):
            if T.value(u, v) < 0:
                raise InputError(f"triangle pair ({u}, {v}) not adjacent")
    required = {frozenset(p) for tri in (a, b)
                for p in itertools.combinations(tri, 2)}
    for i, rung in enumerate(witness.rungs):
        if rung.vertices[0] != a[i] or rung.vertices[-1] != b[i]:
            raise InputError(f"rung {i} does not join its clique vertices")
        for x, y in zip(rung.vertices, rung.vertices[1:]):
            required.add(frozenset((x, y)))
    for u, v in itertools.combinations(verts, 2):
        code = T.value(u, v)
        if frozenset((u, v)) in required:
            if code < 0:
                raise InputError(f"required prism edge ({u}, {v}) missing")
        elif code != ANTI:
            raise InputError(f"stray edge ({u}, {v}) inside the prism")


def _triangles(adj, avail: int) -> list[tuple[tuple[int, int, int], int]]:
    """The triangles a < b < c inside the mask ``avail``, in lexicographic
    order, each with its mask, read off the masks by three nested walks of
    their low bits."""
    out = []
    while avail:
        low_a = avail & -avail
        avail ^= low_a
        a = low_a.bit_length() - 1
        # avail now holds only vertices above a, and bs only those above b
        bs = adj[a] & avail
        while bs:
            low_b = bs & -bs
            bs ^= low_b
            ab = low_a | low_b
            b = low_b.bit_length() - 1
            cs = bs & adj[b]
            while cs:
                low_c = cs & -cs
                cs ^= low_c
                out.append(((a, b, low_c.bit_length() - 1), ab | low_c))
    return out


def _iter_prisms(T: Trigraph) -> Iterator[PrismWitness]:
    """Every prism of T: triangle pairs in lexicographic order, every
    matching of the second triangle's vertices to the first's, then the
    rungs from ``_extend_rungs``.

    Each vertex of the second triangle lies outside the first and may see
    only its own partner there, so it must miss ``blocked``: the first
    triangle and the common neighbors of two of its vertices.  A triangle
    after the first one in lexicographic order that misses it has its
    smallest vertex above the first's smallest, so the second triangles are
    listed by ``_triangles`` inside the unblocked vertices above that
    vertex (none when fewer than three are left), which is the sequence a
    scan of the later triangles keeps, in the same order.
    """
    n, adj = T.n, T.adj
    full = (1 << n) - 1
    strict_anti = None
    for tri_a, mask_a in _triangles(adj, full):
        sa, sb, sc = adj[tri_a[0]], adj[tri_a[1]], adj[tri_a[2]]
        free = full & ~(mask_a | sa & sb | sa & sc | sb & sc) & -(2 << tri_a[0])
        if free.bit_count() < 3:
            continue
        for tri_b, mask_b in _triangles(adj, free):
            for perm in itertools.permutations(tri_b):
                p0, p1, p2 = perm
                # between the triangles only matched pairs may be adjacent
                if (sa >> p1 | sa >> p2 | sb >> p0 | sb >> p2 | sc >> p0 | sc >> p1) & 1:
                    continue
                if strict_anti is None:
                    # strict_anti[v]: the strong antineighbors of v, the only
                    # partners a rung vertex may have among the rung's
                    # non-consecutive vertices
                    strict_anti = [full ^ 1 << v ^ adj[v] for v in range(n)]
                yield from _extend_rungs(T, strict_anti, tri_a, perm, 0,
                                         mask_a | mask_b, ())


def _extend_rungs(T: Trigraph, strict_anti, tri_a, tri_b, i: int, used: int,
                  rungs: tuple) -> Iterator[PrismWitness]:
    """The prisms that complete ``rungs`` with rungs i..2, rung i running
    from tri_a[i] to tri_b[i] through the vertices outside ``used``.

    Each rung is a chordless path of ``_paths`` under ``strict_anti``, so
    its non-consecutive pairs are strongly antiadjacent.  Its interior
    vertices see nothing already chosen except the rung's ends, so they lie
    outside the neighborhoods of the other chosen vertices; a vertex
    adjacent to b can only be followed by b.
    """
    if i == 3:
        yield PrismWitness((tri_a, tri_b), rungs)
        return
    a, b = tri_a[i], tri_b[i]
    adj = T.adj
    chosen = used & ~(1 << a | 1 << b)
    seen = used
    while chosen:
        low = chosen & -chosen
        seen |= adj[low.bit_length() - 1]
        chosen ^= low
    inner = ((1 << T.n) - 1) & ~seen
    for rung in _paths(adj, strict_anti, a, 1 << b, inner):
        yield from _extend_rungs(T, strict_anti, tri_a, tri_b, i + 1,
                                 used | mask_of(rung), rungs + (PathWitness(rung),))


def find_prism(T: Trigraph, parity_filter: str = "any") -> PrismWitness | None:
    """First prism whose parity matches the filter.

    A prism in a Berge trigraph is always all-odd or all-even; mixed-parity
    witnesses can only come from non-Berge inputs and only match "any".
    """
    if parity_filter not in ("any", "odd", "even"):
        raise InputError(f"unknown parity filter {parity_filter!r}")
    for witness in _iter_prisms(T):
        if parity_filter == "any" or witness.parity == parity_filter:
            return witness
    return None


class EvenPairReport(_Record):
    """Outcome of an even-pair test, with the enumeration evidence."""

    # verdict: "even_pair" | "not_even_pair" | "not_strongly_antiadjacent"
    def __init__(self, pair: tuple[int, int], verdict: str, witness: PathWitness | None,
                 path_count: int):
        self.__dict__.update(pair=pair, verdict=verdict, witness=witness, path_count=path_count)

    @property
    def is_even_pair(self) -> bool:
        return self.verdict == "even_pair"


def _gadget_sees_odd_path(G: Trigraph, u: int, v: int) -> bool:
    """Second route for graphs: attach a degree-two vertex to u and v and
    look for an odd hole through it.  Independent of the path enumerator.

    The new vertex is numbered 0 (graph vertex i becomes i + 1), so the holes
    through it are exactly those whose smallest vertex is 0.  The gadget is
    searched through its masks and never built as a ``Trigraph``, so a graph
    at the vertex cap gets one too."""
    ends = 1 << u | 1 << v
    adj = [ends << 1] + [m << 1 | (ends >> i & 1) for i, m in enumerate(G.adj)]
    full = (2 << G.n) - 1
    anti = [full ^ 1 << w ^ m for w, m in enumerate(adj)]
    return _shortest_holes(G.n + 1, adj, anti, (_odd_lengths(G.n + 1),),
                           first=0)[0] is not None


def is_even_pair(T: Trigraph, u: int, v: int) -> EvenPairReport:
    """Decide whether {u, v} is an even pair: a strongly antiadjacent pair
    all of whose connecting paths are even.

    Path enumeration decides the verdict; on graphs the hole-gadget route is
    re-run and the two must agree (a mismatch is raised, never returned).
    """
    if u > v:
        u, v = v, u
    if T.value(u, v) != ANTI:
        return EvenPairReport((u, v), "not_strongly_antiadjacent", None, 0)
    count = 0
    witness = None
    for seq in _paths(T.adj, T.anti, u, 1 << v, (1 << T.n) - 1):
        count += 1
        if count > MAX_PATHS:
            raise RuntimeError(
                f"path enumeration for ({u}, {v}) exceeded {MAX_PATHS} paths")
        if (len(seq) - 1) % 2 == 1:
            witness = PathWitness(seq)
            break
    verdict = "not_even_pair" if witness is not None else "even_pair"
    if T.is_graph:
        gadget_odd = _gadget_sees_odd_path(T, u, v)
        if gadget_odd != (witness is not None):
            raise TheoremContradictionError(
                f"even-pair routes disagree on ({u}, {v}): "
                f"gadget={gadget_odd}, enumeration={witness is not None}")
    return EvenPairReport((u, v), verdict, witness, count)


def even_pairs(T: Trigraph, avoid: Iterable[int] = ()) -> Iterator[tuple[int, int]]:
    """The even pairs of T that miss ``avoid``, lazily and in lexicographic
    order: each strongly antiadjacent pair outside ``avoid`` gets its one
    oracle check when the scan reaches it.  A vertex of ``avoid`` outside
    0..n-1 raises InputError when the scan starts."""
    allowed = ((1 << T.n) - 1) & ~_vertex_mask(T, avoid)
    for u in bits_of(allowed):
        # the strong antineighbors of u above u
        later = T.anti[u] & ~T.switch[u] & allowed & -(2 << u)
        while later:
            low = later & -later
            later ^= low
            v = low.bit_length() - 1
            if is_even_pair(T, u, v).is_even_pair:
                yield (u, v)
