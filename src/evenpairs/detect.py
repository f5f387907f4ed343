"""Detectors for odd holes, antiholes, prisms, Bergeness, and even pairs.

Everything here is an exhaustive search with deterministic tie-breaking:
hole searches run through lengths in increasing order and build cycles by
DFS in ascending vertex order, so the returned witness is the minimum-length
lexicographically-least one.  Witnesses are always checkable objects, never
bare booleans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import InputError
from .trigraph import (ANTI, HoleWitness, PathWitness, Trigraph, bits_of,
                       complement, iter_paths, mask_of, switchable_vertices)

# is_even_pair gives up with a RuntimeError past this many u-v paths
MAX_PATHS = 1_000_000


def _iter_holes_of_length(T: Trigraph, k: int,
                          first: int | None = None) -> Iterator[tuple[int, ...]]:
    """Chordless cycles of exactly k vertices, produced in canonical form:
    the smallest vertex first and the second vertex smaller than the last.
    With ``first``, only the cycles whose smallest vertex is ``first``."""
    n = T.n
    if k > n:
        return
    adj, anti = T.adj, T.anti

    for h1 in range(n) if first is None else (first,):
        above = ~((1 << (h1 + 1)) - 1) & ((1 << n) - 1)
        h1_bit = 1 << h1

        def rec(path: tuple[int, ...], used: int, tail_anti: int) -> Iterator[tuple[int, ...]]:
            last = path[-1]
            depth = len(path)
            if depth == k - 1:
                cand = adj[last] & tail_anti & adj[h1] & above & ~used
                for x in bits_of(cand):
                    if path[1] < x:
                        yield path + (x,)
                return
            cand = adj[last] & tail_anti & anti[h1] & above & ~used
            next_tail = tail_anti & anti[last]
            for x in bits_of(cand):
                yield from rec(path + (x,), used | (1 << x), next_tail)

        full = (1 << n) - 1
        for h2 in bits_of(adj[h1] & above):
            yield from rec((h1, h2), h1_bit | (1 << h2), full)


def find_hole(T: Trigraph, lengths) -> HoleWitness | None:
    """First hole whose length lies in ``lengths`` (scanned in the given
    order, so pass increasing lengths for minimum-length witnesses)."""
    for k in lengths:
        if k < 5:
            raise InputError("holes have at least five vertices")
        for cycle in _iter_holes_of_length(T, k):
            return HoleWitness(cycle, "hole")
    return None


def find_odd_hole(T: Trigraph) -> HoleWitness | None:
    return find_hole(T, range(5, T.n + 1, 2))


def find_odd_antihole(T: Trigraph) -> HoleWitness | None:
    wit = find_odd_hole(complement(T))
    if wit is None:
        return None
    return HoleWitness(wit.vertices, "antihole")


def find_antihole_of_length_at_least(T: Trigraph, k: int) -> HoleWitness | None:
    """Shortest antihole of length >= k, of any parity."""
    if k < 5:
        raise InputError("antiholes have at least five vertices")
    wit = find_hole(complement(T), range(k, T.n + 1))
    if wit is None:
        return None
    return HoleWitness(wit.vertices, "antihole")


def is_berge(T: Trigraph) -> tuple[bool, HoleWitness | None]:
    """No odd hole and no odd antihole; the offending witness otherwise."""
    wit = find_odd_hole(T)
    if wit is not None:
        return False, wit
    wit = find_odd_antihole(T)
    if wit is not None:
        return False, wit
    return True, None


@dataclass(frozen=True)
class PrismWitness:
    """Two disjoint triangles joined by three disjoint rungs such that the
    induced subtrigraph realizes exactly the prism (no stray edges)."""

    cliques: tuple[tuple[int, int, int], tuple[int, int, int]]
    rungs: tuple[PathWitness, PathWitness, PathWitness]

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


def _iter_prisms(T: Trigraph) -> Iterator[PrismWitness]:
    n, adj = T.n, T.adj
    triangles = [((a, b, c), mask_of((a, b, c)))
                 for a, b, c in itertools.combinations(range(n), 3)
                 if adj[a] >> b & 1 and adj[c] >> a & 1 and adj[c] >> b & 1]

    for ia, (tri_a, mask_a) in enumerate(triangles):
        # each vertex of the second triangle lies outside the first and may
        # see only its own partner there, so it must miss ``blocked``
        sa, sb, sc = (adj[v] for v in tri_a)
        blocked = mask_a | sa & sb | sa & sc | sb & sc
        for tri_b, mask_b in triangles[ia + 1:]:
            if mask_b & blocked:
                continue
            for perm in itertools.permutations(tri_b):
                # between the triangles only matched pairs may be adjacent
                ok = all(not adj[tri_a[i]] >> perm[j] & 1
                         for i in range(3) for j in range(3) if i != j)
                if not ok:
                    continue
                yield from _extend_rungs(T, tri_a, perm, 0, mask_a | mask_b, ())


def _extend_rungs(T: Trigraph, tri_a, tri_b, i: int, used: int,
                  rungs: tuple) -> Iterator[PrismWitness]:
    if i == 3:
        yield PrismWitness((tri_a, tri_b), rungs)
        return
    a, b = tri_a[i], tri_b[i]
    adj = T.adj
    if adj[a] >> b & 1:
        # direct edge: the rung must be exactly a-b, otherwise a chord appears
        yield from _extend_rungs(T, tri_a, tri_b, i + 1, used,
                                 rungs + (PathWitness((a, b)),))
        return

    def grow(path: tuple[int, ...], used_now: int) -> Iterator[PrismWitness]:
        last = path[-1]
        others = used_now & ~(1 << last) & ~(1 << b)
        cand = adj[last] & ~used_now & ~(1 << b)
        for w in bits_of(cand):
            # interior vertices touch nothing already chosen except the
            # predecessor; adjacency to b forces the rung to close there
            if adj[w] & others:
                continue
            if adj[w] >> b & 1:
                yield from _extend_rungs(
                    T, tri_a, tri_b, i + 1, used_now | (1 << w),
                    rungs + (PathWitness(path + (w, b)),))
            else:
                yield from grow(path + (w,), used_now | (1 << w))

    yield from grow((a,), used)


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


@dataclass(frozen=True)
class EvenPairReport:
    """Outcome of an even-pair test, with the enumeration evidence."""

    pair: tuple[int, int]
    verdict: str  # "even_pair" | "not_even_pair" | "not_strongly_antiadjacent"
    witness: PathWitness | None
    path_count: int

    @property
    def is_even_pair(self) -> bool:
        return self.verdict == "even_pair"


def _gadget_sees_odd_path(G: Trigraph, u: int, v: int) -> bool:
    """Second route for graphs: attach a degree-two vertex to u and v and
    look for an odd hole through it.  Independent of the path enumerator.

    The new vertex is numbered 0 (graph vertex i becomes i + 1), so the holes
    through it are exactly those whose smallest vertex is 0."""
    ends = 1 << u | 1 << v
    strong = [ends << 1] + [m << 1 | (ends >> i & 1) for i, m in enumerate(G.strong)]
    gadget = Trigraph(strong, [0] * (G.n + 1))
    return any(next(_iter_holes_of_length(gadget, k, first=0), None)
               for k in range(5, G.n + 2, 2))


def is_even_pair(T: Trigraph, u: int, v: int) -> EvenPairReport:
    """Decide whether {u, v} is an even pair: a strongly antiadjacent pair
    all of whose connecting paths are even.

    Path enumeration decides the verdict; on graphs the hole-gadget route is
    re-run and the two must agree (a mismatch is raised, never returned).
    """
    if u == v:
        raise InputError("even pair endpoints must differ")
    if u > v:
        u, v = v, u
    if T.value(u, v) != ANTI:
        return EvenPairReport((u, v), "not_strongly_antiadjacent", None, 0)
    count = 0
    witness = None
    for seq in iter_paths(T, u, v):
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
            raise AssertionError(
                f"even-pair routes disagree on ({u}, {v}): "
                f"gadget={gadget_odd}, enumeration={witness is not None}")
    return EvenPairReport((u, v), verdict, witness, count)


def even_pairs(T: Trigraph) -> Iterator[tuple[int, int]]:
    """The even pairs of T, lazily and in lexicographic order; each
    candidate gets its one oracle check when the scan reaches it."""
    for u, v in itertools.combinations(range(T.n), 2):
        if T.value(u, v) == ANTI and is_even_pair(T, u, v).is_even_pair:
            yield (u, v)


def find_even_pair_oracle(T: Trigraph,
                          require_disjoint_from_switchable: bool = False
                          ) -> tuple[int, int] | None:
    """Brute-force scan: the lexicographically least even pair, optionally
    avoiding every switchable component."""
    forbidden = switchable_vertices(T) if require_disjoint_from_switchable else frozenset()
    return next((p for p in even_pairs(T) if not forbidden & set(p)), None)
