"""Canonical forms for trigraphs via refinement and individualization.

The canonical form of a trigraph is the minimum, over vertex orderings, of
the byte encoding of its pair codes (one byte per pair of the upper
triangle: 0 for -1, 1 for 0 and 2 for +1).  Orderings are pruned by
iterated color refinement and, inside a cell, by skipping vertices whose
strong and switchable masks agree with an already-tried cell mate's outside
the two of them.  This is plenty for the n <= 10 enumeration workloads the
harness runs.

Refinement splits each cell (the vertices of one color) by a key until no
cell splits, the parts of a cell in key order: the order of the vertices'
sorted tuples of (pair code, partner color) over the other vertices, found
by counting instead of sorting.  Of two equal-size sorted
multisets, the one with more copies of the first element whose counts
differ is the smaller, so they compare as their negated count vectors.  In
one cell the code-0 count into a cell is a constant minus the adjacent
count, and the code-0 and code-1 counts fix the code-2 count.  So the key is
the adjacent count into every cell, then, when the trigraph has a
switchable pair, the negated switchable count into every cell.  McKay and
Piperno, "Practical graph isomorphism II" (J. Symb. Comput. 2014), refine
by neighbor counts the same way.

The search proves automorphisms as it goes: the transposition of each
skipped cell mate, and the map between two leaves with equal encodings.
``mask_automorphisms`` returns them as generators of the automorphism
group; the enumeration uses them to label one child per orbit.
"""

from __future__ import annotations

from .trigraph import Trigraph, bits_of, renumber


def _refine(adj: list[int], switch: list[int], cells: list[int]) -> list[int]:
    """Split the cells (vertex masks in color order) by key until no cell
    splits; a split cell's parts go in place, ordered by key."""
    switchable = any(switch)
    while True:
        split = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            parts: dict[tuple, int] = {}
            for v in bits_of(cell):
                key = [(adj[v] & d).bit_count() for d in cells]
                if switchable:
                    key += [-(switch[v] & d).bit_count() for d in cells]
                key = tuple(key)
                parts[key] = parts.get(key, 0) | 1 << v
            split.extend(parts[key] for key in sorted(parts))
        if len(split) == len(cells):
            return cells
        cells = split


def _encode(strong: list[int], switch: list[int], perm: tuple[int, ...]) -> bytes:
    out = bytearray([len(perm)])
    for i, v in enumerate(perm):
        s, w = strong[v], switch[v]
        out.extend(2 if s >> u & 1 else w >> u & 1 for u in perm[i + 1:])
    return bytes(out)


def _search(strong: list[int], switch: list[int], adj: list[int],
            cells: list[int], best: list, autos: list) -> None:
    cells = _refine(adj, switch, cells)
    target = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), None)
    if target is None:
        perm = tuple(cell.bit_length() - 1 for cell in cells)
        enc = _encode(strong, switch, perm)
        if best[0] is None or enc < best[0]:
            best[0], best[1] = enc, perm
        elif enc == best[0]:
            # both orderings give the same trigraph
            autos.append((perm, best[1]))
        return
    tried: list[int] = []
    for v in bits_of(cells[target]):
        # skip v when some tried cell mate u has the same codes outside
        # {u, v}: the transposition (u v) is then an automorphism
        twin = next((u for u in tried
                     if not ((strong[v] ^ strong[u]) | (switch[v] ^ switch[u]))
                     & ~(1 << u | 1 << v)), None)
        if twin is not None:
            autos.append(((twin, v), (v, twin)))
            continue
        tried.append(v)
        bit = 1 << v
        _search(strong, switch, adj, cells[:target] + [bit, cells[target] ^ bit]
                + cells[target + 1:], best, autos)


def _run(strong: list[int], switch: list[int],
         autos: list) -> tuple[bytes, tuple[int, ...]]:
    """The search's form and perm; the automorphisms it proves are added to
    ``autos`` as (sources, images) pairs."""
    if not strong:
        return b"\x00", ()
    best: list = [None, None]
    adj = [s | w for s, w in zip(strong, switch)]
    _search(strong, switch, adj, [(1 << len(strong)) - 1], best, autos)
    return best[0], best[1]


def mask_labeling(strong: list[int], switch: list[int]) -> tuple[bytes, tuple[int, ...]]:
    """``canonical_labeling`` of the trigraph with these strong and
    switchable masks, without building it."""
    return _run(strong, switch, [])


def mask_automorphisms(strong: list[int], switch: list[int]) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of the trigraph with these
    masks, each as the tuple whose entry v is the image of vertex v.

    They are the automorphisms the labeling search proves on its way: a
    transposition for each skipped cell mate, and for each leaf whose
    encoding equals the best one so far, the map from that leaf's ordering
    to the best one's.  The search is invariant under the group and prunes
    only images of explored subtrees, so they generate the whole group
    (McKay and Piperno 2014).
    """
    autos: list = []
    _run(strong, switch, autos)
    gens = []
    for sources, images in autos:
        g = list(range(len(strong)))
        for v, w in zip(sources, images):
            g[v] = w
        gens.append(tuple(g))
    return gens


def canonical_labeling(T: Trigraph) -> tuple[bytes, tuple[int, ...]]:
    """Canonical form and a permutation achieving it.

    ``perm[i]`` is the original vertex placed at canonical position i; two
    trigraphs are isomorphic exactly when their forms agree.
    """
    return mask_labeling(T.strong, T.switch)


def canonical_form(T: Trigraph) -> bytes:
    return canonical_labeling(T)[0]


def relabel(T: Trigraph, perm: tuple[int, ...]) -> Trigraph:
    """Trigraph whose vertex i is T's vertex perm[i]."""
    return Trigraph(renumber(T.strong, perm), renumber(T.switch, perm))
