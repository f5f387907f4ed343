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
switchable pair, the negated switchable count into every cell.  Refinement
is incremental: a round counts only into the parts of the cells the round
before split, all but the last part of each, and at a search node only into
the individualized vertex; the counts it leaves out are constant within a
cell or fixed by the others, so the parts and their order are the ones the
full key gives.  McKay and Piperno, "Practical graph isomorphism II"
(J. Symb. Comput. 2014), refine by neighbor counts the same way.

The search proves automorphisms as it goes: the transposition of each
skipped cell mate, and the map between two leaves with equal encodings.
``mask_automorphisms`` returns them, with the canonical perm, as
generators of the whole automorphism group; the enumeration uses them to
extend each base once per orbit of neighborhoods and to tell whether a
child's new vertex is its canonical deletion vertex.
"""

from __future__ import annotations

from .trigraph import Trigraph, bits_of, renumber


def _refine(adj: list[int], switch: list[int], cells: list[int],
            new: list[int]) -> list[int]:
    """Split the cells (vertex masks in color order) by key until no cell
    splits; a split cell's parts go in place, ordered by key.

    Each cell already has a constant count into every cell but the ``new``
    ones (in cell order), so the key counts into those only.  A round's new
    cells are the parts of the cells it split, all but the last: within a
    cell, counts into an unsplit cell are constant, and the count into a
    split cell's last part is the cell's total minus its other parts', so
    leaving them out keeps the key order.
    """
    switchable = any(switch)
    while new:
        split: list[int] = []
        fresh: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                split.append(cell)
                continue
            parts: dict[tuple, int] = {}
            for v in bits_of(cell):
                a = adj[v]
                key = [(a & d).bit_count() for d in new]
                if switchable:
                    w = switch[v]
                    key += [-(w & d).bit_count() for d in new]
                key = tuple(key)
                parts[key] = parts.get(key, 0) | 1 << v
            if len(parts) == 1:
                split.append(cell)
                continue
            ordered = [parts[key] for key in sorted(parts)]
            split.extend(ordered)
            fresh.extend(ordered[:-1])
        cells, new = split, fresh
    return cells


def _encode(strong: list[int], switch: list[int], perm: tuple[int, ...]) -> bytes:
    out = bytearray([len(perm)])
    for i, v in enumerate(perm):
        s, w = strong[v], switch[v]
        out.extend(2 if s >> u & 1 else w >> u & 1 for u in perm[i + 1:])
    return bytes(out)


def _search(strong: list[int], switch: list[int], adj: list[int],
            cells: list[int], new: list[int], best: list, autos: list) -> None:
    cells = _refine(adj, switch, cells, new)
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
        # the parent's cells are equitable, so only the individualized
        # vertex is new
        bit = 1 << v
        _search(strong, switch, adj, cells[:target] + [bit, cells[target] ^ bit]
                + cells[target + 1:], [bit], best, autos)


def _run(strong: list[int], switch: list[int],
         autos: list) -> tuple[bytes, tuple[int, ...]]:
    """The search's form and perm; the automorphisms it proves are added to
    ``autos`` as (sources, images) pairs."""
    if not strong:
        return b"\x00", ()
    best: list = [None, None]
    adj = [s | w for s, w in zip(strong, switch)]
    every = (1 << len(strong)) - 1
    _search(strong, switch, adj, [every], [every], best, autos)
    return best[0], best[1]


def mask_automorphisms(strong: list[int], switch: list[int]
                       ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The canonical perm of the trigraph with these masks, as in
    ``canonical_labeling``, and generators of its automorphism group, each as
    the tuple whose entry v is the image of vertex v; one search finds both.

    The generators are the automorphisms the search proves on its way: a
    transposition for each skipped cell mate, and for each leaf whose
    encoding equals the best one so far, the map from that leaf's ordering
    to the best one's.  The search is invariant under the group and prunes
    only images of explored subtrees, so they generate the whole group
    (McKay and Piperno 2014).
    """
    autos: list = []
    perm = _run(strong, switch, autos)[1]
    gens = []
    for sources, images in autos:
        g = list(range(len(strong)))
        for v, w in zip(sources, images):
            g[v] = w
        gens.append(tuple(g))
    return perm, gens


def canonical_labeling(T: Trigraph) -> tuple[bytes, tuple[int, ...]]:
    """Canonical form and a permutation achieving it.

    ``perm[i]`` is the original vertex placed at canonical position i; two
    trigraphs are isomorphic exactly when their forms agree.
    """
    return _run(T.strong, T.switch, [])


def canonical_form(T: Trigraph) -> bytes:
    return canonical_labeling(T)[0]


def relabel(T: Trigraph, perm: tuple[int, ...]) -> Trigraph:
    """Trigraph whose vertex i is T's vertex perm[i]."""
    return Trigraph(renumber(T.strong, perm), renumber(T.switch, perm))
