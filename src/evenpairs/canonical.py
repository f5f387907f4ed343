"""Canonical forms for trigraphs via refinement and individualization.

The canonical form of a trigraph is the minimum, over vertex orderings, of
the byte encoding of its pair codes (one byte per pair of the upper
triangle).  Orderings are pruned by iterated color refinement (vertex colors
refined by the multiset of (pair code, neighbor color) signatures) and,
inside a cell, by skipping vertices whose code rows are identical to an
already-tried cell mate.  This is plenty for the n <= 10 enumeration
workloads the harness runs.
"""

from __future__ import annotations

from .trigraph import Trigraph, renumber


def _code_rows(T: Trigraph) -> list[list[int]]:
    """Byte code of every ordered pair: 0 for -1, 1 for 0 and 2 for +1
    (the diagonal entries are never read)."""
    return [[2 if T.strong[v] >> u & 1 else T.switch[v] >> u & 1
             for u in range(T.n)] for v in range(T.n)]


def _refine(rows: list[list[int]], colors: list[int]) -> list[int]:
    n = len(rows)
    while True:
        signatures = []
        for v in range(n):
            sig = sorted((rows[v][u], colors[u]) for u in range(n) if u != v)
            signatures.append((colors[v], tuple(sig)))
        order = sorted(set(signatures))
        lookup = {sig: i for i, sig in enumerate(order)}
        new_colors = [lookup[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _cells(colors: list[int]) -> list[list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def _encode(rows: list[list[int]], perm: tuple[int, ...]) -> bytes:
    n = len(rows)
    out = bytearray([n])
    for i in range(n):
        row = rows[perm[i]]
        out.extend(row[perm[j]] for j in range(i + 1, n))
    return bytes(out)


def _row_key(rows: list[list[int]], v: int, exclude: int) -> tuple:
    return tuple(c for u, c in enumerate(rows[v]) if u not in (v, exclude))


def _search(rows: list[list[int]], colors: list[int], best: list) -> None:
    colors = _refine(rows, colors)
    cells = _cells(colors)
    target = next((cell for cell in cells if len(cell) > 1), None)
    if target is None:
        perm = tuple(v for cell in cells for v in cell)
        enc = _encode(rows, perm)
        if best[0] is None or enc < best[0]:
            best[0], best[1] = enc, perm
        return
    tried: list[int] = []
    for v in target:
        # skip v when some tried cell mate u has an identical code row
        # outside {u, v}: the transposition (u v) is then an automorphism
        if any(_row_key(rows, v, u) == _row_key(rows, u, v) for u in tried):
            continue
        tried.append(v)
        new_colors = [c + 1 if c >= colors[v] else c for c in colors]
        new_colors[v] = colors[v]
        _search(rows, new_colors, best)


def canonical_labeling(T: Trigraph) -> tuple[bytes, tuple[int, ...]]:
    """Canonical form and a permutation achieving it.

    ``perm[i]`` is the original vertex placed at canonical position i; two
    trigraphs are isomorphic exactly when their forms agree.
    """
    if T.n == 0:
        return b"\x00", ()
    best: list = [None, None]
    _search(_code_rows(T), [0] * T.n, best)
    return best[0], best[1]


def canonical_form(T: Trigraph) -> bytes:
    return canonical_labeling(T)[0]


def relabel(T: Trigraph, perm: tuple[int, ...]) -> Trigraph:
    """Trigraph whose vertex i is T's vertex perm[i]."""
    return Trigraph(renumber(T.strong, perm), renumber(T.switch, perm))
