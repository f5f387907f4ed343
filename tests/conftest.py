import functools
import itertools
import os
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from evenpairs.canonical import canonical_form
from evenpairs.corpus import plant_light, plant_small
from evenpairs.families import complete_graph, cycle, path_graph
from evenpairs.detect import PrismWitness, validate_prism
from evenpairs.decomposition import (SkewPartitionWitness, TwoJoinSplit,
                                     _derive_split, _two_join_step)
from evenpairs.errors import InputError
from evenpairs.trigraph import (STRONG, SWITCHABLE, PathWitness, Trigraph,
                                _mask_components, _mask_connected,
                                _pruned_masks, _vertex_mask, bits_of,
                                complement, graph_from_edges, in_class_F,
                                make_trigraph, renumber, validate_hole,
                                validate_path)


@pytest.fixture(scope="session", autouse=True)
def _child_pythonpath():
    # pyproject's pythonpath covers this process; the CLI tests' child
    # processes import the package from this checkout too
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join([src] + ([inherited] if inherited else [])))
        yield


@pytest.fixture(scope="session")
def c4():
    return cycle(4)


@pytest.fixture(scope="session")
def c5():
    return cycle(5)


@pytest.fixture(scope="session")
def c6():
    return cycle(6)


@pytest.fixture(scope="session")
def c8():
    return cycle(8)


@pytest.fixture(scope="session")
def p4():
    return path_graph(4)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


def random_trigraph(rng: random.Random, n: int, switch_prob: float = 0.15,
                    p: float = 0.55):
    """Each pair is switchable with probability ``switch_prob`` and
    adjacent (strong or switchable) with probability ``p``."""
    entries = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < switch_prob:
                entries.append((u, v, 0))
            elif r < p:
                entries.append((u, v, 1))
    return make_trigraph(n, entries)


def random_graph(rng: random.Random, n: int, p: float = 0.5):
    entries = [(u, v, 1) for u in range(n) for v in range(u + 1, n)
               if rng.random() < p]
    return make_trigraph(n, entries)


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every evenpairs module that
    binds it; returns the list the calls are appended to."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("evenpairs")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counting)
    return calls


# -- reference oracles: the per-pair, form-per-draw, sorted-signature,
# -- separate path-search, path-triple, side-array, multigraph, uncut
# -- hole-search, stateless predicate, bundle-scan, anticomponent-scan,
# -- sorted-neighbor-degree, pair-scan text and graph6, and renumbering
# -- merge versions the library replaced, kept here so they stay independent
# -- of the code they check


def random_bipartite_graph(rng: random.Random, max_edges: int = 12) -> Trigraph:
    """A random bipartite graph with at most ``max_edges`` edges.

    Used as raw material for line-graph roots; callers filter for the
    structural conditions they need.
    """
    a = rng.randint(1, 5)
    b = rng.randint(1, 5)
    cross = [(i, a + j) for i in range(a) for j in range(b)]
    rng.shuffle(cross)
    want = rng.randint(1, min(max_edges, len(cross)))
    edges = sorted(cross[:want])
    used = sorted({w for e in edges for w in e})
    index = {w: i for i, w in enumerate(used)}
    return graph_from_edges(len(used), [(index[u], index[v]) for u, v in edges])


def is_semirealization(candidate: Trigraph, base: Trigraph) -> bool:
    """True iff ``candidate`` keeps every strong edge and every strong
    antiedge of ``base`` (switchable pairs of the base may go either way)."""
    if candidate.n != base.n:
        raise InputError("semirealization check requires equal vertex counts")
    return all(not bs & ~cs and not (ba & ~bw) & ~(ca & ~cw)
               for bs, ba, bw, cs, ca, cw in zip(
                   base.strong, base.anti, base.switch,
                   candidate.strong, candidate.anti, candidate.switch))


def split_for(T: Trigraph, X) -> TwoJoinSplit | None:
    """The split of the bipartition (X, V - X), if it is a 2-join.

    The classification is forced by the cross edges, so this is the only
    split the bipartition can have (up to the A/B naming convention).  The
    2-join search walks only the path to X's mask and hands its leaf to
    ``_derive_split``.  A vertex of X outside 0..n-1 raises InputError.
    """
    x_mask = _vertex_mask(T, X)
    step = _two_join_step(T)

    def on_path(state, x1_fixed: int, x2_fixed: int, free: int):
        if x1_fixed & ~x_mask or x2_fixed & x_mask:
            return None
        return step(state, x1_fixed, x2_fixed, free)

    leaf = next(_pruned_masks(T.n, on_path, (0, 0, 0, 0)), None)
    return None if leaf is None else _derive_split(T, *leaf)


def is_fragment(T: Trigraph, X) -> bool:
    """True iff (X, V - X) is a proper 2-join of T."""
    split = split_for(T, X)
    return split is not None and split.proper


def degree_invariant_by_sorting(G):
    """The sorted multiset of (degree, sorted neighbor degrees) over the
    vertices of G."""
    degree = [m.bit_count() for m in G.adj]
    return tuple(sorted(
        (degree[v], tuple(sorted(degree[u] for u in bits_of(G.adj[v]))))
        for v in range(G.n)))

def skew_feasible_by_connectivity(T):
    """The skew search's predicate without search state, on (A fixed, B
    fixed, free): a fixed part of B that is anticonnected needs a free
    vertex strongly complete to it, and a fixed part of A that is connected
    a free vertex that sees none of it.  Connectivity is computed at every
    node."""
    adj, anti = T.adj, T.anti

    def feasible(a_fixed, b_fixed, free):
        if b_fixed and _mask_connected(anti, b_fixed):
            if all(anti[v] & b_fixed for v in bits_of(free)):
                return False
        if a_fixed and _mask_connected(adj, a_fixed):
            if all(adj[v] & a_fixed for v in bits_of(free)):
                return False
        return True

    return feasible


def _bundles(T, side: int, other: int) -> tuple[int, int, int, int] | None:
    """The bundles (A, A', B, B') of ``side`` into ``other``: the vertices
    of A cross strongly to exactly A', those of B to exactly B', the rest of
    ``side`` to nothing.  A holds the smallest bundle vertex; a bundle not
    met is 0.  None when a switchable pair crosses or the crossings do not
    fit two disjoint bundles, which rules out every 2-join whose sides
    contain ``side`` and ``other``."""
    strong, switch = T.strong, T.switch
    a = a_cross = b = b_cross = 0
    while side:
        low = side & -side
        side ^= low
        v = low.bit_length() - 1
        if switch[v] & other:
            return None
        cross = strong[v] & other
        if not cross:
            continue
        if cross == a_cross:
            a |= low
        elif cross == b_cross:
            b |= low
        elif b_cross or cross & a_cross:
            return None
        elif a_cross:
            b, b_cross = low, cross
        else:
            a, a_cross = low, cross
    return a, a_cross, b, b_cross


def split_by_bundles(T, x1_mask):
    """The split of (X1, V - X1) from bundles found by a scan of X1
    (``_bundles``) instead of the 2-join search state; None unless X1
    crosses to two of them."""
    bundles = _bundles(T, x1_mask, ((1 << T.n) - 1) & ~x1_mask)
    if bundles is None or not bundles[3]:
        return None
    return _derive_split(T, x1_mask, bundles)


def skew_witness_by_components(T, a_mask):
    """The witness of the skew-partition with the A-mask ``a_mask`` from
    the components of A and the anticomponents of B, the star center the
    first one-vertex anticomponent of B, if any."""
    b_mask = ((1 << T.n) - 1) ^ a_mask
    comp = _mask_components(T.adj, a_mask)[0]
    anticomps = _mask_components(T.anti, b_mask)
    split = tuple(frozenset(bits_of(m)) for m in (
        comp, a_mask ^ comp, anticomps[0], b_mask ^ anticomps[0]))
    star = next((m.bit_length() - 1 for m in anticomps if m.bit_count() == 1), None)
    return SkewPartitionWitness(frozenset(bits_of(a_mask)),
                                frozenset(bits_of(b_mask)), split, star)


def two_join_feasible_by_bundles(T):
    """The 2-join search's predicate without search state, on (X1 fixed, X2
    fixed, free): ``_bundles`` of each fixed part into the other, both
    directions, at every inner node whose last vertex crosses; every leaf is
    entered."""
    adj = T.adj

    def feasible(x1_fixed, x2_fixed, free):
        if not free:
            return True
        v = free.bit_length()
        if v < T.n and not adj[v] & (x2_fixed if x1_fixed >> v & 1 else x1_fixed):
            return True
        return (_bundles(T, x1_fixed, x2_fixed) is not None
                and _bundles(T, x2_fixed, x1_fixed) is not None)

    return feasible


def to_text_by_pairs(T):
    """The trigraph line format by one ``value`` call per pair u < v in
    lexicographic order."""
    lines = [f"trigraph {T.n}"]
    for u, v in itertools.combinations(range(T.n), 2):
        code = T.value(u, v)
        if code == STRONG:
            lines.append(f"{u} {v} E")
        elif code == SWITCHABLE:
            lines.append(f"{u} {v} S")
    return "\n".join(lines) + "\n"


def to_graph6_by_pairs(G):
    """graph6 by one ``value`` call per pair, column by column, packed six
    bits to a character."""
    n = G.n
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if G.value(u, v) == STRONG else 0)
    while len(bits) % 6:
        bits.append(0)
    chunks = [
        chr(sum(b << (5 - i) for i, b in enumerate(bits[k:k + 6])) + 63)
        for k in range(0, len(bits), 6)
    ]
    return prefix + "".join(chunks)


def merge_by_renumbering(G, u, v):
    """G / {u, v} for u < v: the union of both rows at u, then every row
    renumbered through a vertex map that leaves v out."""
    keep = [w for w in range(G.n) if w != v]
    strong = list(G.strong)
    strong[u] = (G.strong[u] | G.strong[v]) & ~(1 << u | 1 << v)
    for w in bits_of(strong[u]):
        strong[w] |= 1 << u
    return Trigraph(renumber(strong, keep), [0] * len(keep))


def bipartition_by_side_array(T):
    """Two strongly stable sets covering V, or None, by a DFS that keeps a
    side per vertex and compares the sides of each edge; each component's
    smallest vertex lands on the first side."""
    side = [-1] * T.n
    for start in range(T.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in bits_of(T.adj[v]):
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    x = frozenset(v for v in range(T.n) if side[v] == 0)
    return x, frozenset(range(T.n)) - x


def has_k4_minor_by_counters(H):
    """Series-parallel reduction of the strong edges on a multigraph kept
    as a dict of Counters: delete loops and low-degree vertices, merge
    parallel edges, contract degree-two vertices; a stuck nonempty
    remainder has minimum degree three and therefore a K4 minor."""
    adj = {v: Counter() for v in range(H.n)}
    for u, v in H.strong_edges():
        adj[u][v] += 1
        adj[v][u] += 1
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            nbrs = adj[v]
            if v in nbrs:
                del nbrs[v]
                changed = True
            for w in list(nbrs):
                if nbrs[w] > 1:
                    nbrs[w] = 1
                    adj[w][v] = 1
                    changed = True
            degree = sum(nbrs.values())
            if degree <= 1:
                for w in list(nbrs):
                    del adj[w][v]
                del adj[v]
                changed = True
            elif degree == 2:
                w1, w2 = list(nbrs)
                del adj[w1][v]
                del adj[w2][v]
                adj[w1][w2] += 1
                adj[w2][w1] += 1
                del adj[v]
                changed = True
    return bool(adj)


def simple_paths(H, u, v):
    """Every u-v path of H, induced or not, by a DFS over the unused
    vertices."""
    out = []

    def rec(path, used):
        last = path[-1]
        for w in bits_of(H.adj[last]):
            if w == v:
                out.append(tuple(path) + (v,))
            elif not (used >> w) & 1:
                rec(path + [w], used | 1 << w)

    rec([u], 1 << u | 1 << v)
    return out


def even_theta_by_path_triples(H):
    """The first pair (u, v) in ``itertools.combinations`` order with three
    even u-v paths whose interiors are pairwise disjoint, and the first
    such triple of ``simple_paths``, or None."""
    for u, v in itertools.combinations(range(H.n), 2):
        evens = [p for p in simple_paths(H, u, v) if (len(p) - 1) % 2 == 0]
        for trio in itertools.combinations(evens, 3):
            interiors = [set(p[1:-1]) for p in trio]
            if (not interiors[0] & interiors[1]
                    and not interiors[0] & interiors[2]
                    and not interiors[1] & interiors[2]):
                return (u, v, trio)
    return None


def iter_paths_with_used(T, u, v, interior=None):
    """All u-v paths in lexicographic order of their vertex sequences, by a
    DFS that keeps a mask of the used vertices and never prunes."""
    interior_mask = (1 << T.n) - 1 if interior is None else sum(1 << w for w in interior)
    adj, anti = T.adj, T.anti

    def rec(path, used, pref_anti):
        last = path[-1]
        cand = adj[last] & pref_anti & ~used & (interior_mask | 1 << v)
        next_pref = pref_anti & anti[last]
        for x in bits_of(cand):
            if x == v:
                yield path + (v,)
            else:
                yield from rec(path + (x,), used | (1 << x), next_pref)

    yield from rec((u,), 1 << u, (1 << T.n) - 1)


def extend_rungs_by_grow(T, tri_a, tri_b, i, used, rungs):
    """The prisms completing ``rungs`` with rungs i..2, each rung grown by
    its own DFS: an interior vertex sees nothing already chosen except its
    predecessor, and one adjacent to b closes the rung there."""
    if i == 3:
        yield PrismWitness((tri_a, tri_b), rungs)
        return
    a, b = tri_a[i], tri_b[i]
    adj = T.adj
    if adj[a] >> b & 1:
        # direct edge: the rung must be exactly a-b, otherwise a chord appears
        yield from extend_rungs_by_grow(T, tri_a, tri_b, i + 1, used,
                                        rungs + (PathWitness((a, b)),))
        return

    def grow(path, used_now):
        last = path[-1]
        others = used_now & ~(1 << last) & ~(1 << b)
        for w in bits_of(adj[last] & ~used_now & ~(1 << b)):
            if adj[w] & others:
                continue
            if adj[w] >> b & 1:
                yield from extend_rungs_by_grow(
                    T, tri_a, tri_b, i + 1, used_now | (1 << w),
                    rungs + (PathWitness(path + (w, b)),))
            else:
                yield from grow(path + (w,), used_now | (1 << w))

    yield from grow((a,), used)


def shortest_hole_without_cut(n, adj, anti, lengths, first=None):
    """The bounded hole search without the cut on closing vertices: a path
    is dropped only once no wanted length shorter than the best hole so far
    can close on it.  Same result as ``detect._shortest_holes`` on the one
    length set ``lengths``, given here as an iterable of lengths."""
    wanted = 0
    for k in lengths:
        if k <= n:
            wanted |= 1 << k
    if not wanted:
        return None
    shortest = (wanted & -wanted).bit_length() - 1
    limit = wanted.bit_length() - 1
    best = None

    def grow(path, tail_anti, closers, extenders):
        nonlocal best, limit
        depth = len(path)
        step = adj[path[-1]] & tail_anti
        if depth < limit and wanted >> (depth + 1) & 1:
            close = step & closers & -(2 << path[1])
            if close:
                best = path + ((close & -close).bit_length() - 1,)
                limit = (wanted & ((1 << depth + 1) - 1)).bit_length() - 1
                return
        if depth + 2 > limit:
            return
        extend = step & extenders
        next_tail = tail_anti & anti[path[-1]]
        while extend:
            low = extend & -extend
            grow(path + (low.bit_length() - 1,), next_tail, closers, extenders)
            if depth + 2 > limit:
                return
            extend ^= low

    full = (1 << n) - 1
    for h1 in range(n - shortest + 1) if first is None else (first,):
        if limit < shortest:
            break
        above = full & ~((2 << h1) - 1)
        seconds = adj[h1] & above
        while seconds and limit >= shortest:
            low = seconds & -seconds
            grow((h1, low.bit_length() - 1), full, adj[h1] & above,
                 anti[h1] & above)
            seconds ^= low
    return best


def odd_path_exists_by_pairs(T, ends, interior):
    """Any odd path of length > 1 with both ends in ``ends`` and every
    interior vertex in ``interior``, by enumerating the paths of every pair
    of ends."""
    for u, v in itertools.combinations(sorted(ends), 2):
        for seq in iter_paths_with_used(T, u, v, interior=interior):
            if len(seq) > 2 and len(seq) % 2 == 0:
                return True
    return False


def side_path_parities_by_pairs(T, a, b, c):
    """The parities of the A-B paths through C, by enumerating the paths
    of every pair in A x B."""
    parities = set()
    for u in sorted(a):
        for v in sorted(b):
            for seq in iter_paths_with_used(T, u, v, interior=c):
                parities.add((len(seq) - 1) % 2)
                if len(parities) == 2:
                    return parities
    return parities


def _class_count(T, X, linked):
    """How many classes X falls into when two vertices go together if
    ``linked`` holds of their code, closed transitively: one BFS per class."""
    left, classes = set(X), 0
    while left:
        classes += 1
        queue = [left.pop()]
        while queue:
            u = queue.pop()
            near = {v for v in left if linked(T.value(u, v))}
            left -= near
            queue.extend(near)
    return classes


def check_witness_view(T, view):
    """Re-check the JSON view of a witness against T from the definitions,
    raising InputError or AssertionError unless it holds, and name what it
    shows.  Holes, prisms and paths go to their validators; a skew
    partition gets a BFS per part and the path enumeration above."""
    kind = view["kind"]
    if kind in ("hole", "antihole"):
        validate_hole(T, view["vertices"], kind)
        return f"{kind} C{len(view['vertices'])}"
    if kind == "path":
        validate_path(T, view["vertices"])
        return f"path of length {len(view['vertices']) - 1}"
    if kind == "prism":
        rungs = tuple(PathWitness(tuple(r["vertices"])) for r in view["rungs"])
        validate_prism(T, PrismWitness(tuple(map(tuple, view["cliques"])), rungs))
        assert all(len(r.vertices) % 2 == 0 for r in rungs), "a rung of even length"
        return "odd prism"
    assert kind == "skew_partition", kind
    a, b = set(view["a"]), set(view["b"])
    assert not a & b and a | b == set(range(T.n))
    # A is not connected and B is not anticonnected, a semiadjacent pair
    # counting as adjacent for the first and antiadjacent for the second
    assert _class_count(T, a, lambda code: code >= 0) > 1
    assert _class_count(T, b, lambda code: code <= 0) > 1
    # balanced: no odd path with ends in B and interior in A, and no odd
    # antipath with ends in A and interior in B
    assert not odd_path_exists_by_pairs(T, b, a)
    assert not odd_path_exists_by_pairs(complement(T), a, b)
    return "balanced skew partition"


def random_canonical_graphs_by_forms(n, count, seed=0):
    """The sampler with one canonical form per draw: keep a draw exactly
    when its form is new."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    seen = {}
    attempts = 0
    limit = 400 * count
    while len(seen) < count:
        attempts += 1
        if attempts > limit:
            raise RuntimeError(
                f"could not collect {count} distinct graphs on {n} vertices")
        edges = [(u, v) for u, v in pairs if rng.random() < 0.5]
        G = graph_from_edges(n, edges)
        seen.setdefault(canonical_form(G), G)
    return list(seen.values())


def _code_rows(T):
    """Byte code of every ordered pair: 0 for -1, 1 for 0 and 2 for +1."""
    return [[2 if T.strong[v] >> u & 1 else T.switch[v] >> u & 1
             for u in range(T.n)] for v in range(T.n)]


def _refine_by_sorting(rows, colors):
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


def _search_by_sorting(rows, colors, best):
    n = len(rows)
    colors = _refine_by_sorting(rows, colors)
    cells = [[v for v in range(n) if colors[v] == c]
             for c in sorted(set(colors))]
    target = next((cell for cell in cells if len(cell) > 1), None)
    if target is None:
        perm = tuple(v for cell in cells for v in cell)
        enc = bytes([n] + [rows[perm[i]][perm[j]]
                           for i in range(n) for j in range(i + 1, n)])
        if best[0] is None or enc < best[0]:
            best[0], best[1] = enc, perm
        return
    tried = []
    for v in target:
        # skip v when a tried cell mate u has the same code row outside {u, v}
        if any(all(rows[v][w] == rows[u][w] for w in range(n) if w not in (u, v))
               for u in tried):
            continue
        tried.append(v)
        new_colors = [c + 1 if c >= colors[v] else c for c in colors]
        new_colors[v] = colors[v]
        _search_by_sorting(rows, new_colors, best)


def canonical_labeling_by_sorting(T):
    """(form, perm) by refinement on sorted (pair code, color) signatures,
    one tuple sorted per vertex per round."""
    if T.n == 0:
        return b"\x00", ()
    best = [None, None]
    _search_by_sorting(_code_rows(T), [0] * T.n, best)
    return best[0], best[1]


@functools.lru_cache(maxsize=None)
def labeled_children_by_sorting(n):
    """``(child, reference labeling)`` for every augmentation child of the
    reference classes on n - 1 vertices (a base plus a last vertex with any
    neighborhood), in the order the enumeration meets them."""
    out = []
    for base in graphs_of_order_by_sorting(n - 1):
        for nbhd in range(1 << (n - 1)):
            strong = list(base.strong) + [nbhd]
            for v in bits_of(nbhd):
                strong[v] |= 1 << (n - 1)
            T = Trigraph(strong, [0] * n)
            out.append((T, canonical_labeling_by_sorting(T)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def graphs_of_order_by_sorting(n):
    """The augmentation enumeration with a Trigraph per child, deduplicated
    by the reference form."""
    if n <= 1:
        return (make_trigraph(n),)
    out = {}
    for T, (form, _) in labeled_children_by_sorting(n):
        out.setdefault(form, T)
    return tuple(out.values())


def graphs_upto_by_sorting(n_max):
    """The reference classes on 1..n_max vertices, order by order."""
    return [G for n in range(1, n_max + 1) for G in graphs_of_order_by_sorting(n)]


@functools.lru_cache(maxsize=None)
def labeled_plants_by_sorting(max_base_n):
    """``(candidate, reference labeling)`` for every ``plant_small`` and
    ``plant_light`` candidate on the reference graphs with up to
    ``max_base_n`` vertices, in the order the planted corpus meets them."""
    out = []
    for n in range(1, max_base_n + 1):
        for G in graphs_of_order_by_sorting(n):
            pairs = list(itertools.combinations(range(n), 2))
            candidates = [plant_small(G, u, v) for u, v in pairs]
            candidates += [plant_light(G, u, v) for u, v in pairs
                           if not (G.adj[u] >> v & 1 or G.adj[u] & G.adj[v])]
            out.extend((T, canonical_labeling_by_sorting(T)) for T in candidates)
    return tuple(out)


def planted_class_f_trigraphs_by_sorting(max_base_n):
    """The planted corpus with class members deduplicated by the reference
    form."""
    out = {}
    for T, (form, _) in labeled_plants_by_sorting(max_base_n):
        if in_class_F(T).ok:
            out.setdefault(form, T)
    return tuple(out.values())
