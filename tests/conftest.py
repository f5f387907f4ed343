import itertools
import os
import random
import sys
from pathlib import Path

import pytest

from evenpairs.canonical import canonical_form
from evenpairs.families import complete_graph, cycle, path_graph
from evenpairs.trigraph import graph_from_edges, iter_paths, make_trigraph


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


# -- reference oracles: the per-pair and form-per-draw versions the library
# -- replaced, kept here so they stay independent of the code they check

def odd_path_exists_by_pairs(T, ends, interior):
    """Any odd path of length > 1 with both ends in ``ends`` and every
    interior vertex in ``interior``, by enumerating the paths of every pair
    of ends."""
    for u, v in itertools.combinations(sorted(ends), 2):
        for seq in iter_paths(T, u, v, interior=interior):
            if len(seq) > 2 and len(seq) % 2 == 0:
                return True
    return False


def side_path_parities_by_pairs(T, a, b, c):
    """The parities of the A-B paths through C, by enumerating the paths
    of every pair in A x B."""
    parities = set()
    for u in sorted(a):
        for v in sorted(b):
            for seq in iter_paths(T, u, v, interior=c):
                parities.add((len(seq) - 1) % 2)
                if len(parities) == 2:
                    return parities
    return parities


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
