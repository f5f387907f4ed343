import random
import sys

import pytest

from evenpairs.families import complete_graph, cycle, path_graph
from evenpairs.trigraph import make_trigraph


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


def random_trigraph(rng: random.Random, n: int, switch_prob: float = 0.15):
    entries = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < switch_prob:
                entries.append((u, v, 0))
            elif r < 0.55:
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
