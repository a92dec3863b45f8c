from __future__ import annotations

import random
from pathlib import Path

import pytest

from lobsterlab.formats import parse_edges, parse_labeling, parse_matrix, parse_moves
from lobsterlab.graphs import Graph
from lobsterlab.lobster_labeling import BalancedLobsterSpec
from lobsterlab.lobsters import Branch, Lobster, reassemble

FIXTURES = Path(__file__).parent / "fixtures"


def random_balanced_spec(
    rng: random.Random, max_r: int = 16, max_leaf: int = 9, min_r: int = 0
) -> BalancedLobsterSpec:
    """A random spec satisfying the balance equations by construction.

    The equations tie each side's even slots to its halved index and couple
    odd slots across sides; one free value per coupled component spans the
    whole solution set.
    """
    r = rng.randint(min_r, max_r)

    def odd_part(n: int) -> int:
        while n % 2 == 0:
            n //= 2
        return n

    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in range(1, r + 1, 2):
        j = odd_part(r - (i - 1) // 2)
        union(("x", i), ("y", j))
        union(("y", i), ("x", j))

    value: dict[tuple[str, int], int] = {}

    def value_of(slot) -> int:
        root = find(slot)
        if root not in value:
            value[root] = rng.randint(1, max_leaf)
        return value[root]

    x = tuple(value_of(("x", odd_part(i))) for i in range(1, r + 1))
    y = tuple(value_of(("y", odd_part(i))) for i in range(1, r + 1))
    return BalancedLobsterSpec(x, y, rng.randint(0, 3), rng.randint(0, 3))


def make_lobster(spine_lobes_pendants) -> Graph:
    """A lobster from per-spine-vertex (branch leaf counts, pendant count).

    Spinal vertices take ids 0..r-1; each spinal vertex's branches and
    then its pendants take the next free ids.
    """
    nid = [0]

    def fresh():
        nid[0] += 1
        return nid[0] - 1

    spine = tuple(fresh() for _ in spine_lobes_pendants)
    lobes, pendants = [], []
    for counts, pend in spine_lobes_pendants:
        lobes.append(
            tuple(Branch(fresh(), tuple(fresh() for _ in range(c))) for c in counts)
        )
        pendants.append(tuple(fresh() for _ in range(pend)))
    return reassemble(Lobster(spine, tuple(lobes), tuple(pendants)))


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def fixture_bytes(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


@pytest.fixture(scope="session")
def tree9():
    """The 9-vertex graceful tree used all over the fixtures."""
    return parse_edges(fixture_text("tree9.edges"))


@pytest.fixture(scope="session")
def tree9_labels():
    return parse_labeling(fixture_text("tree9.labels"))


@pytest.fixture(scope="session")
def tree9_adjacency():
    return parse_matrix(fixture_text("tree9_adjacency.txt"))


@pytest.fixture(scope="session")
def tree9_double():
    return parse_matrix(fixture_text("tree9_double.txt"))


@pytest.fixture(scope="session")
def lobster28_matrix():
    """Canonical biadjacency of the 28-vertex two-spined lobster (k=14)."""
    return parse_matrix(fixture_text("lobster28_biadj.txt"))


@pytest.fixture(scope="session")
def lobster26_matrix():
    """Canonical biadjacency of the 26-vertex uniform-branch lobster (k=12)."""
    return parse_matrix(fixture_text("lobster26_biadj.txt"))


@pytest.fixture(scope="session")
def lobster26_shifted_matrix():
    return parse_matrix(fixture_text("lobster26_shifted.txt"))


@pytest.fixture(scope="session")
def lobster26_moves():
    return parse_moves(fixture_text("lobster26.moves"))


@pytest.fixture(scope="session")
def merge45_parts():
    h = parse_edges(fixture_text("merge45_h.edges"))
    g0 = parse_edges(fixture_text("tree9.edges"))
    g1 = parse_edges(fixture_text("merge45_g1.edges"))
    g2 = parse_edges(fixture_text("merge45_g2.edges"))
    return h, g0, g1, g2
