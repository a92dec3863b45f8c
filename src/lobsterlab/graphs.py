"""Immutable simple graphs and the tree-shape taxonomy used everywhere else.

Vertices are dense integer ids ``0..num_vertices-1``; edges are unordered
pairs.  Trees are classified along the chain
single-vertex < path < caterpillar < lobster < deeper, where each class is
defined through the ``base`` operation (delete all degree-1 vertices): a
caterpillar's base is a path, a lobster's base is a caterpillar.

``base`` builds the base as a graph of its own.  The classifier and the
lobster decomposition need only its vertices and their degrees, so they
strip leaves in place, one pass per level (``strip_levels``).

A Graph is immutable, so it caches what it learns about itself: its
adjacency, whether it is a tree, its first three stripping levels and its
tree class.  ``is_tree``, ``require_tree``, ``classify_tree``,
``diameter_path`` and the lobster decomposition therefore share one
connectivity BFS, one leaf stripping and one classification per graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

from .errors import GraphStructureError

SINGLE_VERTEX = "single-vertex"
PATH = "path"
CATERPILLAR = "caterpillar"
LOBSTER = "lobster"
DEEPER = "deeper"


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertex ids ``0..num_vertices-1``.

    ``build_graph`` is the validating constructor: it checks each edge once
    and stores it normalized as (u, v) with u < v.  Graph trusts its edges.
    """

    num_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise GraphStructureError("num_vertices must be non-negative")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def _is_tree(self) -> bool:
        n = self.num_vertices
        return n >= 1 and self.num_edges == n - 1 and is_connected(self)

    @cached_property
    def base_levels(self) -> tuple[dict[int, int], ...]:
        """The tree, its base and the base of its base: the first three
        levels of strip_levels, which the classifier and the lobster
        decomposition both read."""
        require_tree(self)
        return tuple(islice(strip_levels(self), 3))

    @cached_property
    def _tree_class(self) -> str:
        require_tree(self)
        if self.num_vertices == 1:
            return SINGLE_VERTEX
        for kind, level in zip((PATH, CATERPILLAR, LOBSTER), self.base_levels):
            if all(d <= 2 for d in level.values()):
                return kind
        return DEEPER

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def vertices(self) -> range:
        return range(self.num_vertices)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def build_graph(num_vertices: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and build a Graph, reporting the first offending pair."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise GraphStructureError(f"self-loop at vertex {u}")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise GraphStructureError(f"edge ({u}, {v}) has an endpoint out of range")
        e = _normalize_edge(u, v)
        if e in seen:
            raise GraphStructureError(f"duplicate edge ({u}, {v})")
        seen.add(e)
    return Graph(num_vertices, frozenset(seen))


def add_leaf(t: Graph, v: int) -> Graph:
    """t plus a leaf n = t.num_vertices on its vertex v: a tree iff t is, no walk."""
    n = t.num_vertices
    g = Graph(n + 1, t.edges | {(v, n)})
    g.__dict__["_is_tree"] = t._is_tree  # the slot cached_property fills
    return g


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.num_vertices
    adjacency = g.adjacency
    comps: list[list[int]] = []
    for start in g.vertices():
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.num_vertices <= 1 or len(connected_components(g)) == 1


def is_tree(g: Graph) -> bool:
    """True iff g is connected with exactly n-1 edges."""
    return g._is_tree


def require_tree(g: Graph) -> None:
    if not is_tree(g):
        raise GraphStructureError("input is not a tree")


def bipartition(g: Graph) -> tuple[set[int], set[int]] | None:
    """2-coloring as (part0, part1), or None when an odd cycle exists.

    Isolated vertices land in part0; within each component the side holding
    its smallest vertex id is joined to part0, so the split is deterministic.
    """
    color = [-1] * g.num_vertices
    for start in g.vertices():
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    part0 = {v for v in g.vertices() if color[v] == 0}
    part1 = {v for v in g.vertices() if color[v] == 1}
    return part0, part1


def bfs_farthest(g: Graph, start: int) -> tuple[int, list[int]]:
    """Farthest vertex from start (smallest id on ties) and the BFS parents."""
    adjacency = g.adjacency
    dist = [-1] * g.num_vertices
    parent = [-1] * g.num_vertices
    dist[start] = 0
    queue = [start]
    for v in queue:  # visits by distance, growing as it goes
        d = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = d
                parent[w] = v
                queue.append(w)
    last = dist[queue[-1]]
    far = min(v for v in queue if dist[v] == last)
    return far, parent


def diameter_path(g: Graph) -> list[int]:
    """A deterministic longest path of a tree (double BFS from vertex 0)."""
    require_tree(g)
    a, _ = bfs_farthest(g, 0)
    b, parent = bfs_farthest(g, a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    if path[0] > path[-1]:
        path.reverse()
    return path


def tree_diameter(g: Graph) -> int:
    return len(diameter_path(g)) - 1


def tree_centers(g: Graph) -> list[int]:
    """The one or two middle vertices of a tree's longest path."""
    path = diameter_path(g)
    n = len(path)
    if n % 2 == 1:
        return [path[n // 2]]
    return sorted((path[n // 2 - 1], path[n // 2]))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on `keep`, densely reindexed; returns (graph, original ids)."""
    kept = tuple(sorted(set(keep)))
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges
        if u in index and v in index
    ]
    return build_graph(len(kept), edges), kept


def base_with_map(t: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Delete all degree-1 vertices; returns (reindexed base, surviving ids)."""
    require_tree(t)
    keep = [v for v in t.vertices() if t.degree(v) != 1]
    return induced_subgraph(t, keep)


def base(t: Graph) -> Graph:
    """The tree after deleting its pendant (degree-1) vertices.

    K2 collapses to the empty graph and a single vertex stays itself; the
    surviving original ids are available from base_with_map.
    """
    return base_with_map(t)[0]


def strip_levels(t: Graph) -> Iterator[dict[int, int]]:
    """t, its base, the base of its base, ... as vertex -> degree inside it.

    Each level keeps the vertices of the level before whose degree there
    is not 1, and counts their neighbours among the kept; a single vertex
    is its own base and the base of K2 is empty.  The levels never end, so
    a caller takes as many as it needs.  t must be a tree.
    """
    level = {v: t.degree(v) for v in t.vertices()}
    while True:
        yield level
        kept = {v for v, d in level.items() if d != 1}
        level = {v: sum(w in kept for w in t.neighbors(v)) for v in kept}


def classify_tree(t: Graph) -> str:
    """Smallest class of t along single-vertex < path < caterpillar < lobster.

    t is a path, caterpillar or lobster when t, its base or the base of its
    base has no vertex of degree above 2 there.
    """
    return t._tree_class
