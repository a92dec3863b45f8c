"""Exhaustive search: the independent ground truth for everything else.

One backtracking kernel, `_backtrack`, runs all four searches.  It labels
vertices in a fixed order (the interior depth-first from a highest-degree
vertex, then the leaves grouped under their parents, see `_vertex_order`),
so results are deterministic.  Each vertex gets a label window:
- graceful: 0..m, the first vertex at most m // 2 (the complement
  f -> m - f covers the rest), with symmetry cuts on sibling groups;
- pinned: a one-label window per pinned vertex, 0..m elsewhere, no cuts;
- alpha: per side and critical value k, 0..k on the low side and k+1..m,
  tried downwards, on the high side, with symmetry cuts;
- count: 0..m with no cuts, since it counts labelings as functions.
Duplicate vertex and edge labels are pruned.  Tick rule: a used label is
skipped for free, every other label tried costs one node of the budget.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import GraphStructureError
from .graphs import Graph, bipartition, build_graph, is_tree
from .canonical import free_code, rooted_codes
from .labelings import ALPHA, BETA, Labeling

FOUND = "found"
EXHAUSTED = "exhausted-none"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    max_vertices: int = 14
    max_nodes: int = 5_000_000
    time_limit: float = 60.0

    def __post_init__(self) -> None:
        if self.max_vertices <= 0 or self.max_nodes <= 0 or self.time_limit <= 0:
            raise ValueError("budget fields must be positive")


@dataclass
class SearchResult:
    status: str
    labeling: Labeling | None = None
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.status == FOUND


@dataclass
class _Clock:
    deadline: float
    max_nodes: int
    nodes: int = 0
    expired: bool = field(default=False)

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.expired = True
        elif self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            self.expired = True
        return not self.expired


def _vertex_order(g: Graph) -> list[int]:
    """Fail-fast order: non-leaf vertices first, then leaves by parent.

    The interior is explored depth-first from a highest-degree seed so each
    placed vertex has a placed neighbor; degree-1 vertices come afterwards,
    grouped under their parents, and isolated vertices last.  Labeling the
    skeleton before any leaf makes the scarce large differences commit
    early, which is what keeps branchy trees tractable.
    """
    order: list[int] = []
    visited = [False] * g.num_vertices
    seeds = sorted(
        (v for v in g.vertices() if g.degree(v) >= 2),
        key=lambda v: (-g.degree(v), v),
    )
    for seed in seeds:
        if visited[seed]:
            continue
        stack = [seed]
        visited[seed] = True
        while stack:
            v = stack.pop()
            order.append(v)
            fresh = [
                w for w in g.neighbors(v) if not visited[w] and g.degree(w) >= 2
            ]
            fresh.sort(key=lambda w: (-g.degree(w), w), reverse=True)
            for w in fresh:
                visited[w] = True
                stack.append(w)
    pos = {v: i for i, v in enumerate(order)}
    leaves = sorted(
        (v for v in g.vertices() if g.degree(v) == 1),
        key=lambda v: (pos.get(g.neighbors(v)[0], g.num_vertices), v),
    )
    for v in leaves:
        if not visited[v]:
            visited[v] = True
            order.append(v)
    for v in g.vertices():
        if not visited[v]:
            order.append(v)
    return order


def _symmetry_groups(g: Graph) -> dict[int, list[int]]:
    """Interchangeable-sibling groups: members can be permuted WLOG.

    In a tree rooted at the search order's seed, children of one parent with
    isomorphic hanging subtrees are swappable by an automorphism, so the
    existence searches may force a canonical label order on the subtree
    roots.  Non-trees fall back to pendant leaves sharing a parent, which is
    an automorphism in any graph.  Counting stays unpruned.
    """
    if is_tree(g):
        children, code = rooted_codes(g, _vertex_order(g)[0])
        out: dict[int, list[int]] = {}
        for p in g.vertices():
            by_code: dict[str, list[int]] = {}
            for c in children[p]:
                by_code.setdefault(code[c], []).append(c)
            for members in by_code.values():
                if len(members) > 1:
                    members.sort()
                    for c in members:
                        out[c] = members
        return out
    groups: dict[int, list[int]] = {}
    for v in g.vertices():
        if g.degree(v) == 1:
            parent_v = g.neighbors(v)[0]
            groups.setdefault(parent_v, []).append(v)
    return {
        leaf: group for group in groups.values() for leaf in group if len(group) > 1
    }


def _backtrack(
    g: Graph,
    order: list[int],
    clock: _Clock,
    windows: list[tuple[int, int, bool]],
    groups: dict[int, list[int]],
    count: bool = False,
) -> tuple[int, dict[int, int] | None]:
    """The one search: label `order` depth-first within per-vertex windows.

    Vertex v tries the labels windows[v] = (lo, hi, descending) allows,
    narrowed by its placed symmetry-group siblings.  A used label is skipped
    before the clock ticks, so a node is one label actually tried.  Returns
    how many complete labelings were reached (at most one unless counting)
    and the first of them; the caller reads clock.expired for a budget stop.
    """
    m = g.num_edges
    assignment: dict[int, int] = {}
    used_labels = [False] * (m + 1)
    used_edges = [False] * (m + 1)
    found = 0
    first: dict[int, int] | None = None

    def rec(depth: int) -> bool:
        """Place order[depth:]; True means stop (found, or out of budget)."""
        nonlocal found, first
        if depth == len(order):
            found += 1
            if first is None:
                first = dict(assignment)
            return not count
        v = order[depth]
        lo, hi, descending = windows[v]
        for w in groups.get(v, ()):
            if w in assignment:
                # siblings take labels in member order along the window
                if (w < v) != descending:
                    lo = max(lo, assignment[w] + 1)
                else:
                    hi = min(hi, assignment[w] - 1)
        for lab in range(hi, lo - 1, -1) if descending else range(lo, hi + 1):
            if used_labels[lab]:
                continue
            if not clock.tick():
                return True
            touched = []
            for w in g.neighbors(v):
                if w in assignment:
                    d = abs(lab - assignment[w])
                    if d == 0 or used_edges[d]:
                        break
                    used_edges[d] = True
                    touched.append(d)
            else:
                used_labels[lab] = True
                assignment[v] = lab
                if rec(depth + 1):
                    return True
                del assignment[v]
                used_labels[lab] = False
            for d in touched:
                used_edges[d] = False
        return False

    rec(0)
    return found, first


def _new_clock(budget: SearchBudget) -> _Clock:
    return _Clock(time.monotonic() + budget.time_limit, budget.max_nodes)


def _result(
    first: dict[int, int] | None,
    clock: _Clock,
    kind: str = BETA,
    critical: int | None = None,
) -> SearchResult:
    if first is not None:
        return SearchResult(FOUND, Labeling(first, kind, critical), clock.nodes)
    if clock.expired:
        return SearchResult(BUDGET_EXCEEDED, nodes=clock.nodes)
    return SearchResult(EXHAUSTED, nodes=clock.nodes)


def brute_force_graceful(g: Graph, budget: SearchBudget | None = None) -> SearchResult:
    """First graceful labeling in the fixed exploration order, if any.

    The complement f -> m - f lets the first vertex stay at or below m // 2,
    and the symmetry groups order interchangeable siblings.
    """
    budget = budget or SearchBudget()
    m = g.num_edges
    if g.num_vertices > m + 1:
        return SearchResult(EXHAUSTED)
    if g.num_vertices == 0:
        return SearchResult(FOUND, Labeling({}, BETA))
    if g.num_vertices > budget.max_vertices:
        return SearchResult(BUDGET_EXCEEDED)
    order = _vertex_order(g)
    windows = [(0, m, False)] * g.num_vertices
    windows[order[0]] = (0, m // 2, False)
    clock = _new_clock(budget)
    _, first = _backtrack(g, order, clock, windows, _symmetry_groups(g))
    return _result(first, clock)


def search_graceful_with_fixed(
    g: Graph, fixed: Mapping[int, int], budget: SearchBudget | None = None
) -> SearchResult:
    """Graceful search with some vertex labels pinned in advance.

    Pinned vertices go first, each with a one-label window.  No symmetry
    cuts apply (they could move a pinned vertex).
    """
    budget = budget or SearchBudget()
    m = g.num_edges
    if g.num_vertices > m + 1:
        return SearchResult(EXHAUSTED)
    if g.num_vertices > budget.max_vertices:
        return SearchResult(BUDGET_EXCEEDED)
    for v, lab in fixed.items():
        if not (0 <= lab <= m):
            return SearchResult(EXHAUSTED)
        if not (0 <= v < g.num_vertices):
            raise GraphStructureError(f"pinned vertex {v} is not in the graph")
    order = sorted(fixed) + [v for v in _vertex_order(g) if v not in fixed]
    windows = [
        (fixed[v], fixed[v], False) if v in fixed else (0, m, False)
        for v in g.vertices()
    ]
    clock = _new_clock(budget)
    _, first = _backtrack(g, order, clock, windows, {})
    return _result(first, clock)


def brute_force_alpha(g: Graph, budget: SearchBudget | None = None) -> SearchResult:
    """First alpha labeling found; non-bipartite graphs fail immediately.

    The search fixes a side assignment and a critical value k, then gives
    the low side the window 0..k and the high side k+1..m (tried from the
    top), which keeps the straddle condition true by construction.  All
    (side, k) runs share one clock.
    """
    budget = budget or SearchBudget()
    m = g.num_edges
    if g.num_vertices > m + 1:
        return SearchResult(EXHAUSTED)
    parts = bipartition(g)
    if parts is None:
        return SearchResult(EXHAUSTED)
    if g.num_vertices > budget.max_vertices:
        return SearchResult(BUDGET_EXCEEDED)
    order = _vertex_order(g)
    clock = _new_clock(budget)
    groups = _symmetry_groups(g)
    for low_side in parts:
        for k in range(m + 1):
            if len(low_side) > k + 1 or g.num_vertices - len(low_side) > m - k:
                continue
            windows = [
                (0, k, False) if v in low_side else (k + 1, m, True)
                for v in g.vertices()
            ]
            _, first = _backtrack(g, order, clock, windows, groups)
            if first is not None or clock.expired:
                return _result(first, clock, ALPHA, k)
    return _result(None, clock)


def count_graceful_labelings(g: Graph, budget: SearchBudget | None = None) -> int:
    """Number of graceful labelings counted as functions (no symmetry cuts)."""
    budget = budget or SearchBudget(max_vertices=10)
    m = g.num_edges
    if g.num_vertices > m + 1:
        return 0
    if g.num_vertices > budget.max_vertices:
        raise GraphStructureError(
            f"counting limited to {budget.max_vertices} vertices"
        )
    clock = _new_clock(budget)
    windows = [(0, m, False)] * g.num_vertices
    found, _ = _backtrack(g, _vertex_order(g), clock, windows, {}, count=True)
    if clock.expired:
        raise GraphStructureError("search budget exceeded")
    return found


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All non-isomorphic trees on n vertices, ordered by canonical code.

    Grown by leaf extension from the trees on n-1 vertices with canonical
    deduplication at every level.
    """
    if not (1 <= n <= 10):
        raise GraphStructureError("supported range is 1 <= n <= 10")
    level: dict[str, Graph] = {"()": build_graph(1, [])}
    for size in range(2, n + 1):
        grown: dict[str, Graph] = {}
        for t in level.values():
            for v in t.vertices():
                edges = list(t.edges) + [(v, size - 1)]
                candidate = build_graph(size, edges)
                code = free_code(candidate)
                if code not in grown:
                    grown[code] = candidate
        level = grown
    for code in sorted(level):
        yield level[code]


def prufer_to_tree(seq: tuple[int, ...], n: int) -> Graph:
    """Decode a length n-2 sequence over 0..n-1 into a labeled tree."""
    if n < 2:
        raise GraphStructureError("decoding needs n >= 2")
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return build_graph(n, edges)

