"""Exhaustive search: the independent ground truth for everything else.

Backtracking assigns labels to vertices in a fixed order (descending degree,
ties by id), pruning duplicate vertex and edge labels, so results are
deterministic.  The existence search halves its space with the complement
symmetry f -> m - f; the counting variant runs unpruned because it counts
labelings as functions.
"""

from __future__ import annotations

import heapq
import itertools
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


def _group_window(
    v: int,
    groups: dict[int, list[int]],
    assignment: dict[int, int],
    ascending: bool,
) -> tuple[int, int]:
    """Label window (lo, hi) forced on v by its placed group siblings."""
    group = groups.get(v)
    lo, hi = 0, 1 << 30
    if group is None:
        return lo, hi
    for w in group:
        if w == v or w not in assignment:
            continue
        before = (w < v) == ascending
        if before:
            lo = max(lo, assignment[w] + 1)
        else:
            hi = min(hi, assignment[w] - 1)
    return lo, hi


def brute_force_graceful(g: Graph, budget: SearchBudget | None = None) -> SearchResult:
    """First graceful labeling in the fixed exploration order, if any."""
    budget = budget or SearchBudget()
    m = g.num_edges
    if g.num_vertices > m + 1:
        return SearchResult(EXHAUSTED)
    if g.num_vertices == 0:
        return SearchResult(FOUND, Labeling({}, BETA))
    if g.num_vertices > budget.max_vertices:
        return SearchResult(BUDGET_EXCEEDED)
    order = _vertex_order(g)
    clock = _Clock(time.monotonic() + budget.time_limit, budget.max_nodes)
    assignment: dict[int, int] = {}
    used_labels = [False] * (m + 1)
    used_edges = [False] * (m + 1)
    groups = _symmetry_groups(g)

    def place(v: int, lab: int) -> list[int] | None:
        touched = []
        for w in g.neighbors(v):
            if w in assignment:
                d = abs(lab - assignment[w])
                if d == 0 or used_edges[d]:
                    for t in touched:
                        used_edges[t] = False
                    return None
                used_edges[d] = True
                touched.append(d)
        return touched

    def rec(depth: int) -> bool:
        if depth == len(order):
            return True
        v = order[depth]
        lo, hi = _group_window(v, groups, assignment, ascending=True)
        hi = min(hi, m // 2 if depth == 0 else m)
        for lab in range(lo, hi + 1):
            if used_labels[lab]:
                continue
            if not clock.tick():
                return False
            touched = place(v, lab)
            if touched is None:
                continue
            used_labels[lab] = True
            assignment[v] = lab
            if rec(depth + 1):
                return True
            del assignment[v]
            used_labels[lab] = False
            for d in touched:
                used_edges[d] = False
            if clock.expired:
                return False
        return False

    if rec(0):
        return SearchResult(FOUND, Labeling(dict(assignment), BETA), clock.nodes)
    if clock.expired:
        return SearchResult(BUDGET_EXCEEDED, nodes=clock.nodes)
    return SearchResult(EXHAUSTED, nodes=clock.nodes)


def search_graceful_with_fixed(
    g: Graph, fixed: Mapping[int, int], budget: SearchBudget | None = None
) -> SearchResult:
    """Graceful search with some vertex labels pinned in advance.

    No symmetry cuts apply (they could move a pinned vertex), so this is a
    plain exhaustive backtracking over the free vertices.
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
    order = [v for v in sorted(fixed)] + [
        v for v in _vertex_order(g) if v not in fixed
    ]
    clock = _Clock(time.monotonic() + budget.time_limit, budget.max_nodes)
    assignment: dict[int, int] = {}
    used_labels = [False] * (m + 1)
    used_edges = [False] * (m + 1)

    def place(v: int, lab: int) -> list[int] | None:
        if used_labels[lab]:
            return None
        touched = []
        for w in g.neighbors(v):
            if w in assignment:
                d = abs(lab - assignment[w])
                if d == 0 or used_edges[d]:
                    for t in touched:
                        used_edges[t] = False
                    return None
                used_edges[d] = True
                touched.append(d)
        used_labels[lab] = True
        assignment[v] = lab
        return touched

    def unplace(v: int, lab: int, touched: list[int]) -> None:
        del assignment[v]
        used_labels[lab] = False
        for d in touched:
            used_edges[d] = False

    def rec(depth: int) -> bool:
        if depth == len(order):
            return True
        v = order[depth]
        labels = [fixed[v]] if v in fixed else range(m + 1)
        for lab in labels:
            if not clock.tick():
                return False
            touched = place(v, lab)
            if touched is None:
                continue
            if rec(depth + 1):
                return True
            unplace(v, lab, touched)
            if clock.expired:
                return False
        return False

    if rec(0):
        return SearchResult(FOUND, Labeling(dict(assignment), BETA), clock.nodes)
    if clock.expired:
        return SearchResult(BUDGET_EXCEEDED, nodes=clock.nodes)
    return SearchResult(EXHAUSTED, nodes=clock.nodes)


def brute_force_graceful_unpruned(g: Graph) -> SearchResult:
    """Reference search without the complement symmetry (tests only)."""
    m = g.num_edges
    if g.num_vertices > m + 1:
        return SearchResult(EXHAUSTED)
    order = _vertex_order(g)
    assignment: dict[int, int] = {}
    used_labels = [False] * (m + 1)
    used_edges = [False] * (m + 1)

    def rec(depth: int) -> bool:
        if depth == len(order):
            return True
        v = order[depth]
        for lab in range(m + 1):
            if used_labels[lab]:
                continue
            ok = True
            touched = []
            for w in g.neighbors(v):
                if w in assignment:
                    d = abs(lab - assignment[w])
                    if d == 0 or used_edges[d]:
                        ok = False
                        break
                    used_edges[d] = True
                    touched.append(d)
            if not ok:
                for d in touched:
                    used_edges[d] = False
                continue
            used_labels[lab] = True
            assignment[v] = lab
            if rec(depth + 1):
                return True
            del assignment[v]
            used_labels[lab] = False
            for d in touched:
                used_edges[d] = False
        return False

    if rec(0):
        return SearchResult(FOUND, Labeling(dict(assignment), BETA))
    return SearchResult(EXHAUSTED)


def brute_force_alpha(g: Graph, budget: SearchBudget | None = None) -> SearchResult:
    """First alpha labeling found; non-bipartite graphs fail immediately.

    The search fixes a side assignment and a critical value k, then restricts
    each vertex's candidate labels to its side's range, which keeps the
    straddle condition true by construction.
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
    clock = _Clock(time.monotonic() + budget.time_limit, budget.max_nodes)
    groups = _symmetry_groups(g)

    part0, part1 = parts
    for low_side in (part0, part1):
        high_side = set(g.vertices()) - low_side
        for k in range(m + 1):
            if len(low_side) > k + 1 or len(high_side) > m - k:
                continue
            assignment: dict[int, int] = {}
            used_labels = [False] * (m + 1)
            used_edges = [False] * (m + 1)

            def rec(depth: int) -> bool:
                if depth == len(order):
                    return True
                v = order[depth]
                low = v in low_side
                side_lo, side_hi = (0, k) if low else (k + 1, m)
                # the high side tries large labels first, so group windows
                # there run descending with member order
                glo, ghi = _group_window(v, groups, assignment, ascending=low)
                lo, hi = max(side_lo, glo), min(side_hi, ghi)
                labels = range(lo, hi + 1) if low else range(hi, lo - 1, -1)
                for lab in labels:
                    if used_labels[lab]:
                        continue
                    if not clock.tick():
                        return False
                    ok = True
                    touched = []
                    for w in g.neighbors(v):
                        if w in assignment:
                            d = abs(lab - assignment[w])
                            if d == 0 or used_edges[d]:
                                ok = False
                                break
                            used_edges[d] = True
                            touched.append(d)
                    if not ok:
                        for d in touched:
                            used_edges[d] = False
                        continue
                    used_labels[lab] = True
                    assignment[v] = lab
                    if rec(depth + 1):
                        return True
                    del assignment[v]
                    used_labels[lab] = False
                    for d in touched:
                        used_edges[d] = False
                    if clock.expired:
                        return False
                return False

            if rec(0):
                return SearchResult(
                    FOUND, Labeling(dict(assignment), ALPHA, k), clock.nodes
                )
            if clock.expired:
                return SearchResult(BUDGET_EXCEEDED, nodes=clock.nodes)
    return SearchResult(EXHAUSTED, nodes=clock.nodes)


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
    order = _vertex_order(g)
    clock = _Clock(time.monotonic() + budget.time_limit, budget.max_nodes)
    assignment: dict[int, int] = {}
    used_labels = [False] * (m + 1)
    used_edges = [False] * (m + 1)
    count = 0

    def rec(depth: int) -> None:
        nonlocal count
        if depth == len(order):
            count += 1
            return
        v = order[depth]
        for lab in range(m + 1):
            if used_labels[lab]:
                continue
            if not clock.tick():
                raise TimeoutError("search budget exceeded")
            ok = True
            touched = []
            for w in g.neighbors(v):
                if w in assignment:
                    d = abs(lab - assignment[w])
                    if d == 0 or used_edges[d]:
                        ok = False
                        break
                    used_edges[d] = True
                    touched.append(d)
            if not ok:
                for d in touched:
                    used_edges[d] = False
                continue
            used_labels[lab] = True
            assignment[v] = lab
            rec(depth + 1)
            del assignment[v]
            used_labels[lab] = False
            for d in touched:
                used_edges[d] = False

    rec(0)
    return count


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


def count_trees_via_prufer(n: int) -> int:
    """Independent tree count: decode every sequence, dedupe by code."""
    if n == 1 or n == 2:
        return 1
    codes = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        codes.add(free_code(prufer_to_tree(seq, n)))
    return len(codes)
