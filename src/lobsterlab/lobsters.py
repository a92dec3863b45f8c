"""Spine/lobe/branch decomposition of lobsters (and smaller trees).

A lobster is cut into an ordered spine, a lobe at each spinal vertex made of
branches (a branch center adjacent to the spinal vertex plus its leaves), and
pendant vertices hanging directly off spinal vertices.  Reassembling the
parts reproduces the source tree's edge set exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphStructureError
from .graphs import (
    CATERPILLAR,
    LOBSTER,
    PATH,
    SINGLE_VERTEX,
    Graph,
    base_with_map,
    build_graph,
    classify_tree,
    diameter_path,
    require_tree,
)


@dataclass(frozen=True)
class Branch:
    """A star hanging off a spinal vertex: its center and leaf ids."""

    center: int
    leaves: tuple[int, ...]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


@dataclass(frozen=True)
class Lobster:
    """Structured decomposition of a tree of lobster depth.

    spine: spinal vertex ids in path order.
    lobes: per spinal vertex, the branches rooted next to it.
    pendants: per spinal vertex, ids of pendant vertices attached directly.
    """

    spine: tuple[int, ...]
    lobes: tuple[tuple[Branch, ...], ...]
    pendants: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        if not (len(self.spine) == len(self.lobes) == len(self.pendants)):
            raise GraphStructureError("spine, lobes and pendants lengths differ")
        ids = list(self.spine)
        for lobe in self.lobes:
            for br in lobe:
                ids.append(br.center)
                ids.extend(br.leaves)
        for pend in self.pendants:
            ids.extend(pend)
        if len(ids) != len(set(ids)):
            raise GraphStructureError("duplicate vertex id in decomposition")

    @property
    def spine_length(self) -> int:
        return len(self.spine)

    @property
    def pendant_counts(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.pendants)

    def branch_leaf_counts(self, i: int) -> tuple[int, ...]:
        """Leaf counts of the branches at spinal position i, sorted."""
        return tuple(sorted(br.leaf_count for br in self.lobes[i]))

    def all_vertices(self) -> list[int]:
        out = list(self.spine)
        for lobe in self.lobes:
            for br in lobe:
                out.append(br.center)
                out.extend(br.leaves)
        for pend in self.pendants:
            out.extend(pend)
        return out

    def reversed(self) -> "Lobster":
        return Lobster(
            tuple(reversed(self.spine)),
            tuple(reversed(self.lobes)),
            tuple(reversed(self.pendants)),
        )


def reassemble(lob: Lobster) -> Graph:
    """Rebuild the tree a Lobster describes (ids reindexed densely)."""
    ids = sorted(lob.all_vertices())
    index = {v: i for i, v in enumerate(ids)}
    edges: list[tuple[int, int]] = []
    for a, b in zip(lob.spine, lob.spine[1:]):
        edges.append((index[a], index[b]))
    for v, lobe, pend in zip(lob.spine, lob.lobes, lob.pendants):
        for br in lobe:
            edges.append((index[v], index[br.center]))
            for leaf in br.leaves:
                edges.append((index[br.center], index[leaf]))
        for p in pend:
            edges.append((index[v], index[p]))
    return build_graph(len(ids), edges)


def edge_set_of(lob: Lobster) -> frozenset[tuple[int, int]]:
    """The edge set the decomposition describes, in original ids."""
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        edges.add((a, b) if a < b else (b, a))

    for a, b in zip(lob.spine, lob.spine[1:]):
        add(a, b)
    for v, lobe, pend in zip(lob.spine, lob.lobes, lob.pendants):
        for br in lobe:
            add(v, br.center)
            for leaf in br.leaves:
                add(br.center, leaf)
        for p in pend:
            add(v, p)
    return frozenset(edges)


def _choose_spine(t: Graph) -> list[int]:
    """Spinal vertex ids of t, in path order.

    The spine is the base of the base when that is non-degenerate; otherwise
    a deterministic maximal path of the base, the base's single vertex, or
    (for K1/K2) a single vertex of t itself.
    """
    b, b_ids = base_with_map(t)
    if b.num_vertices == 0:
        return [min(t.vertices())]
    if b.num_vertices == 1:
        return [b_ids[0]]
    bb, bb_ids = base_with_map(b)
    if bb.num_vertices == 0:
        path = diameter_path(b)
        return [b_ids[v] for v in path]
    if bb.num_vertices == 1:
        return [b_ids[bb_ids[0]]]
    path = diameter_path(bb)
    return [b_ids[bb_ids[v]] for v in path]


def lobster_decompose(t: Graph) -> Lobster:
    """Decompose a path/caterpillar/lobster into spine, lobes and pendants."""
    require_tree(t)
    kind = classify_tree(t)
    if kind not in (SINGLE_VERTEX, PATH, CATERPILLAR, LOBSTER):
        raise GraphStructureError("tree is deeper than a lobster")

    spine = _choose_spine(t)
    on_spine = set(spine)
    pos = {v: i for i, v in enumerate(spine)}

    lobes: list[list[Branch]] = [[] for _ in spine]
    pendants: list[list[int]] = [[] for _ in spine]
    claimed = set(on_spine)

    for v in spine:
        for u in t.neighbors(v):
            if u in on_spine:
                continue
            leaves = tuple(sorted(w for w in t.neighbors(u) if w != v))
            for leaf in leaves:
                if t.degree(leaf) != 1 or leaf in on_spine:
                    raise GraphStructureError(
                        f"vertex {leaf} is deeper than 2 below the spine"
                    )
            if leaves:
                lobes[pos[v]].append(Branch(u, leaves))
            else:
                pendants[pos[v]].append(u)
            claimed.add(u)
            claimed.update(leaves)

    if len(claimed) != t.num_vertices:
        raise GraphStructureError("tree has vertices unreachable from the spine")

    lobes_sorted = tuple(
        tuple(sorted(lobe, key=lambda br: (br.leaf_count, br.center)))
        for lobe in lobes
    )
    pendants_sorted = tuple(tuple(sorted(p)) for p in pendants)
    lob = Lobster(tuple(spine), lobes_sorted, pendants_sorted)
    if edge_set_of(lob) != t.edges:
        raise GraphStructureError("decomposition does not reproduce the tree")
    return lob
