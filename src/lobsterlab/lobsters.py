"""Spine/lobe/branch decomposition of lobsters (and smaller trees).

A lobster is cut into an ordered spine, a lobe at each spinal vertex made of
branches (a branch center adjacent to the spinal vertex plus its leaves), and
pendant vertices hanging directly off spinal vertices.  Reassembling the
parts reproduces the source tree's edge set exactly.

The spine comes from the same leaf stripping that classifies the tree
(Graph.base_levels, stripped once per graph): it is the base of the base
walked from its smaller-id end, else the base (a single vertex or K2),
else vertex 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphStructureError
from .graphs import Graph, build_graph


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
        ids = self.all_vertices()
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
    return build_graph(len(ids), [(index[a], index[b]) for a, b in edge_set_of(lob)])


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


def lobster_decompose(t: Graph) -> Lobster:
    """Decompose a path/caterpillar/lobster into spine, lobes and pendants.

    The spine is the base of the base walked from its smaller-id end, else
    the base, else vertex 0.
    """
    _, b, bb = t.base_levels
    if any(d > 2 for d in bb.values()):
        raise GraphStructureError("tree is deeper than a lobster")

    path = bb or b
    spine = [min(v for v, d in path.items() if d <= 1)] if path else [0]
    while len(spine) < len(path):
        spine.append(
            next(w for w in t.neighbors(spine[-1]) if w in path and w not in spine[-2:])
        )
    on_spine = set(spine)
    pos = {v: i for i, v in enumerate(spine)}

    lobes: list[list[Branch]] = [[] for _ in spine]
    pendants: list[list[int]] = [[] for _ in spine]
    # the stripping puts every vertex within 2 of the spine, so the
    # vertices two steps off it are leaves; the edge-set check below
    # re-confirms that the parts cover the tree
    for v in spine:
        for u in t.neighbors(v):
            if u in on_spine:
                continue
            leaves = tuple(sorted(w for w in t.neighbors(u) if w != v))
            if leaves:
                lobes[pos[v]].append(Branch(u, leaves))
            else:
                pendants[pos[v]].append(u)

    lobes_sorted = tuple(
        tuple(sorted(lobe, key=lambda br: (br.leaf_count, br.center)))
        for lobe in lobes
    )
    pendants_sorted = tuple(tuple(sorted(p)) for p in pendants)
    lob = Lobster(tuple(spine), lobes_sorted, pendants_sorted)
    if edge_set_of(lob) != t.edges:
        raise GraphStructureError("decomposition does not reproduce the tree")
    return lob
