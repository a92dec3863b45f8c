"""Vertex labelings and their verification.

A beta (graceful) labeling maps vertices injectively into {0..m} so the
induced edge values |f(u)-f(v)| are pairwise distinct.  An alpha labeling
additionally has a critical value k with min(f(u),f(v)) <= k < max(f(u),f(v))
on every edge.  ``max_label`` widens the codomain beyond m for padded
compositions (disjoint unions); the default is the strict bound m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import LabelingInputError
from .graphs import Graph

BETA = "beta"
ALPHA = "alpha"


@dataclass(frozen=True)
class Labeling:
    """An assignment of integer labels to vertex ids.

    `complete` records that the labels are exactly {0..len-1}; paired with a
    graph whose edge count is len-1 this is the bijective case.
    """

    assignment: Mapping[int, int]
    kind: str = BETA
    critical: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (BETA, ALPHA):
            raise LabelingInputError(f"unknown labeling kind {self.kind!r}")
        if self.kind == BETA and self.critical is not None:
            raise LabelingInputError("beta labelings carry no critical value")

    def label(self, v: int) -> int:
        return self.assignment[v]

    @property
    def complete(self) -> bool:
        values = set(self.assignment.values())
        return values == set(range(len(self.assignment)))

    @property
    def max_label(self) -> int:
        return max(self.assignment.values())

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.assignment.items())

    def vertex_with_label(self, label: int) -> int:
        for v, lab in self.assignment.items():
            if lab == label:
                return v
        raise LabelingInputError(f"label {label} is unused")


def beta_labeling(assignment: Mapping[int, int]) -> Labeling:
    return Labeling(dict(assignment), BETA)


def alpha_labeling(assignment: Mapping[int, int], critical: int) -> Labeling:
    return Labeling(dict(assignment), ALPHA, critical)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a verification; `ok` implies no failure recorded."""

    ok: bool
    code: str | None = None
    detail: str | None = None
    critical: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def reason(self) -> str:
        return f"{self.code}: {self.detail}" if self.code else "ok"


def _fail(code: str, detail: str) -> Verdict:
    return Verdict(False, code, detail)


def augment_hat(g: Graph) -> Graph:
    """Pad g with isolated vertices up to m+1 vertices (ids n..m)."""
    m = g.num_edges
    if g.num_vertices > m + 1:
        raise LabelingInputError(
            f"graph has {g.num_vertices} vertices but only {m} edges; "
            "no injective labeling into 0..m exists"
        )
    return Graph(m + 1, g.edges)


def pad_labeling(g: Graph, f: Labeling, max_label: int | None = None) -> dict[int, int]:
    """Extend f over the padded graph, giving unused labels to pads ascending."""
    bound = g.num_edges if max_label is None else max_label
    assignment = dict(f.assignment)
    used = set(assignment.values())
    unused = iter(sorted(set(range(bound + 1)) - used))
    for v in range(g.num_vertices, bound + 1):
        if v not in assignment:
            assignment[v] = next(unused)
    return assignment

def verify_beta(g: Graph, f: Labeling, max_label: int | None = None) -> Verdict:
    """Check the graceful conditions; Verdict carries the failure reason."""
    bound = g.num_edges if max_label is None else max_label
    missing = [v for v in g.vertices() if v not in f.assignment]
    if missing:
        return _fail("unlabeled-vertex", f"vertex {missing[0]} has no label")
    seen: dict[int, int] = {}
    for v in g.vertices():
        lab = f.assignment[v]
        if not (0 <= lab <= bound):
            return _fail("label-out-of-range", f"vertex {v} labeled {lab} not in 0..{bound}")
        if lab in seen:
            return _fail("duplicate-vertex-label", f"vertices {seen[lab]} and {v} share label {lab}")
        seen[lab] = v
    edge_seen: dict[int, tuple[int, int]] = {}
    for u, v in g.sorted_edges():
        d = abs(f.assignment[u] - f.assignment[v])
        if d in edge_seen:
            return _fail(
                "duplicate-edge-label",
                f"edges {edge_seen[d]} and {(u, v)} both get edge label {d}",
            )
        edge_seen[d] = (u, v)
    return Verdict(True)


def verify_alpha(g: Graph, f: Labeling, max_label: int | None = None) -> Verdict:
    """verify_beta plus the straddle condition; k is derived, then checked.

    The critical value is computed as the largest min-endpoint label over
    edges; a critical value stored on the labeling must agree with it.
    """
    beta = verify_beta(g, f, max_label)
    if not beta:
        return beta
    k = max((min(f.assignment[u], f.assignment[v]) for u, v in g.edges), default=0)
    for u, v in g.sorted_edges():
        lo, hi = sorted((f.assignment[u], f.assignment[v]))
        if not (lo <= k < hi):
            return _fail(
                "alpha-straddle",
                f"edge ({u}, {v}) with labels ({lo}, {hi}) is not straddled by k={k}",
            )
    if f.critical is not None and f.critical != k:
        return _fail(
            "critical-mismatch",
            f"labeling claims critical {f.critical} but the straddle value is {k}",
        )
    return Verdict(True, critical=k)

