"""Binary label matrices and the diagonal (box-value) calculus.

The box-value of cell (i, j) of an R-row grid is R + j - i (1-based); cells
of equal box-value form a diagonal.  A grid is graceful when every diagonal
holds at most one 1, completely graceful when every diagonal holds exactly
one (the principal diagonal of an adjacency grid stays empty).  For a
canonical grid the box-value of an occupied cell equals the edge label of
the edge it represents, which is what makes the calculus tick.

A grid is stored as its set of occupied cells, never as rows of zeros: the
calculus only looks at the m ones, so every operation here runs in the
number of edges, not the grid's area.  Dense rows exist only on demand, in
`LabeledMatrix.grid` and in `formats.print_matrix`.

A LabeledMatrix carries (vertex id, label) metadata per row/column slot, so
every orientation (identity, 180-degree rotation, transpose, both) remains
self-describing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import LabelingInputError, MatrixError
from .graphs import Graph, build_graph
from .labelings import (
    ALPHA,
    BETA,
    Labeling,
    augment_hat,
    pad_labeling,
    verify_alpha,
)

ADJACENCY = "adjacency"
BIADJACENCY = "biadjacency"

Cell = tuple[int, int]  # 0-based (row, column)
Slot = tuple[int, int]  # (vertex id, label)


def box_value(num_rows: int, num_cols: int, i: int, j: int) -> int:
    """Box-value R + j - i of the 1-based cell (i, j) of an R x C grid."""
    if not (1 <= i <= num_rows):
        raise MatrixError(f"row index {i} out of range 1..{num_rows}")
    if not (1 <= j <= num_cols):
        raise MatrixError(f"column index {j} out of range 1..{num_cols}")
    return num_rows + j - i


@dataclass(frozen=True)
class LabeledMatrix:
    """A 0/1 grid, stored as its occupied cells, plus per-slot metadata.

    The grid has one row per row slot and one column per column slot.
    """

    kind: str
    ones: frozenset[Cell]
    row_slots: tuple[Slot, ...]
    col_slots: tuple[Slot, ...]
    critical: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ADJACENCY, BIADJACENCY):
            raise MatrixError(f"unknown matrix kind {self.kind!r}")
        rows, cols = self.num_rows, self.num_cols
        outside = [(i, j) for i, j in self.ones if not (0 <= i < rows and 0 <= j < cols)]
        if outside:
            i, j = min(outside)
            raise MatrixError(f"cell ({i}, {j}) lies outside the {rows} x {cols} grid")
        if self.kind == ADJACENCY:
            if self.critical is not None:
                raise MatrixError("adjacency matrices carry no critical value")
            if self.row_slots != self.col_slots:
                raise MatrixError("adjacency matrices need identical row/column slots")
            # first offence in (i, j >= i) order, as a row-by-row scan finds it
            bad = [
                (min(i, j), max(i, j))
                for i, j in self.ones
                if i == j or (j, i) not in self.ones
            ]
            if bad:
                i, j = min(bad)
                if i == j:
                    raise MatrixError(f"principal diagonal not empty at index {i}")
                raise MatrixError(f"grid not symmetric at ({i}, {j})")
        elif self.critical is None:
            raise MatrixError("biadjacency matrices need a critical value")
        ids = [vid for vid, _ in self.row_slots]
        if self.kind == BIADJACENCY:
            ids += [vid for vid, _ in self.col_slots]
        if len(ids) != len(set(ids)):
            raise MatrixError("a vertex id appears in two slots")

    @property
    def num_rows(self) -> int:
        return len(self.row_slots)

    @property
    def num_cols(self) -> int:
        return len(self.col_slots)

    @property
    def grid(self) -> tuple[tuple[int, ...], ...]:
        """The dense 0/1 rows, built on demand."""
        rows = [[0] * self.num_cols for _ in range(self.num_rows)]
        for i, j in self.ones:
            rows[i][j] = 1
        return tuple(map(tuple, rows))

    @property
    def row_labels(self) -> tuple[int, ...]:
        return tuple(lab for _, lab in self.row_slots)

    @property
    def col_labels(self) -> tuple[int, ...]:
        return tuple(lab for _, lab in self.col_slots)

    def cell_box_value(self, i: int, j: int) -> int:
        """Box-value of the 0-based cell (i, j)."""
        return box_value(self.num_rows, self.num_cols, i + 1, j + 1)

    def row_index_of_label(self, label: int) -> int:
        try:
            return self.row_labels.index(label)
        except ValueError:
            raise MatrixError(f"no row labeled {label}") from None

    def col_index_of_label(self, label: int) -> int:
        try:
            return self.col_labels.index(label)
        except ValueError:
            raise MatrixError(f"no column labeled {label}") from None


@dataclass(frozen=True)
class GridVerdict:
    """Outcome of a diagonal check; bad diagonals listed by box-value."""

    ok: bool
    overfull: tuple[int, ...] = ()
    deficient: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @property
    def first_violation(self) -> int | None:
        bad = sorted(self.overfull + self.deficient)
        return bad[0] if bad else None


def _diagonal_counts(m: LabeledMatrix) -> Counter[int]:
    rows = m.num_rows
    return Counter(rows + j - i for i, j in m.ones)


def is_graceful_grid(m: LabeledMatrix) -> GridVerdict:
    """Every diagonal holds at most one 1."""
    counts = _diagonal_counts(m)
    overfull = tuple(sorted(c for c, n in counts.items() if n > 1))
    return GridVerdict(not overfull, overfull=overfull)


def is_completely_graceful(m: LabeledMatrix) -> GridVerdict:
    """Every diagonal holds exactly one 1 (adjacency: principal stays empty)."""
    counts = _diagonal_counts(m)
    total = m.num_rows + m.num_cols - 1
    skip = {m.num_rows} if m.kind == ADJACENCY else set()
    overfull = sorted(c for c, n in counts.items() if n > 1)
    deficient = []
    for c in range(1, total + 1):
        n = counts.get(c, 0)
        if c in skip:
            if n:
                overfull.append(c)
            continue
        if n == 0:
            deficient.append(c)
    return GridVerdict(
        not overfull and not deficient,
        overfull=tuple(sorted(overfull)),
        deficient=tuple(deficient),
    )


def canonical_adjacency(g: Graph, f: Labeling) -> LabeledMatrix:
    """Adjacency grid of the padded graph with slots ordered by label.

    Needs only injectivity into 0..m, so broken-but-rangewise-valid
    labelings can be rendered and then rejected by the diagonal check.
    """
    ghat = augment_hat(g)
    assignment = pad_labeling(g, f)
    m = g.num_edges
    labels = sorted(assignment.values())
    if labels != list(range(m + 1)):
        raise LabelingInputError(
            f"labels are not a bijection onto 0..{m}: got {labels}"
        )
    by_label = {lab: v for v, lab in assignment.items()}
    slots = tuple((by_label[lab], lab) for lab in range(m + 1))
    ones = set()
    for u, v in ghat.edges:
        a, b = assignment[u], assignment[v]
        ones.update(((a, b), (b, a)))
    return LabeledMatrix(ADJACENCY, frozenset(ones), slots, slots)


def canonical_biadjacency(
    g: Graph, f: Labeling, max_label: int | None = None
) -> LabeledMatrix:
    """Biadjacency grid of an alpha labeling: rows 0..k, columns k+1..bound."""
    bound = g.num_edges if max_label is None else max_label
    verdict = verify_alpha(g, f, bound)
    if not verdict:
        raise LabelingInputError(f"labeling is not alpha: {verdict.reason}")
    k = verdict.critical
    assignment = pad_labeling(g, f, bound)
    by_label = {lab: v for v, lab in assignment.items()}
    if sorted(by_label) != list(range(bound + 1)):
        raise LabelingInputError("padded labels do not cover 0..bound")
    row_slots = tuple((by_label[lab], lab) for lab in range(k + 1))
    col_slots = tuple((by_label[lab], lab) for lab in range(k + 1, bound + 1))
    ones = set()
    for u, v in g.edges:
        a, b = assignment[u], assignment[v]
        ones.add((a, b - (k + 1)) if a < b else (b, a - (k + 1)))
    return LabeledMatrix(BIADJACENCY, frozenset(ones), row_slots, col_slots, k)


ROTATE = "R"
TRANSPOSE = "T"
ROTATE_TRANSPOSE = "RT"


def transform(m: LabeledMatrix, which: str) -> LabeledMatrix:
    """Reorient a biadjacency grid: R rotates 180 degrees, T transposes.

    Orientation is data: slots travel with the grid, so gracefulness checks
    keep working on the result.
    """
    if m.kind != BIADJACENCY:
        raise MatrixError("only biadjacency matrices have the four orientations")
    if which == ROTATE:
        last_row, last_col = m.num_rows - 1, m.num_cols - 1
        return LabeledMatrix(
            BIADJACENCY,
            frozenset((last_row - i, last_col - j) for i, j in m.ones),
            tuple(reversed(m.row_slots)),
            tuple(reversed(m.col_slots)),
            m.critical,
        )
    if which == TRANSPOSE:
        return LabeledMatrix(
            BIADJACENCY,
            frozenset((j, i) for i, j in m.ones),
            m.col_slots,
            m.row_slots,
            m.critical,
        )
    if which == ROTATE_TRANSPOSE:
        return transform(transform(m, ROTATE), TRANSPOSE)
    raise MatrixError(f"unknown transform {which!r}")


def inverse_alpha(f: Labeling, k: int, n: int) -> Labeling:
    """The reflected labeling v -> (k - f(v)) mod n of a complete alpha map.

    An involution; corresponds to the 180-degree rotation of the canonical
    biadjacency grid.
    """
    labels = sorted(f.assignment.values())
    if labels != list(range(n)):
        raise LabelingInputError(
            f"labeling is not a bijection onto 0..{n - 1}; cannot invert"
        )
    flipped = {v: (k - lab) % n for v, lab in f.assignment.items()}
    return Labeling(flipped, ALPHA, k)


def matrix_to_graph(m: LabeledMatrix) -> tuple[Graph, Labeling]:
    """Rebuild the labeled graph a grid describes, in any orientation.

    Vertex ids and labels are read from the slots; each occupied cell joins
    its row's vertex to its column's (an adjacency grid is read above the
    principal diagonal only).
    """
    slots = m.row_slots if m.kind == ADJACENCY else m.row_slots + m.col_slots
    n = len(slots)
    if sorted(vid for vid, _ in slots) != list(range(n)):
        raise MatrixError("slot ids are not 0..n-1")
    edges = [
        (m.row_slots[i][0], m.col_slots[j][0])
        for i, j in sorted(m.ones)
        if m.kind == BIADJACENCY or i < j
    ]
    g = build_graph(n, edges)
    if m.kind == ADJACENCY:
        return g, Labeling(dict(sorted(slots)), BETA)
    return g, Labeling(dict(slots), ALPHA, m.critical)


def shift_ones(
    m: LabeledMatrix,
    moves: Sequence[tuple[tuple[int, int], tuple[int, int]]],
) -> LabeledMatrix:
    """Move 1s between cells addressed by (row label, column label) pairs.

    All removals happen before all placements, so compensating pairs of
    moves may transiently collide.  The result must still be completely
    graceful; otherwise this raises.
    """
    sources: set[Cell] = set()
    targets = []
    for (r_lab, c_lab), (r_lab2, c_lab2) in moves:
        src = (m.row_index_of_label(r_lab), m.col_index_of_label(c_lab))
        dst = (m.row_index_of_label(r_lab2), m.col_index_of_label(c_lab2))
        if src not in m.ones:
            raise MatrixError(f"source cell ({r_lab}, {c_lab}) holds no 1")
        if src in sources:
            raise MatrixError(f"source cell ({r_lab}, {c_lab}) is moved twice")
        sources.add(src)
        targets.append((dst, (r_lab2, c_lab2)))
    ones = set(m.ones - sources)
    for dst, dst_labels in targets:
        if dst in ones:
            raise MatrixError(f"target cell {dst_labels} is already occupied")
        ones.add(dst)
    out = replace(m, ones=frozenset(ones))
    verdict = is_completely_graceful(out)
    if not verdict:
        raise MatrixError(
            f"shifted grid is not completely graceful; first bad diagonal "
            f"{verdict.first_violation}"
        )
    return out
