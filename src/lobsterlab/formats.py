"""Text codecs shared repo-wide, plus DOT export.

Every printer emits LF line endings with no trailing whitespace, and every
parser accepts exactly what the printer emits (plus '#' comment lines in
edge lists), so print ∘ parse is the identity on canonical files.
"""

from __future__ import annotations

from .errors import FormatError, GraphStructureError, LabelingInputError, MatrixError
from .graphs import Graph, build_graph
from .labelings import ALPHA, BETA, Labeling
from .matrices import ADJACENCY, BIADJACENCY, LabeledMatrix

# -- edge lists --------------------------------------------------------------


def print_edges(g: Graph) -> str:
    lines = [f"{g.num_vertices} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_edges(text: str) -> Graph:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty edge-list file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise FormatError(f"bad header line {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError as exc:
            raise FormatError(f"bad edge line {line!r}") from exc
        edges.append((u, v))
    try:
        return build_graph(n, edges)
    except GraphStructureError as exc:
        raise FormatError(str(exc)) from exc


# -- labelings ---------------------------------------------------------------


def print_labeling(f: Labeling) -> str:
    lines = [f"kind {f.kind}"]
    if f.critical is not None:
        lines.append(f"critical {f.critical}")
    lines.extend(f"{v} {lab}" for v, lab in f.items())
    return "\n".join(lines) + "\n"


def parse_labeling(text: str) -> Labeling:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines or not lines[0].startswith("kind "):
        raise FormatError("labeling file must start with a 'kind' line")
    kind = lines[0].split(maxsplit=1)[1]
    if kind not in (BETA, ALPHA):
        raise FormatError(f"unknown labeling kind {kind!r}")
    critical = None
    body = lines[1:]
    if body and body[0].startswith("critical "):
        try:
            critical = int(body[0].split()[1])
        except (IndexError, ValueError) as exc:
            raise FormatError(f"bad critical line {body[0]!r}") from exc
        body = body[1:]
    assignment = {}
    for line in body:
        try:
            v, lab = map(int, line.split())
        except ValueError as exc:
            raise FormatError(f"bad labeling line {line!r}") from exc
        if v in assignment:
            raise FormatError(f"vertex {v} labeled twice")
        assignment[v] = lab
    try:
        return Labeling(assignment, kind, critical)
    except LabelingInputError as exc:
        raise FormatError(str(exc)) from exc


# -- matrices ----------------------------------------------------------------


def print_matrix(m: LabeledMatrix) -> str:
    header = f"{m.kind} {m.num_rows} {m.num_cols}"
    if m.kind == BIADJACENCY:
        header += f" {m.critical}"
    lines = [
        header,
        " ".join(str(lab) for lab in m.row_labels),
        " ".join(str(lab) for lab in m.col_labels),
    ]
    lines.extend("".join(str(x) for x in row) for row in m.grid)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> LabeledMatrix:
    lines = [line.rstrip("\n") for line in text.splitlines() if line.strip()]
    if len(lines) < 3:
        raise FormatError("matrix file too short")
    head = lines[0].split()
    try:
        if head[0] == ADJACENCY and len(head) == 3:
            kind, critical = ADJACENCY, None
        elif head[0] == BIADJACENCY and len(head) == 4:
            kind, critical = BIADJACENCY, int(head[3])
        else:
            raise ValueError
        rows, cols = int(head[1]), int(head[2])
    except ValueError:
        raise FormatError(f"bad matrix header {lines[0]!r}") from None
    try:
        row_labels = [int(x) for x in lines[1].split()]
        col_labels = [int(x) for x in lines[2].split()]
    except ValueError:
        raise FormatError("label lines must hold integers") from None
    if len(row_labels) != rows or len(col_labels) != cols:
        raise FormatError("label lines do not match declared dimensions")
    grid_lines = lines[3:]
    if len(grid_lines) != rows:
        raise FormatError(f"expected {rows} grid lines, found {len(grid_lines)}")
    grid = []
    for line in grid_lines:
        if len(line) != cols or any(ch not in "01" for ch in line):
            raise FormatError(f"bad grid line {line!r}")
        grid.append(tuple(int(ch) for ch in line))
    # file carries labels only; vertex ids are taken from the labels
    row_slots = tuple((lab, lab) for lab in row_labels)
    col_slots = tuple((lab, lab) for lab in col_labels)
    try:
        return LabeledMatrix(kind, tuple(grid), row_slots, col_slots, critical)
    except MatrixError as exc:
        raise FormatError(str(exc)) from exc


# -- shift moves -------------------------------------------------------------


def parse_moves(text: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    moves = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            src, dst = line.split("->")
            r, c = map(int, src.split())
            r2, c2 = map(int, dst.split())
        except ValueError as exc:
            raise FormatError(f"bad move line {line!r}") from exc
        moves.append(((r, c), (r2, c2)))
    return moves


def print_moves(moves: list[tuple[tuple[int, int], tuple[int, int]]]) -> str:
    return "".join(f"{r} {c} -> {r2} {c2}\n" for (r, c), (r2, c2) in moves)


# -- DOT export --------------------------------------------------------------


def export_dot(g: Graph, f: Labeling | None = None) -> str:
    """DOT text with label captions, ordered by vertex label then neighbor."""
    lines = ["graph G {"]
    if f is None:
        for v in g.vertices():
            lines.append(f"  v{v};")
        for u, v in g.sorted_edges():
            lines.append(f"  v{u} -- v{v};")
    else:
        order = sorted(g.vertices(), key=lambda v: f.assignment[v])
        for v in order:
            lines.append(f'  v{v} [label="{f.assignment[v]}"];')
        edges = sorted(
            (
                tuple(sorted((f.assignment[u], f.assignment[v]))),
                (u, v),
            )
            for u, v in g.edges
        )
        for (lo, hi), (u, v) in edges:
            a, b = (u, v) if f.assignment[u] == lo else (v, u)
            lines.append(f'  v{a} -- v{b} [label="{hi - lo}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
