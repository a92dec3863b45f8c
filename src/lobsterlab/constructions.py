"""Compositions of graceful and alpha-labeled graphs, certified.

Every operation literally assembles the block grid that justifies it (the
blocks are the parts' canonical matrices in one of the four orientations,
laid along the antidiagonal), converts the grid back to a labeled graph,
and re-verifies everything from scratch before issuing a Certificate.  No
shortcut edge arithmetic: if the grid isn't (completely) graceful, the
construction fails loudly.

Grids are assembled as sets of occupied cells (see `matrices`): a block is
placed by offsetting its ones, so assembly costs the number of edges, not
the grid's area.  Dense rows appear only when `formats.print_matrix` or
`LabeledMatrix.grid` renders them.

Copies are implicit in several compositions: reading a symmetric adjacency
grid as a biadjacency block splits a connected bipartite part into the two
components of its bipartite double cover, each isomorphic to the part.
That is why those operations insist on bipartite inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ConstructionError
from .graphs import Graph, bipartition, build_graph, connected_components, is_tree
from .canonical import rooted_isomorphism_map
from .labelings import Labeling, Verdict, verify_alpha, verify_beta
from .matrices import (
    ADJACENCY,
    BIADJACENCY,
    Cell,
    LabeledMatrix,
    canonical_adjacency,
    canonical_biadjacency,
    is_completely_graceful,
    is_graceful_grid,
    matrix_to_graph,
    transform,
)

CLAIM_BETA = "beta"
CLAIM_ALPHA = "alpha"
CLAIM_COMPLETE_ALPHA = "complete-alpha"

Part = tuple[Graph, Labeling]


@dataclass(frozen=True)
class Certificate:
    """A verified construction: what was built, from what, and the labeling.

    vertex_maps[i] sends part i's vertex ids into the result; copy_maps[i]
    does the same for part i's implicit copy when the construction makes
    one (empty otherwise).  Result ids coincide with result labels at build
    time, which keeps the matrices canonical.
    """

    construction: str
    claim: str
    result_graph: Graph
    result_labeling: Labeling
    result_matrix: LabeledMatrix
    critical: int | None
    vertex_maps: tuple[dict[int, int], ...]
    copy_maps: tuple[dict[int, int], ...]
    details: dict = field(default_factory=dict)


def verify_certificate(cert: Certificate) -> Verdict:
    """Re-run the claimed verification on the bundled labeling."""
    g, f = cert.result_graph, cert.result_labeling
    if cert.claim == CLAIM_BETA:
        verdict = verify_beta(g, f)
        if verdict and not is_completely_graceful(cert.result_matrix):
            return Verdict(False, "grid", "matrix is not completely graceful")
        return verdict
    bound = cert.details.get("max_label", g.num_edges)
    verdict = verify_alpha(g, f, bound)
    if not verdict:
        return verdict
    if verdict.critical != cert.critical:
        return Verdict(False, "critical-mismatch", "certificate critical is wrong")
    if cert.claim == CLAIM_COMPLETE_ALPHA:
        if bound != g.num_edges or not f.complete:
            return Verdict(False, "not-complete", "labeling is not complete")
        if not is_completely_graceful(cert.result_matrix):
            return Verdict(False, "grid", "matrix is not completely graceful")
    else:
        if not is_graceful_grid(cert.result_matrix):
            return Verdict(False, "grid", "matrix is not graceful")
    return verdict


def _certify(
    construction: str,
    claim: str,
    matrix: LabeledMatrix,
    parts: Sequence[Graph],
    vertex_maps: Sequence[Mapping[int, int]],
    copy_maps: Sequence[Mapping[int, int]] | None = None,
    details: dict | None = None,
) -> Certificate:
    """The one place a Certificate is issued.

    The result graph and labeling are read off the grid and re-verified for
    the claim; then every vertex map (and copy map) must send its part
    injectively into the result with each part edge present.  Beta claims
    carry no critical value.
    """
    graph, labeling = matrix_to_graph(matrix)
    cert = Certificate(
        construction,
        claim,
        graph,
        labeling,
        matrix,
        None if claim == CLAIM_BETA else labeling.critical,
        tuple(dict(m) for m in vertex_maps),
        tuple(dict(m) for m in (copy_maps or [{} for _ in parts])),
        dict(details or {}),
    )
    verdict = verify_certificate(cert)
    if not verdict:
        raise ConstructionError(f"{construction}: result failed to verify: {verdict.reason}")
    for part, vmap, cmap in zip(parts, cert.vertex_maps, cert.copy_maps):
        _check_embedding(construction, part, vmap, graph)
        if cmap:
            _check_embedding(construction, part, cmap, graph)
    return cert


def _check_embedding(construction: str, part: Graph, vmap: Mapping[int, int], result: Graph) -> None:
    if any(v not in vmap for v in part.vertices()):
        raise ConstructionError(f"{construction}: a vertex map misses a part vertex")
    if len(set(vmap.values())) != len(vmap):
        raise ConstructionError(f"{construction}: a vertex map is not injective")
    for u, v in part.edges:
        if not result.has_edge(vmap[u], vmap[v]):
            raise ConstructionError(
                f"{construction}: part edge ({u}, {v}) missing in the result"
            )


class _GridBuilder:
    """The occupied cells of a grid under assembly; no cell is set twice."""

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self.ones: set[Cell] = set()

    def set(self, i: int, j: int) -> None:
        if (i, j) in self.ones:
            raise ConstructionError(f"grid cell ({i}, {j}) assembled twice")
        self.ones.add((i, j))

    def place(self, cells: Iterable[Cell], r0: int, c0: int) -> None:
        for i, j in sorted(cells):
            self.set(r0 + i, c0 + j)

    def to_biadjacency(self, critical: int) -> LabeledMatrix:
        row_slots = tuple((i, i) for i in range(self.rows))
        col_slots = tuple((self.rows + j, self.rows + j) for j in range(self.cols))
        return LabeledMatrix(
            BIADJACENCY, frozenset(self.ones), row_slots, col_slots, critical
        )

    def to_adjacency(self) -> LabeledMatrix:
        slots = tuple((i, i) for i in range(self.rows))
        return LabeledMatrix(ADJACENCY, frozenset(self.ones), slots, slots)


def _require_verified(
    construction: str, parts: Sequence[Part], alpha: bool, complete: bool
) -> list[Verdict]:
    verdicts = []
    for idx, (g, f) in enumerate(parts):
        verdict = verify_alpha(g, f) if alpha else verify_beta(g, f)
        if not verdict:
            raise ConstructionError(
                f"{construction}: part {idx} failed verification: {verdict.reason}"
            )
        if complete and (g.num_vertices != g.num_edges + 1 or not f.complete):
            raise ConstructionError(
                f"{construction}: part {idx} is not completely graceful "
                "(needs n = m + 1 and a bijective labeling)"
            )
        verdicts.append(verdict)
    return verdicts


def _require_bipartite(construction: str, parts: Sequence[Part]) -> None:
    for idx, (g, _) in enumerate(parts):
        if bipartition(g) is None:
            raise ConstructionError(
                f"{construction}: part {idx} is not bipartite; the implicit "
                "copy would not be a disjoint copy"
            )


# -- doubling -----------------------------------------------------------------


def double_matrix(g: Graph, f: Labeling, at_label: int) -> LabeledMatrix:
    """Biadjacency of the double: the padded adjacency grid plus one corner 1.

    Rows carry labels 0..m (one copy's worth of slots), columns m+1..2m+1;
    the extra 1 at (at_label, at_label) joins the two copies.
    """
    if at_label not in set(f.assignment.values()):
        raise ConstructionError(f"double: label {at_label} is unused")
    adj = canonical_adjacency(g, f)
    m = g.num_edges
    row_slots = tuple((i, i) for i in range(m + 1))
    col_slots = tuple((m + 1 + j, m + 1 + j) for j in range(m + 1))
    return LabeledMatrix(
        BIADJACENCY, adj.ones | {(at_label, at_label)}, row_slots, col_slots, m
    )


def _double_cover_maps(
    g: Graph, f: Labeling, anchor_label: int, row_pos, col_pos
) -> tuple[dict[int, int], dict[int, int]]:
    """Original/copy maps when the padded adjacency grid acts as biadjacency.

    The original is the cover component containing the row slot of the
    anchor label; per connected component the side is fixed by its smallest
    vertex when the anchor lies elsewhere.
    """
    colors = _part_colors(g)
    comps = connected_components(g)
    comp_of = {v: comp_id for comp_id, comp in enumerate(comps) for v in comp}
    anchor_vertex = f.vertex_with_label(anchor_label)
    anchor_side = {
        comp_id: colors[anchor_vertex if comp_id == comp_of[anchor_vertex] else comp[0]]
        for comp_id, comp in enumerate(comps)
    }
    orig: dict[int, int] = {}
    copy: dict[int, int] = {}
    for v, lab in f.assignment.items():
        on_row_side = colors[v] == anchor_side[comp_of[v]]
        if on_row_side:
            orig[v] = row_pos(lab)
            copy[v] = col_pos(lab)
        else:
            orig[v] = col_pos(lab)
            copy[v] = row_pos(lab)
    return orig, copy


def double(part: Part, at_label: int) -> Certificate:
    """Join a disjoint copy to the part through its at_label vertex.

    The result is the doubled padded graph with a complete alpha labeling
    whose critical value is the part's edge count.
    """
    g, f = part
    _require_verified("double", [part], alpha=False, complete=False)
    _require_bipartite("double", [part])
    m = g.num_edges
    matrix = double_matrix(g, f, at_label)
    orig, copy = _double_cover_maps(
        g, f, at_label, row_pos=lambda lab: lab, col_pos=lambda lab: m + 1 + lab
    )
    cert = _certify(
        "double",
        CLAIM_COMPLETE_ALPHA,
        matrix,
        [g],
        [orig],
        [copy],
        {"at_label": at_label},
    )
    if cert.result_graph.num_vertices != 2 * (m + 1):
        raise ConstructionError("double: vertex count is off")
    if cert.result_graph.num_edges != 2 * m + 1:
        raise ConstructionError("double: edge count is off")
    if cert.critical != m:
        raise ConstructionError("double: critical value is off")
    if not cert.result_graph.has_edge(orig[f.vertex_with_label(at_label)],
                                      copy[f.vertex_with_label(at_label)]):
        raise ConstructionError("double: the joining edge is missing")
    return cert


# -- disjoint unions and chains ------------------------------------------------


def _alpha_bound(g: Graph, f: Labeling) -> int:
    return max(g.num_edges, f.max_label)


def disjoint_union_alpha(parts: Sequence[Part]) -> Certificate:
    """Antidiagonal stack of the parts' biadjacency grids, no joins.

    The union of r >= 2 parts has more vertices than edge labels, so its
    labeling lives in the widened range 0..(sum of edges)+r-1; the grid is
    graceful and the straddle condition holds at k = sum of criticals + r-1.
    """
    if not parts:
        raise ConstructionError("disjoint-union: needs at least one part")
    mats = []
    for idx, (g, f) in enumerate(parts):
        bound = _alpha_bound(g, f)
        verdict = verify_alpha(g, f, bound)
        if not verdict:
            raise ConstructionError(
                f"disjoint-union: part {idx} failed verification: {verdict.reason}"
            )
        mats.append(canonical_biadjacency(g, f, bound))
    heights = [m.num_rows for m in mats]
    widths = [m.num_cols for m in mats]
    total_r, total_c = sum(heights), sum(widths)
    builder = _GridBuilder(total_r, total_c)
    row_offsets, col_offsets = _antidiagonal_offsets(heights, widths)
    for mat, r0, c0 in zip(mats, row_offsets, col_offsets):
        builder.place(mat.ones, r0, c0)
    critical = total_r - 1
    vertex_maps = [
        _biadjacency_part_map(mat, r0, c0, total_r)
        for mat, r0, c0 in zip(mats, row_offsets, col_offsets)
    ]
    cert = _certify(
        "disjoint-union",
        CLAIM_ALPHA,
        builder.to_biadjacency(critical),
        [g for g, _ in parts],
        vertex_maps,
        details={"max_label": total_r + total_c - 1},
    )
    expected_k = sum(m.critical for m in mats) + len(parts) - 1
    if cert.critical != expected_k:
        raise ConstructionError("disjoint-union: critical value is off")
    return cert


def _antidiagonal_offsets(
    heights: Sequence[int], widths: Sequence[int]
) -> tuple[list[int], list[int]]:
    row_offsets = []
    acc = 0
    for h in heights:
        row_offsets.append(acc)
        acc += h
    col_offsets = []
    for i in range(len(widths)):
        col_offsets.append(sum(widths[i + 1 :]))
    return row_offsets, col_offsets


def _biadjacency_part_map(
    mat: LabeledMatrix, r0: int, c0: int, total_rows: int
) -> dict[int, int]:
    """Part vertex -> result id for a canonically placed biadjacency block."""
    out: dict[int, int] = {}
    for i, (vid, _) in enumerate(mat.row_slots):
        out[vid] = r0 + i
    for j, (vid, _) in enumerate(mat.col_slots):
        out[vid] = total_rows + c0 + j
    return out


def chain_km_matrix(mats: Sequence[LabeledMatrix]) -> LabeledMatrix:
    """Chain of completely graceful biadjacency blocks joined critical-to-max.

    Block i's last row (its critical vertex) meets block i+1's last column
    (its maximum vertex): one extra 1 per consecutive pair.
    """
    heights = [m.num_rows for m in mats]
    widths = [m.num_cols for m in mats]
    builder = _GridBuilder(sum(heights), sum(widths))
    row_offsets, col_offsets = _antidiagonal_offsets(heights, widths)
    for mat, r0, c0 in zip(mats, row_offsets, col_offsets):
        builder.place(mat.ones, r0, c0)
    for i in range(len(mats) - 1):
        builder.set(
            row_offsets[i] + heights[i] - 1,
            col_offsets[i + 1] + widths[i + 1] - 1,
        )
    return builder.to_biadjacency(sum(heights) - 1)


def chain_join_km(parts: Sequence[Part]) -> Certificate:
    """Join each part's critical vertex to the next part's maximum vertex."""
    if not parts:
        raise ConstructionError("chain-km: needs at least one part")
    verdicts = _require_verified("chain-km", parts, alpha=True, complete=True)
    mats = [canonical_biadjacency(g, f) for g, f in parts]
    matrix = chain_km_matrix(mats)
    heights = [m.num_rows for m in mats]
    widths = [m.num_cols for m in mats]
    row_offsets, col_offsets = _antidiagonal_offsets(heights, widths)
    vertex_maps = [
        _biadjacency_part_map(mat, r0, c0, matrix.num_rows)
        for mat, r0, c0 in zip(mats, row_offsets, col_offsets)
    ]
    cert = _certify(
        "chain-km", CLAIM_COMPLETE_ALPHA, matrix, [g for g, _ in parts], vertex_maps
    )
    expected_k = sum(v.critical for v in verdicts) + len(parts) - 1
    if cert.critical != expected_k:
        raise ConstructionError("chain-km: critical value is off")
    if cert.result_graph.num_edges != sum(g.num_edges for g, _ in parts) + len(parts) - 1:
        raise ConstructionError("chain-km: edge count is off")
    return cert


MODE_ALTERNATING = "alternating"
MODE_ALL_M = "all_m"


def chain_join_mm(parts: Sequence[Part], mode: str = MODE_ALTERNATING) -> Certificate:
    """Chain parts by their maximum vertices.

    alternating: max-max joins at odd seams and critical-critical at even
    seams (odd-position blocks enter transposed).  all_m: every seam joins
    the maxima, which needs equal label spreads m-k across each even seam.
    The statement is implemented as given; the figure and the prose disagree
    on the all_m seams and the prose wins here.
    """
    if mode not in (MODE_ALTERNATING, MODE_ALL_M):
        raise ConstructionError(f"chain-mm: unknown mode {mode!r}")
    if not parts:
        raise ConstructionError("chain-mm: needs at least one part")
    verdicts = _require_verified("chain-mm", parts, alpha=True, complete=True)
    criticals = [v.critical for v in verdicts]
    sizes = [g.num_edges for g, _ in parts]
    if mode == MODE_ALL_M:
        for i in range(2, len(parts)):  # 1-based even seams i, i+1
            if i % 2 == 0 and sizes[i - 1] - criticals[i - 1] != sizes[i] - criticals[i]:
                raise ConstructionError(
                    f"chain-mm: all_m needs equal spreads at seam {i}; "
                    f"got {sizes[i - 1] - criticals[i - 1]} and {sizes[i] - criticals[i]}"
                )
    base_mats = [canonical_biadjacency(g, f) for g, f in parts]
    mats = [
        transform(m, "T") if i % 2 == 0 else m  # 0-based: odd positions 1-based
        for i, m in enumerate(base_mats)
    ]
    heights = [m.num_rows for m in mats]
    widths = [m.num_cols for m in mats]
    builder = _GridBuilder(sum(heights), sum(widths))
    row_offsets, col_offsets = _antidiagonal_offsets(heights, widths)
    for mat, r0, c0 in zip(mats, row_offsets, col_offsets):
        builder.place(mat.ones, r0, c0)
    for seam in range(1, len(parts)):  # 1-based seam index
        if mode == MODE_ALTERNATING or seam % 2 == 1:
            a, b = seam - 1, seam  # block a's last row, block b's last col
        else:
            a, b = seam, seam - 1
        builder.set(
            row_offsets[a] + heights[a] - 1,
            col_offsets[b] + widths[b] - 1,
        )
    matrix = builder.to_biadjacency(sum(heights) - 1)
    vertex_maps = [
        _biadjacency_part_map(mat, r0, c0, matrix.num_rows)
        for mat, r0, c0 in zip(mats, row_offsets, col_offsets)
    ]
    cert = _certify(
        "chain-mm",
        CLAIM_COMPLETE_ALPHA,
        matrix,
        [g for g, _ in parts],
        vertex_maps,
        details={"mode": mode},
    )
    # transposed blocks contribute the complement critical m - k - 1; with
    # symmetric spreads (m - k = k + 1) this collapses to sum(k) + r - 1
    effective = [
        sizes[i] - criticals[i] - 1 if i % 2 == 0 else criticals[i]
        for i in range(len(parts))
    ]
    if cert.critical != sum(effective) + len(parts) - 1:
        raise ConstructionError("chain-mm: critical value is off")
    return cert


# -- copy chains ----------------------------------------------------------------


def copy_chain_matrix(
    chain: LabeledMatrix, tail: LabeledMatrix
) -> LabeledMatrix:
    """Adjacency grid embedding a biadjacency chain around a tail block.

    The chain's rows, the tail adjacency, and the chain's columns stack into
    one symmetric grid; the chain's critical vertex meets the tail's maximum.
    """
    rh, ch = chain.num_rows, chain.num_cols
    nt = tail.num_rows
    n = rh + nt + ch
    builder = _GridBuilder(n, n)
    builder.place(chain.ones, 0, rh + nt)
    builder.place(((j, i) for i, j in chain.ones), rh + nt, 0)
    builder.place(tail.ones, rh, rh)
    builder.set(rh - 1, rh + nt - 1)
    builder.set(rh + nt - 1, rh - 1)
    return builder.to_adjacency()


def chain_with_copies(parts: Sequence[Part]) -> Certificate:
    """Chain each part against a fresh copy of itself, ending at the last part.

    Parts 1..r-1 are doubled at their maxima; the doubles are chained
    critical-to-max and the final part closes the chain as an adjacency
    block, giving a completely graceful tree-shaped chain.
    """
    if len(parts) < 2:
        raise ConstructionError("copy-chain: needs at least two parts")
    _require_verified("copy-chain", parts, alpha=False, complete=True)
    _require_bipartite("copy-chain", parts)
    head = parts[:-1]
    doubles = [double_matrix(g, f, g.num_edges) for g, f in head]
    chain = chain_km_matrix(doubles)
    tail_g, tail_f = parts[-1]
    tail = canonical_adjacency(tail_g, tail_f)
    matrix = copy_chain_matrix(chain, tail)
    heights = [m.num_rows for m in doubles]
    widths = [m.num_cols for m in doubles]
    row_offsets, col_offsets = _antidiagonal_offsets(heights, widths)
    rh = chain.num_rows
    nt = tail.num_rows
    vertex_maps = []
    copy_maps = []
    for (g, f), r0, c0 in zip(head, row_offsets, col_offsets):
        m = g.num_edges
        orig, copy = _double_cover_maps(
            g,
            f,
            m,
            row_pos=lambda lab, r0=r0: r0 + lab,
            col_pos=lambda lab, c0=c0: rh + nt + c0 + lab,
        )
        vertex_maps.append(orig)
        copy_maps.append(copy)
    vertex_maps.append({v: rh + lab for v, lab in tail_f.assignment.items()})
    copy_maps.append({})
    cert = _certify(
        "copy-chain", CLAIM_BETA, matrix, [g for g, _ in parts], vertex_maps, copy_maps
    )
    return cert


# -- star join -------------------------------------------------------------------


def star_join(parts: Sequence[Part]) -> Certificate:
    """A new hub vertex adjacent to every part's maximum and every copy's.

    Parts 1..r-1 contribute themselves plus a copy (one rotated adjacency
    block used as a cover biadjacency); the last part sits alone in the
    middle; the hub takes the very last row and column, hence the maximum
    label.  All parts must share one edge count.
    """
    if not parts:
        raise ConstructionError("star-join: needs at least one part")
    _require_verified("star-join", parts, alpha=False, complete=True)
    _require_bipartite("star-join", parts)
    sizes = {g.num_edges for g, _ in parts}
    if len(sizes) != 1:
        raise ConstructionError(
            f"star-join: parts must share one edge count, got {sorted(sizes)}"
        )
    m = sizes.pop()
    r = len(parts)
    span = m + 1
    n = (2 * r - 1) * span + 1
    builder = _GridBuilder(n, n)

    def rotated(g: Graph, f: Labeling) -> list[Cell]:
        return [(m - i, m - j) for i, j in canonical_adjacency(g, f).ones]

    hub = n - 1
    vertex_maps: list[dict[int, int]] = []
    copy_maps: list[dict[int, int]] = []
    for i, (g, f) in enumerate(parts[:-1], start=1):
        block = rotated(g, f)
        r0 = (i - 1) * span
        c0 = n - 1 - i * span
        builder.place(block, r0, c0)
        builder.place(block, c0, r0)
        orig, copy = _double_cover_maps(
            g,
            f,
            m,
            row_pos=lambda lab, r0=r0: r0 + (m - lab),
            col_pos=lambda lab, c0=c0: c0 + (m - lab),
        )
        vertex_maps.append(orig)
        copy_maps.append(copy)
        builder.set(r0, hub)
        builder.set(hub, r0)
        builder.set(c0, hub)
        builder.set(hub, c0)
    g_last, f_last = parts[-1]
    mid = (r - 1) * span
    builder.place(rotated(g_last, f_last), mid, mid)
    vertex_maps.append({v: mid + (m - lab) for v, lab in f_last.assignment.items()})
    copy_maps.append({})
    builder.set(mid, hub)
    builder.set(hub, mid)
    cert = _certify(
        "star-join",
        CLAIM_BETA,
        builder.to_adjacency(),
        [g for g, _ in parts],
        vertex_maps,
        copy_maps,
        details={"hub": hub},
    )
    if cert.result_labeling.assignment[hub] != n - 1:
        raise ConstructionError("star-join: hub did not receive the maximum label")
    if cert.result_graph.num_edges != (2 * r - 1) * m + 2 * r - 1:
        raise ConstructionError("star-join: edge count is off")
    return cert


# -- attachment at every vertex ---------------------------------------------------


def attach_at_vertices(
    h_part: Part, parts: Sequence[Part], relaxed: bool = False
) -> Certificate:
    """Hang a tree at every vertex of a completely graceful carrier graph.

    Part i merges its maximum vertex with the carrier's label-i vertex.
    Parts i and r-i must be isomorphic rooted at their maxima (each pair
    shares one grid, read as a cover).  The strict mode also wants equal
    edge counts; the relaxed mode instead requires every carrier edge
    (i, j) to satisfy r - i - j in {0, 1, 2}, and is post-verified only.
    """
    hg, hf = h_part
    _require_verified("attach", [h_part], alpha=False, complete=True)
    _require_verified("attach", parts, alpha=False, complete=True)
    r = hg.num_vertices - 1
    if len(parts) != r + 1:
        raise ConstructionError(
            f"attach: carrier has {r + 1} vertices but {len(parts)} parts given"
        )
    for idx, (g, _) in enumerate(parts):
        if not is_tree(g):
            raise ConstructionError(f"attach: part {idx} must be a tree")
    sizes = [g.num_edges for g, _ in parts]
    if not relaxed and len(set(sizes)) != 1:
        raise ConstructionError(
            f"attach: strict mode needs equal edge counts, got {sizes}"
        )
    if sizes != sizes[::-1]:
        raise ConstructionError("attach: edge counts must be palindromic")
    if relaxed:
        for u, v in hg.edges:
            i, j = hf.assignment[u], hf.assignment[v]
            if not 0 <= r - i - j <= 2:
                raise ConstructionError(
                    f"attach: relaxed mode forbids the carrier edge with labels "
                    f"({i}, {j})"
                )
    isos: list[dict[int, int]] = []
    for i, (g, f) in enumerate(parts):
        c = min(i, r - i)
        gc, fc = parts[c]
        root = f.vertex_with_label(g.num_edges)
        root_c = fc.vertex_with_label(gc.num_edges)
        mapping = rooted_isomorphism_map(g, root, gc, root_c)
        if mapping is None:
            raise ConstructionError(
                f"attach: parts {c} and {i} are not isomorphic rooted at their maxima"
            )
        isos.append(mapping)

    offsets = []
    acc = 0
    for s in sizes:
        offsets.append(acc)
        acc += s + 1
    n = acc
    builder = _GridBuilder(n, n)
    for i in range(r + 1):
        c = min(i, r - i)
        gc, fc = parts[c]
        builder.place(canonical_adjacency(gc, fc).ones, offsets[i], offsets[r - i])
    for u, v in hg.edges:
        i, j = hf.assignment[u], hf.assignment[v]
        builder.set(offsets[i] + sizes[i], offsets[j] + sizes[j])
        builder.set(offsets[j] + sizes[j], offsets[i] + sizes[i])

    vertex_maps = []
    for i, (g, f) in enumerate(parts):
        c = min(i, r - i)
        gc, fc = parts[c]
        mc = gc.num_edges
        if i == r - i:
            vertex_maps.append(
                {v: offsets[i] + fc.assignment[isos[i][v]] for v in g.vertices()}
            )
            continue
        colors = _part_colors(gc)
        max_color = colors[fc.vertex_with_label(mc)]
        vmap = {}
        for v in g.vertices():
            lab = fc.assignment[isos[i][v]]
            w = fc.vertex_with_label(lab)
            if colors[w] == max_color:
                vmap[v] = offsets[i] + lab
            else:
                vmap[v] = offsets[r - i] + lab
        vertex_maps.append(vmap)
    h_map = {
        v: offsets[hf.assignment[v]] + sizes[hf.assignment[v]] for v in hg.vertices()
    }
    cert = _certify(
        "attach",
        CLAIM_BETA,
        builder.to_adjacency(),
        [g for g, _ in parts] + [hg],
        vertex_maps + [h_map],
        details={"relaxed": relaxed},
    )
    expected_edges = sum(sizes) + hg.num_edges
    if cert.result_graph.num_edges != expected_edges:
        raise ConstructionError("attach: edge count is off")
    return cert


def _part_colors(g: Graph) -> dict[int, int]:
    parts = bipartition(g)
    if parts is None:
        raise ConstructionError("part is not bipartite")
    part0, _ = parts
    return {v: 0 if v in part0 else 1 for v in g.vertices()}


# -- merge-join chains -------------------------------------------------------------


def merge_chain_matrix(
    head: LabeledMatrix, doubles: Sequence[LabeledMatrix]
) -> tuple[LabeledMatrix, list[tuple[list[int], list[int]]]]:
    """Adjacency grid of the merged chain; also the slot positions per part.

    head is part 1's canonical adjacency; doubles[i] is part i+2's doubled
    biadjacency.  Segments run down the grid: parts r..2 on one flank, part
    1's rotated block in the middle, parts 2..r on the other, overlapping by
    one row wherever two parts share a merged vertex.

    Returns (matrix, positions) with positions[i] = (row_slot_pos,
    col_slot_pos) giving the global position of each part-grid slot; for
    part 1 both lists coincide.
    """
    r = len(doubles) + 1
    left_len = {}
    right_len = {}
    for i in range(2, r + 1):
        d = doubles[i - 2]
        left_len[i] = d.num_rows if i % 2 == 0 else d.num_cols
        right_len[i] = d.num_cols if i % 2 == 0 else d.num_rows
    center_len = head.num_rows

    left_start = {}
    pos = 0
    for i in range(r, 1, -1):
        left_start[i] = pos
        pos += left_len[i]
        if (i - 1) % 2 == 1:  # merge with the next segment below
            pos -= 1
    center_start = pos
    pos += center_len
    right_start = {}
    for i in range(2, r + 1):
        right_start[i] = pos
        pos += right_len[i]
        if i % 2 == 0 and i + 1 <= r:
            pos -= 1
    n = pos

    def row_slot_pos(i: int):
        d = doubles[i - 2]
        m_rows = d.num_rows
        if i % 2 == 0:
            return [left_start[i] + t for t in range(m_rows)]
        return [right_start[i] + (m_rows - 1 - t) for t in range(m_rows)]

    def col_slot_pos(i: int):
        d = doubles[i - 2]
        m_cols = d.num_cols
        if i % 2 == 0:
            return [right_start[i] + t for t in range(m_cols)]
        return [left_start[i] + (m_cols - 1 - t) for t in range(m_cols)]

    builder = _GridBuilder(n, n)
    center_rows = [center_start + (center_len - 1 - t) for t in range(center_len)]
    for t, u in sorted(head.ones):
        builder.set(center_rows[t], center_rows[u])
    positions = [(center_rows, center_rows)]
    for i in range(2, r + 1):
        rows = row_slot_pos(i)
        cols = col_slot_pos(i)
        for t, u in sorted(doubles[i - 2].ones):
            builder.set(rows[t], cols[u])
            builder.set(cols[u], rows[t])
        positions.append((rows, cols))
    return builder.to_adjacency(), positions


def merge_join_chain(parts: Sequence[Part]) -> Certificate:
    """Merge consecutive parts' maxima into one spine of glued trees.

    Part 1's maximum merges with part 2's; each further part joins through
    its doubled copy, the copy's maximum merging into the next part's.  The
    spine edges are the doubles' joining edges; no new edge is added beyond
    them, so the result stays completely graceful.
    """
    if len(parts) < 2:
        raise ConstructionError("merge-chain: needs at least two parts")
    _require_verified("merge-chain", parts, alpha=False, complete=True)
    _require_bipartite("merge-chain", parts)
    g1, f1 = parts[0]
    head_adj = canonical_adjacency(g1, f1)
    doubles = [double_matrix(g, f, g.num_edges) for g, f in parts[1:]]
    matrix, positions = merge_chain_matrix(head_adj, doubles)
    center_rows, _ = positions[0]
    vertex_maps: list[dict[int, int]] = [
        {v: center_rows[lab] for v, lab in f1.assignment.items()}
    ]
    copy_maps: list[dict[int, int]] = [{}]
    for (g, f), (rows, cols) in zip(parts[1:], positions[1:]):
        orig, copy = _double_cover_maps(
            g,
            f,
            g.num_edges,
            row_pos=lambda lab, rows=rows: rows[lab],
            col_pos=lambda lab, cols=cols: cols[lab],
        )
        vertex_maps.append(orig)
        copy_maps.append(copy)
    cert = _certify(
        "merge-chain", CLAIM_BETA, matrix, [g for g, _ in parts], vertex_maps, copy_maps
    )
    return cert


# -- gluing and pendant insertion ---------------------------------------------------


def glue(a: Part, b: Part) -> Graph:
    """Merge the two parts' maximum-labeled vertices (structure only)."""
    ga, fa = a
    gb, fb = b
    if not fa.assignment or not fb.assignment:
        raise ConstructionError("glue: empty labeling")
    va = fa.vertex_with_label(fa.max_label)
    vb = fb.vertex_with_label(fb.max_label)
    offset = ga.num_vertices

    def shift(v: int) -> int:
        if v == vb:
            return va
        return offset + v - (1 if v > vb else 0)

    edges = list(ga.edges) + [(shift(u), shift(v)) for u, v in gb.edges]
    return build_graph(ga.num_vertices + gb.num_vertices - 1, edges)


def insert_pendant_row(
    m: LabeledMatrix, after_row_label: int | None, target_col_label: int
) -> LabeledMatrix:
    """Insert one row holding a single 1: a new pendant on a column vertex.

    after_row_label None (or -1) inserts at the top, which is always
    diagonal-safe when the target is the last column.  Labels are re-derived
    from positions; the result must stay completely graceful.
    """
    if m.kind != BIADJACENCY:
        raise ConstructionError("insert-pendant-row: needs a biadjacency matrix")
    if after_row_label is None or after_row_label == -1:
        at = 0
    else:
        at = m.row_index_of_label(after_row_label) + 1
    col = m.col_index_of_label(target_col_label)
    new_id = m.num_rows + m.num_cols
    ones = frozenset((i + (i >= at), j) for i, j in m.ones) | {(at, col)}
    ids = [vid for vid, _ in m.row_slots]
    ids.insert(at, new_id)
    rows = len(ids)
    row_slots = tuple((vid, i) for i, vid in enumerate(ids))
    col_slots = tuple(
        (vid, rows + j) for j, (vid, _) in enumerate(m.col_slots)
    )
    out = LabeledMatrix(BIADJACENCY, ones, row_slots, col_slots, m.critical + 1)
    verdict = is_completely_graceful(out)
    if not verdict:
        raise ConstructionError(
            f"insert-pendant-row: diagonal {verdict.first_violation} violated"
        )
    return out


def insert_pendant_column(
    m: LabeledMatrix, after_col_label: int | None, target_row_label: int
) -> LabeledMatrix:
    """Insert one column holding a single 1: a new pendant on a row vertex."""
    if m.kind != BIADJACENCY:
        raise ConstructionError("insert-pendant-column: needs a biadjacency matrix")
    if after_col_label is None or after_col_label == -1:
        at = 0
    else:
        at = m.col_index_of_label(after_col_label) + 1
    row = m.row_index_of_label(target_row_label)
    new_id = m.num_rows + m.num_cols
    ones = frozenset((i, j + (j >= at)) for i, j in m.ones) | {(row, at)}
    ids = [vid for vid, _ in m.col_slots]
    ids.insert(at, new_id)
    rows = m.num_rows
    row_slots = tuple((vid, i) for i, (vid, _) in enumerate(m.row_slots))
    col_slots = tuple((vid, rows + j) for j, vid in enumerate(ids))
    out = LabeledMatrix(BIADJACENCY, ones, row_slots, col_slots, m.critical)
    verdict = is_completely_graceful(out)
    if not verdict:
        raise ConstructionError(
            f"insert-pendant-column: diagonal {verdict.first_violation} violated"
        )
    return out


def insert_pendant_pair(m: LabeledMatrix, target_label: int) -> LabeledMatrix:
    """Adjacency version: a new first row and column carrying a mirrored 1.

    The new vertex takes label 0 and hangs off the target vertex; inserting
    at the corner keeps every old diagonal intact and fills the two new
    extreme diagonals.
    """
    if m.kind != ADJACENCY:
        raise ConstructionError("insert-pendant-pair: needs an adjacency matrix")
    target = m.row_index_of_label(target_label)
    n = m.num_rows
    new_id = n
    ones = frozenset((i + 1, j + 1) for i, j in m.ones)
    ones |= {(0, target + 1), (target + 1, 0)}
    ids = [new_id] + [vid for vid, _ in m.row_slots]
    slots = tuple((vid, i) for i, vid in enumerate(ids))
    out = LabeledMatrix(ADJACENCY, ones, slots, slots)
    verdict = is_completely_graceful(out)
    if not verdict:
        raise ConstructionError(
            f"insert-pendant-pair: diagonal {verdict.first_violation} violated"
        )
    return out
