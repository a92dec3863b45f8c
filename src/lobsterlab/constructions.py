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

A block enters a grid only through `_GridBuilder.place`, which returns
where the block's slots landed, as a map from its slot ids to result ids;
the assemblers (`_antidiagonal`, the copy chain, the merge chain) hand
those maps on.  Every vertex and copy map of the propositions here, and of
the balanced lobster route, is read from a landing map (`double`, which
places nothing, keeps the identity), so `place` is the only code that knows
which part vertex becomes which result vertex.  The linked and similar
lobster routes certify through a tree isomorphism instead.

Copies are implicit in several compositions: reading a symmetric adjacency
grid as a biadjacency block splits a connected bipartite part into the two
components of its bipartite double cover, each isomorphic to the part.
That is why those operations insist on bipartite inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
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
    """The occupied cells of a grid under assembly; no cell is set twice.

    A square adjacency grid (cols None) gives row i and column i the result
    id i; a biadjacency grid numbers its columns after its rows, as
    to_biadjacency does.  place is the one way a block enters a grid, and
    the map it returns is the only record of where the block's vertices went.
    """

    def __init__(self, rows: int, cols: int | None = None) -> None:
        self.rows = rows
        self.cols = rows if cols is None else cols
        self.col_ids = 0 if cols is None else rows
        self.ones: set[Cell] = set()

    def set(self, i: int, j: int) -> None:
        if (i, j) in self.ones:
            raise ConstructionError(f"grid cell ({i}, {j}) assembled twice")
        self.ones.add((i, j))

    def place(
        self, block: LabeledMatrix, r0: int, c0: int, rotated: bool = False, mirror: bool = False
    ) -> dict[int, int]:
        """Set block's ones with its first row on r0 and its first column on
        c0 (its last ones, when turned 180 degrees); return where its slots
        landed, as slot id -> result id.

        mirror also sets each transposed cell, for a biadjacency block read
        into an adjacency grid.
        """
        rows = [r0 + i for i in range(block.num_rows)]
        cols = [c0 + j for j in range(block.num_cols)]
        if rotated:
            rows.reverse()
            cols.reverse()
        for t, u in sorted(block.ones):
            self.set(rows[t], cols[u])
            if mirror:
                self.set(cols[u], rows[t])
        where = {vid: rows[i] for i, (vid, _) in enumerate(block.row_slots)}
        where.update(
            (vid, self.col_ids + cols[j]) for j, (vid, _) in enumerate(block.col_slots)
        )
        return where

    def to_biadjacency(self) -> LabeledMatrix:
        """The grid with the last row's label as its critical value, or 0
        when it has no rows (a transposed K1), as verify_alpha reads K1."""
        critical = max(self.rows - 1, 0)
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


def _require_bipartite(construction: str, parts: Sequence[Part]) -> list[dict[int, int]]:
    """Each part's 2-colouring as vertex -> side 0 or 1 (graphs.bipartition)."""
    colors = []
    for idx, (g, _) in enumerate(parts):
        sides = bipartition(g)
        if sides is None:
            raise ConstructionError(
                f"{construction}: part {idx} is not bipartite; the implicit "
                "copy would not be a disjoint copy"
            )
        colors.append({v: 0 if v in sides[0] else 1 for v in g.vertices()})
    return colors


# -- doubling -----------------------------------------------------------------


def double_matrix(g: Graph, f: Labeling, at_label: int) -> LabeledMatrix:
    """Biadjacency of the double: the part's cover block plus one corner 1.

    The extra 1 at (at_label, at_label) joins the two copies.
    """
    if at_label not in set(f.assignment.values()):
        raise ConstructionError(f"double: label {at_label} is unused")
    return _cover_block(g, f, {(at_label, at_label)})


def _cover_block(g: Graph, f: Labeling, extra: Iterable[Cell] = ()) -> LabeledMatrix:
    """The part's padded adjacency grid read as a biadjacency block.

    Rows carry labels 0..m (one copy's worth of slots), columns m+1..2m+1,
    so label lab sits on row slot lab and on column slot m+1+lab; extra
    cells are added to the grid's ones.
    """
    m = g.num_edges
    row_slots = tuple((i, i) for i in range(m + 1))
    col_slots = tuple((m + 1 + j, m + 1 + j) for j in range(m + 1))
    ones = canonical_adjacency(g, f).ones | frozenset(extra)
    return LabeledMatrix(BIADJACENCY, ones, row_slots, col_slots, m)


def _double_cover_maps(
    g: Graph, f: Labeling, colors: Mapping[int, int], anchor_label: int, where: Mapping[int, int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Original/copy maps when the padded adjacency grid acts as biadjacency.

    colors is the part's 2-colouring from _require_bipartite.  where says
    where the slots of the part's cover block (or double_matrix) landed:
    label lab sits on row slot lab and on column slot m+1+lab.  The
    original is the cover component containing the row slot of the anchor
    label; per connected component the side is fixed by its smallest vertex
    when the anchor lies elsewhere.
    """
    m = g.num_edges
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
        row, col = where[lab], where[m + 1 + lab]
        if colors[v] == anchor_side[comp_of[v]]:
            orig[v], copy[v] = row, col
        else:
            orig[v], copy[v] = col, row
    return orig, copy


def double(part: Part, at_label: int) -> Certificate:
    """Join a disjoint copy to the part through its at_label vertex.

    The result is the doubled padded graph with a complete alpha labeling
    whose critical value is the part's edge count.
    """
    g, f = part
    _require_verified("double", [part], alpha=False, complete=False)
    (colors,) = _require_bipartite("double", [part])
    m = g.num_edges
    matrix = double_matrix(g, f, at_label)
    identity = {vid: vid for vid, _ in matrix.row_slots + matrix.col_slots}
    orig, copy = _double_cover_maps(g, f, colors, at_label, identity)
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
    matrix, landed = _antidiagonal("disjoint-union", mats)
    cert = _certify(
        "disjoint-union",
        CLAIM_ALPHA,
        matrix,
        [g for g, _ in parts],
        landed,
        details={"max_label": matrix.num_rows + matrix.num_cols - 1},
    )
    expected_k = sum(m.critical for m in mats) + len(parts) - 1
    if cert.critical != expected_k:
        raise ConstructionError("disjoint-union: critical value is off")
    return cert


def _antidiagonal(
    construction: str,
    mats: Sequence[LabeledMatrix],
    seams: Iterable[tuple[int, int]] = (),
) -> tuple[LabeledMatrix, list[dict[int, int]]]:
    """Biadjacency blocks stacked along the antidiagonal, joined at seams.

    Block 0 takes the top rows and the rightmost columns, each further block
    the rows below and the columns to the left.  A seam (a, b) adds one 1
    where block a's last row meets block b's last column; an edgeless part
    (K1) has no columns, or no rows when transposed, so a seam that needs
    one is refused.  Returns the grid and, per block, where its slots
    landed (slot id -> result id).
    """
    total_r = sum(m.num_rows for m in mats)
    c0 = sum(m.num_cols for m in mats)
    builder = _GridBuilder(total_r, c0)
    corners = []
    landed = []
    r0 = 0
    for mat in mats:
        c0 -= mat.num_cols
        landed.append(builder.place(mat, r0, c0))
        corners.append((r0 + mat.num_rows - 1, c0 + mat.num_cols - 1))
        r0 += mat.num_rows
    for a, b in seams:
        if not (mats[a].num_rows and mats[b].num_cols):
            raise ConstructionError(
                f"{construction}: part {b if mats[a].num_rows else a} has no edge "
                "to join at a seam"
            )
        builder.set(corners[a][0], corners[b][1])
    return builder.to_biadjacency(), landed


def chain_km_matrix(
    mats: Sequence[LabeledMatrix],
) -> tuple[LabeledMatrix, list[dict[int, int]]]:
    """Chain of completely graceful biadjacency blocks joined critical-to-max.

    Block i's last row (its critical vertex) meets block i+1's last column
    (its maximum vertex): one extra 1 per consecutive pair.  Also returns
    where each block's slots landed.
    """
    return _antidiagonal("chain-km", mats, [(i, i + 1) for i in range(len(mats) - 1)])


def chain_join_km(parts: Sequence[Part]) -> Certificate:
    """Join each part's critical vertex to the next part's maximum vertex."""
    if not parts:
        raise ConstructionError("chain-km: needs at least one part")
    verdicts = _require_verified("chain-km", parts, alpha=True, complete=True)
    matrix, landed = chain_km_matrix([canonical_biadjacency(g, f) for g, f in parts])
    cert = _certify(
        "chain-km", CLAIM_COMPLETE_ALPHA, matrix, [g for g, _ in parts], landed
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
    seams = [  # 1-based seam s joins blocks s-1 and s; all_m flips the even ones
        (s - 1, s) if mode == MODE_ALTERNATING or s % 2 == 1 else (s, s - 1)
        for s in range(1, len(parts))
    ]
    matrix, landed = _antidiagonal("chain-mm", mats, seams)
    cert = _certify(
        "chain-mm",
        CLAIM_COMPLETE_ALPHA,
        matrix,
        [g for g, _ in parts],
        landed,
        details={"mode": mode},
    )
    # transposed blocks contribute the complement critical m - k - 1 (0 for
    # a lone K1); with symmetric spreads (m - k = k + 1) this collapses to
    # sum(k) + r - 1
    effective = [
        max(sizes[i] - criticals[i] - 1, 0) if i % 2 == 0 else criticals[i]
        for i in range(len(parts))
    ]
    if cert.critical != sum(effective) + len(parts) - 1:
        raise ConstructionError("chain-mm: critical value is off")
    return cert


# -- copy chains ----------------------------------------------------------------


def copy_chain_matrix(
    chain: LabeledMatrix, tail: LabeledMatrix
) -> tuple[LabeledMatrix, list[dict[int, int]]]:
    """Adjacency grid embedding a biadjacency chain around a tail block.

    The chain's rows, the tail adjacency, and the chain's columns stack into
    one symmetric grid; the chain's critical vertex meets the tail's maximum.
    Also returns where the chain's and the tail's slots landed.
    """
    rh, nt = chain.num_rows, tail.num_rows
    n = rh + nt + chain.num_cols
    builder = _GridBuilder(n)
    landed = [builder.place(chain, 0, rh + nt, mirror=True), builder.place(tail, rh, rh)]
    builder.set(rh - 1, rh + nt - 1)
    builder.set(rh + nt - 1, rh - 1)
    return builder.to_adjacency(), landed


def chain_with_copies(parts: Sequence[Part]) -> Certificate:
    """Chain each part against a fresh copy of itself, ending at the last part.

    Parts 1..r-1 are doubled at their maxima; the doubles are chained
    critical-to-max and the final part closes the chain as an adjacency
    block, giving a completely graceful tree-shaped chain.
    """
    if len(parts) < 2:
        raise ConstructionError("copy-chain: needs at least two parts")
    _require_verified("copy-chain", parts, alpha=False, complete=True)
    colors = _require_bipartite("copy-chain", parts)
    head = parts[:-1]
    chain, landed = chain_km_matrix([double_matrix(g, f, g.num_edges) for g, f in head])
    tail_g, tail_f = parts[-1]
    matrix, (chain_at, tail_at) = copy_chain_matrix(
        chain, canonical_adjacency(tail_g, tail_f)
    )
    vertex_maps = []
    copy_maps = []
    for (g, f), part_colors, where in zip(head, colors, landed):
        orig, copy = _double_cover_maps(
            g, f, part_colors, g.num_edges, {s: chain_at[v] for s, v in where.items()}
        )
        vertex_maps.append(orig)
        copy_maps.append(copy)
    vertex_maps.append(tail_at)
    copy_maps.append({})
    cert = _certify(
        "copy-chain", CLAIM_BETA, matrix, [g for g, _ in parts], vertex_maps, copy_maps
    )
    return cert


# -- star join -------------------------------------------------------------------


def star_join(parts: Sequence[Part]) -> Certificate:
    """A new hub vertex adjacent to every part's maximum and every copy's.

    Each part's cover block enters turned 180 degrees.  Parts 1..r-1 read
    it as a cover biadjacency, so each contributes itself plus a copy; the
    last part sits alone in the middle; the hub takes the very last row and
    column, hence the maximum label.  All parts must share one edge count.
    """
    if not parts:
        raise ConstructionError("star-join: needs at least one part")
    _require_verified("star-join", parts, alpha=False, complete=True)
    colors = _require_bipartite("star-join", parts)
    sizes = {g.num_edges for g, _ in parts}
    if len(sizes) != 1:
        raise ConstructionError(
            f"star-join: parts must share one edge count, got {sorted(sizes)}"
        )
    m = sizes.pop()
    r = len(parts)
    span = m + 1
    n = (2 * r - 1) * span + 1
    builder = _GridBuilder(n)
    hub = n - 1
    vertex_maps: list[dict[int, int]] = []
    copy_maps: list[dict[int, int]] = []
    for i, (g, f) in enumerate(parts):
        alone = i == r - 1  # its rows and its columns land on the middle span
        where = builder.place(
            _cover_block(g, f), i * span, hub - (i + 1) * span,
            rotated=True, mirror=not alone,
        )
        orig, copy = _double_cover_maps(g, f, colors[i], m, where)
        vertex_maps.append(orig)
        copy_maps.append({} if alone else copy)
        for top in {where[m], where[span + m]}:  # the maxima of the part and its copy
            builder.set(top, hub)
            builder.set(hub, top)
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
    colors = _require_bipartite("attach", parts)
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

    offsets = list(accumulate((s + 1 for s in sizes), initial=0))
    builder = _GridBuilder(offsets[-1])
    vertex_maps = []
    tops = []
    for i, (g, _) in enumerate(parts):
        # part i reads the block of parts[c] as a cover whose rows landed
        # at offsets[i] and whose columns at offsets[r - i]
        c = min(i, r - i)
        gc, fc = parts[c]
        where = builder.place(_cover_block(gc, fc), offsets[i], offsets[r - i])
        orig, _ = _double_cover_maps(gc, fc, colors[c], gc.num_edges, where)
        vertex_maps.append({v: orig[isos[i][v]] for v in g.vertices()})
        tops.append(where[gc.num_edges])  # where part i's maximum landed
    for u, v in hg.edges:
        i, j = hf.assignment[u], hf.assignment[v]
        builder.set(tops[i], tops[j])
        builder.set(tops[j], tops[i])
    h_map = {v: tops[hf.assignment[v]] for v in hg.vertices()}
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


# -- merge-join chains -------------------------------------------------------------


def merge_chain_matrix(
    head: LabeledMatrix, doubles: Sequence[LabeledMatrix]
) -> tuple[LabeledMatrix, list[dict[int, int]]]:
    """Adjacency grid of the merged chain; also where each part's slots landed.

    head is part 1's canonical adjacency; doubles[i] is part i+2's doubled
    biadjacency.  Segments run down the grid: parts r..2 on one flank, part
    1's rotated block in the middle, parts 2..r on the other, overlapping by
    one row wherever two parts share a merged vertex.  Part i's double sits
    upright for even i (rows on the first flank) and rotated for odd i
    (columns on the first flank).
    """
    r = len(doubles) + 1
    flanks = {
        i: (d.num_rows, d.num_cols) if i % 2 == 0 else (d.num_cols, d.num_rows)
        for i, d in enumerate(doubles, start=2)
    }
    # an even part's segments share their last row with the next segment
    # below, which holds the vertex merged into it
    left_start = {}
    pos = 0
    for i in range(r, 1, -1):
        left_start[i] = pos
        pos += flanks[i][0] - (1 if i % 2 == 0 else 0)
    center_start = pos
    pos += head.num_rows
    right_start = {}
    for i in range(2, r + 1):
        right_start[i] = pos
        pos += flanks[i][1] - (1 if i % 2 == 0 and i < r else 0)
    builder = _GridBuilder(pos)
    landed = [builder.place(head, center_start, center_start, rotated=True)]
    for i, d in enumerate(doubles, start=2):
        upright = i % 2 == 0
        r0, c0 = (left_start[i], right_start[i]) if upright else (right_start[i], left_start[i])
        landed.append(builder.place(d, r0, c0, rotated=not upright, mirror=True))
    return builder.to_adjacency(), landed


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
    colors = _require_bipartite("merge-chain", parts)
    g1, f1 = parts[0]
    head_adj = canonical_adjacency(g1, f1)
    doubles = [double_matrix(g, f, g.num_edges) for g, f in parts[1:]]
    matrix, landed = merge_chain_matrix(head_adj, doubles)
    vertex_maps = [landed[0]]
    copy_maps: list[dict[int, int]] = [{}]
    for (g, f), part_colors, where in zip(parts[1:], colors[1:], landed[1:]):
        orig, copy = _double_cover_maps(g, f, part_colors, g.num_edges, where)
        vertex_maps.append(orig)
        copy_maps.append(copy)
    cert = _certify(
        "merge-chain", CLAIM_BETA, matrix, [g for g, _ in parts], vertex_maps, copy_maps
    )
    return cert


# -- gluing and pendant insertion ---------------------------------------------------
#
# A pendant enters as a new row or column holding a single 1 (an adjacency
# grid: a mirrored pair).  _insert_pendants inserts any number at one index
# and checks the diagonals once; insert_pendant_* insert one, and the lobster
# routes insert a side's leftover pendants as one block on its maximum.


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


def _insert_pendants(
    construction: str, m: LabeledMatrix, count: int, at: int, target: int, columns: bool
) -> LabeledMatrix:
    """Insert count pendants at index at, each a single 1 on index target.

    A biadjacency grid takes new rows on column target (columns: new
    columns on row target), an adjacency grid mirrored row and column pairs
    (columns ignored).  The new slots get the ids count single insertions
    would give, the newest at index at; labels follow positions.
    """
    pair = m.kind == ADJACENCY
    dr = count if pair or not columns else 0
    dc = count if pair or columns else 0
    base = m.num_rows + (0 if pair else m.num_cols)
    fresh = range(base + count - 1, base - 1, -1)
    rows, cols = [v for v, _ in m.row_slots], [v for v, _ in m.col_slots]

    def moved(k: int, shift: int) -> int:
        return k + shift if k >= at else k

    ones = {(moved(i, dr), moved(j, dc)) for i, j in m.ones}
    if dr:
        rows[at:at] = fresh
        ones.update((k, moved(target, dc)) for k in range(at, at + count))
    if dc:
        cols[at:at] = fresh
        ones.update((moved(target, dr), k) for k in range(at, at + count))
    row_slots = tuple((v, i) for i, v in enumerate(rows))
    if pair:
        out = LabeledMatrix(ADJACENCY, frozenset(ones), row_slots, row_slots)
    else:
        col_slots = tuple((v, len(rows) + j) for j, v in enumerate(cols))
        out = LabeledMatrix(BIADJACENCY, frozenset(ones), row_slots, col_slots, m.critical + dr)
    verdict = is_completely_graceful(out)
    if not verdict:
        raise ConstructionError(f"{construction}: diagonal {verdict.first_violation} violated")
    return out


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
    at = 0 if after_row_label in (None, -1) else m.row_index_of_label(after_row_label) + 1
    col = m.col_index_of_label(target_col_label)
    return _insert_pendants("insert-pendant-row", m, 1, at, col, False)


def insert_pendant_column(
    m: LabeledMatrix, after_col_label: int | None, target_row_label: int
) -> LabeledMatrix:
    """Insert one column holding a single 1: a new pendant on a row vertex."""
    if m.kind != BIADJACENCY:
        raise ConstructionError("insert-pendant-column: needs a biadjacency matrix")
    at = 0 if after_col_label in (None, -1) else m.col_index_of_label(after_col_label) + 1
    row = m.row_index_of_label(target_row_label)
    return _insert_pendants("insert-pendant-column", m, 1, at, row, True)


def insert_pendant_pair(m: LabeledMatrix, target_label: int) -> LabeledMatrix:
    """Adjacency version: a new first row and column carrying a mirrored 1.

    The new vertex takes label 0 and hangs off the target vertex; inserting
    at the corner keeps every old diagonal intact and fills the two new
    extreme diagonals.
    """
    if m.kind != ADJACENCY:
        raise ConstructionError("insert-pendant-pair: needs an adjacency matrix")
    target = m.row_index_of_label(target_label)
    return _insert_pendants("insert-pendant-pair", m, 1, 0, target, False)
