"""Lobster classes and their constructive labelings.

Three structural classes of lobsters admit certified labelings here:

* pairwise similar (consecutive reduced lobes isomorphic at the spine):
  copy chains of glue-max labeled lobes, pendants re-attached afterwards;
* pairwise linked (reduced lobes split into glued chains of glue-max
  pieces): merged chains of the pieces;
* pairwise balanced (two-spined pieces whose branch leaf counts satisfy a
  halving/reflection system): an explicit two-sided labeling per piece,
  chained critical-to-max.

A dispatcher tries the caterpillar sweep, the three classes and finally
plain search, returning the first certificate that verifies.

Every glue-max labeling of a lobe or piece comes from one helper
(_glue_max_labeling: a single branch directly, any other piece by pinned
search), and every certificate from one path: _certify_tree
hands the grid to constructions._certify and then checks that the result
has the input tree's size, so the certified id map is an isomorphism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ConstructionError, GraphStructureError
from .graphs import (
    CATERPILLAR,
    LOBSTER,
    PATH,
    SINGLE_VERTEX,
    Graph,
    build_graph,
    classify_tree,
    diameter_path,
    require_tree,
    tree_centers,
    tree_diameter,
)
from .lobsters import Branch, Lobster, lobster_decompose
from .labelings import ALPHA, BETA, Labeling, verify_alpha, verify_beta
from .matrices import (
    LabeledMatrix,
    canonical_adjacency,
    canonical_biadjacency,
)
from .constructions import (
    CLAIM_BETA,
    CLAIM_COMPLETE_ALPHA,
    Certificate,
    _antidiagonal_offsets,
    _certify,
    _double_cover_maps,
    chain_km_matrix,
    copy_chain_matrix,
    double_matrix,
    insert_pendant_column,
    insert_pendant_pair,
    insert_pendant_row,
    merge_chain_matrix,
)
from .search import (
    FOUND,
    SearchBudget,
    SearchResult,
    brute_force_graceful,
    search_graceful_with_fixed,
)

ESSENTIALLY_ODD = "essentially-odd"
ESSENTIALLY_EVEN = "essentially-even"
BARE = "bare"


# -- balanced two-spined pieces -----------------------------------------------


@dataclass(frozen=True)
class BalancedLobsterSpec:
    """A two-spined lobster piece given by branch leaf counts and pendants.

    The head spinal vertex ends up with the maximum label, the tail with
    the critical one.  head_leaves[i] is the leaf count of the head's
    (i+1)-th branch; balance couples the two sides through the halving and
    reflection equations checked by violated_balance_equation.
    """

    head_leaves: tuple[int, ...]
    tail_leaves: tuple[int, ...]
    head_pendants: int = 0
    tail_pendants: int = 0

    def __post_init__(self) -> None:
        if len(self.head_leaves) != len(self.tail_leaves):
            raise ConstructionError(
                "balanced piece needs equally many branches on both sides"
            )
        if any(x < 1 for x in self.head_leaves + self.tail_leaves):
            raise ConstructionError("branch leaf counts must be at least 1")
        if self.head_pendants < 0 or self.tail_pendants < 0:
            raise ConstructionError("pendant counts must be non-negative")

    @property
    def branches_per_side(self) -> int:
        return len(self.head_leaves)

    @property
    def expected_critical(self) -> int:
        r = self.branches_per_side
        return self.head_pendants + r + sum(self.tail_leaves)

    @property
    def expected_max(self) -> int:
        r = self.branches_per_side
        return (
            self.head_pendants
            + self.tail_pendants
            + 2 * r
            + 1
            + sum(self.head_leaves)
            + sum(self.tail_leaves)
        )


def violated_balance_equation(spec: BalancedLobsterSpec) -> tuple[int, int] | None:
    """First violated balance condition as (equation, index), else None.

    Equation 1 constrains head counts (odd index: reflected tail value;
    even: the halved head value); equation 2 mirrors it for the tail.
    """
    r = spec.branches_per_side
    x, y = spec.head_leaves, spec.tail_leaves

    def at(seq: tuple[int, ...], i: int) -> int:
        return seq[i - 1]

    for i in range(1, r + 1):
        if i % 2 == 1:
            if at(x, i) != at(y, r - (i - 1) // 2):
                return (1, i)
        elif at(x, i) != at(x, i // 2):
            return (1, i)
    for i in range(1, r + 1):
        if i % 2 == 1:
            if at(y, i) != at(x, r - (i - 1) // 2):
                return (2, i)
        elif at(y, i) != at(y, i // 2):
            return (2, i)
    return None


def is_trivially_balanced(spec: BalancedLobsterSpec) -> bool:
    counts = set(spec.head_leaves) | set(spec.tail_leaves)
    return len(counts) <= 1


CLAUSES = ("i", "ii", "iii", "iv")


def balanced_sum_identity(
    spec: BalancedLobsterSpec, index: int, clause: str
) -> tuple[int, int]:
    """Both sides of the balanced-sum identity for the given index.

    Clauses i/ii take an odd index i: the head (resp. tail) counts over
    (i+1)/2..i against the other side's top (i+1)/2 counts.  Clauses
    iii/iv take an even index.  Balance makes the two sums equal.
    """
    if clause not in CLAUSES:
        raise ConstructionError(f"unknown clause {clause!r}")
    r = spec.branches_per_side
    if not 1 <= index <= r:
        raise ConstructionError(f"index {index} out of range 1..{r}")
    x, y = spec.head_leaves, spec.tail_leaves
    if clause in ("i", "ii"):
        if index % 2 == 0:
            raise ConstructionError(f"clause {clause} needs an odd index")
        i = index
        first, second = (x, y) if clause == "i" else (y, x)
        left = sum(first[t - 1] for t in range((i + 1) // 2, i + 1))
        right = sum(second[t - 1] for t in range(r - (i - 1) // 2, r + 1))
        return left, right
    if index % 2 == 1:
        raise ConstructionError(f"clause {clause} needs an even index")
    j = index
    first, second = (x, y) if clause == "iii" else (y, x)
    left = sum(first[t - 1] for t in range(j // 2 + 1, j + 1))
    right = sum(second[t - 1] for t in range(r - j // 2 + 1, r + 1))
    return left, right


HEAD = ("head",)
TAIL = ("tail",)


def balanced_layout(
    spec: BalancedLobsterSpec,
) -> tuple[list[tuple], list[tuple]]:
    """Row and column vertex roles in label order for the piece's grid.

    Rows run: head pendants, then head centers interleaved with tail
    leaves (center indices descending), ending at the tail vertex; columns
    mirror this with the roles swapped, ending at the head vertex.
    """
    r = spec.branches_per_side
    rows: list[tuple] = [("head-pendant", t) for t in range(1, spec.head_pendants + 1)]
    for j in range(1, r + 1):
        rows.append(("head-center", r - j + 1))
        rows.extend(("tail-leaf", j, t) for t in range(1, spec.tail_leaves[j - 1] + 1))
    rows.append(TAIL)
    cols: list[tuple] = [("tail-pendant", t) for t in range(1, spec.tail_pendants + 1)]
    for j in range(1, r + 1):
        cols.append(("tail-center", r - j + 1))
        cols.extend(("head-leaf", j, t) for t in range(1, spec.head_leaves[j - 1] + 1))
    cols.append(HEAD)
    return rows, cols


def balanced_piece_edges(spec: BalancedLobsterSpec) -> list[tuple[tuple, tuple]]:
    """Edges of the piece in role terms."""
    r = spec.branches_per_side
    edges: list[tuple[tuple, tuple]] = [(HEAD, TAIL)]
    for t in range(1, spec.head_pendants + 1):
        edges.append((HEAD, ("head-pendant", t)))
    for t in range(1, spec.tail_pendants + 1):
        edges.append((TAIL, ("tail-pendant", t)))
    for j in range(1, r + 1):
        edges.append((HEAD, ("head-center", j)))
        edges.append((TAIL, ("tail-center", j)))
        for t in range(1, spec.head_leaves[j - 1] + 1):
            edges.append((("head-center", j), ("head-leaf", j, t)))
        for t in range(1, spec.tail_leaves[j - 1] + 1):
            edges.append((("tail-center", j), ("tail-leaf", j, t)))
    return edges


def balanced_role_labels(spec: BalancedLobsterSpec) -> dict[tuple, int]:
    rows, cols = balanced_layout(spec)
    labels = {role: i for i, role in enumerate(rows)}
    labels.update({role: len(rows) + j for j, role in enumerate(cols)})
    return labels


def balanced_lobster_graph(spec: BalancedLobsterSpec) -> tuple[Graph, Labeling]:
    """The concrete piece with ids equal to the construction's labels."""
    labels = balanced_role_labels(spec)
    edges = [
        (labels[a], labels[b]) for a, b in balanced_piece_edges(spec)
    ]
    g = build_graph(len(labels), edges)
    k = spec.expected_critical
    return g, Labeling({v: v for v in g.vertices()}, ALPHA, k)


def label_balanced_lobster(spec: BalancedLobsterSpec) -> Certificate:
    """Certified complete alpha labeling of a balanced two-spined piece."""
    bad = violated_balance_equation(spec)
    if bad is not None:
        raise ConstructionError(
            f"piece is not balanced: equation {bad[0]} fails at index {bad[1]}"
        )
    g, f = balanced_lobster_graph(spec)
    cert = _certify(
        "balanced-piece",
        CLAIM_COMPLETE_ALPHA,
        canonical_biadjacency(g, f),
        [g],
        [{v: v for v in g.vertices()}],
        None,
        {"spec": spec},
    )
    if cert.critical != spec.expected_critical or g.num_edges != spec.expected_max:
        raise ConstructionError("balanced labeling k/m formulas are off")
    return cert


# -- glue-max labelings of lobes and pieces --------------------------------------


def label_star_lobe(t: Graph, glue: int) -> Labeling:
    """Single-branch lobe labeled with the glue vertex maximal.

    The shape is glue - center - leaves; the center takes 0, the leaves
    1..k, the glue vertex k+1.
    """
    require_tree(t)
    if t.degree(glue) != 1:
        raise GraphStructureError("glue vertex must have exactly one neighbor")
    center = t.neighbors(glue)[0]
    leaves = [w for w in t.neighbors(center) if w != glue]
    if any(t.degree(w) != 1 for w in leaves) or len(leaves) + 1 != t.num_vertices - 1:
        raise GraphStructureError("lobe is not a single branch")
    assignment = {center: 0, glue: len(leaves) + 1}
    for i, w in enumerate(sorted(leaves), start=1):
        assignment[w] = i
    f = Labeling(assignment, BETA)
    verdict = verify_beta(t, f)
    if not verdict:
        raise ConstructionError(f"star lobe labeling failed: {verdict.reason}")
    return f


def label_diameter4_center_max(
    t: Graph, center: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Search for a graceful labeling of a small tree pinning center to m.

    Guaranteed to succeed on diameter-4 trees whose center has odd degree;
    an even-degree failure is informative, not an error.
    """
    require_tree(t)
    if tree_diameter(t) > 4:
        raise GraphStructureError("tree has diameter above 4")
    if t.num_vertices > 1 and center not in tree_centers(t):
        raise GraphStructureError(f"vertex {center} is not a center of the tree")
    return search_graceful_with_fixed(t, {center: t.num_edges}, budget)


def _piece_graph(
    glue: int, branches: Sequence[Branch], pendants: Sequence[int]
) -> tuple[Graph, dict[int, int]]:
    """Dense graph of a glue vertex with its branches and pendants.

    Returns (graph, input id -> dense id); dense ids follow input id order.
    """
    ids = [glue]
    edges = []
    for br in branches:
        ids.append(br.center)
        edges.append((glue, br.center))
        for leaf in br.leaves:
            ids.append(leaf)
            edges.append((br.center, leaf))
    for pend in pendants:
        ids.append(pend)
        edges.append((glue, pend))
    index = {v: i for i, v in enumerate(sorted(ids))}
    g = build_graph(len(ids), [(index[a], index[b]) for a, b in edges])
    return g, index


def _glue_max_labeling(
    g: Graph, glue: int, budget: SearchBudget | None
) -> SearchResult:
    """Graceful labeling of a piece graph with the glue vertex labeled m.

    A lone glue vertex and a single branch (glue - center - leaves) are
    labeled directly, whatever their size; any other piece goes to the
    pinned search.  The result carries the search status, so a failure can
    say whether the search was exhausted or ran out of budget.
    """
    if g.num_vertices == 1:
        return SearchResult(FOUND, Labeling({glue: 0}, BETA))
    if g.degree(glue) == 1 and g.degree(g.neighbors(glue)[0]) == g.num_vertices - 1:
        return SearchResult(FOUND, label_star_lobe(g, glue))
    return search_graceful_with_fixed(g, {glue: g.num_edges}, budget)


# -- the caterpillar sweep ---------------------------------------------------------


def label_caterpillar(t: Graph) -> Labeling:
    """The classic two-sided sweep: a complete alpha labeling directly on t."""
    kind = classify_tree(t)
    if kind not in (SINGLE_VERTEX, PATH, CATERPILLAR):
        raise GraphStructureError("tree is not a caterpillar")
    if t.num_vertices == 1:
        return Labeling({0: 0}, ALPHA, 0)
    spine = diameter_path(t)
    on_spine = set(spine)
    m = t.num_edges
    low, high = 0, m
    assignment: dict[int, int] = {}
    for idx, v in enumerate(spine):
        leaves = sorted(w for w in t.neighbors(v) if w not in on_spine)
        if idx % 2 == 0:
            assignment[v] = low
            low += 1
            for w in leaves:
                assignment[w] = high
                high -= 1
        else:
            assignment[v] = high
            high -= 1
            for w in leaves:
                assignment[w] = low
                low += 1
    f = Labeling(assignment, BETA)
    verdict = verify_alpha(t, f)
    if not verdict:
        raise ConstructionError(f"caterpillar sweep failed to verify: {verdict.reason}")
    return Labeling(assignment, ALPHA, verdict.critical)


# -- classification -----------------------------------------------------------------


@dataclass(frozen=True)
class LinkedPiece:
    """One piece of a linked decomposition: its spine vertex and branches."""

    spine_vertex: int
    branches: tuple[Branch, ...]

    @property
    def leaf_counts(self) -> tuple[int, ...]:
        return tuple(sorted(br.leaf_count for br in self.branches))


@dataclass(frozen=True)
class LobsterClassification:
    pairwise_isomorphic: bool
    pairwise_similar: bool
    spinal_parity: tuple[str, ...]
    pairwise_linked: bool
    linked_pieces: tuple[LinkedPiece, ...] | None
    pairwise_balanced: bool
    pairwise_trivially_balanced: bool
    details: dict = field(default_factory=dict)


def spinal_parity(lob: Lobster) -> tuple[str, ...]:
    """Per spinal vertex: parity of its degree inside the reduced lobe."""
    tags = []
    for lobe in lob.lobes:
        branches = len(lobe)
        if branches == 0:
            tags.append(BARE)
        elif branches % 2 == 1:
            tags.append(ESSENTIALLY_ODD)
        else:
            tags.append(ESSENTIALLY_EVEN)
    return tuple(tags)


def _lobe_count_multisets(lob: Lobster) -> list[tuple[int, ...]]:
    return [lob.branch_leaf_counts(i) for i in range(lob.spine_length)]


def _pairwise_similar(lob: Lobster) -> bool:
    lobes = _lobe_count_multisets(lob)
    r = len(lobes)
    return all(lobes[i] == lobes[i + 1] for i in range(0, r - 1, 2))


def _pairwise_isomorphic(lob: Lobster) -> bool:
    lobes = _lobe_count_multisets(lob)
    pend = lob.pendant_counts
    r = len(lobes)
    return all(
        lobes[i] == lobes[i + 1] and pend[i] == pend[i + 1]
        for i in range(0, r - 1, 2)
    )


_LabeledPiece = tuple[LinkedPiece, Graph, Labeling, dict[int, int]]


def _peel_linked(lob: Lobster, budget: SearchBudget | None) -> list[_LabeledPiece] | None:
    """Suffix peeling: the last piece is the last reduced lobe; every lobe
    before it sheds a copy of the following piece's branch multiset.

    Each piece comes back with its piece graph, a glue-max labeling of it
    and the input id -> piece id index.  Fails when the subtraction leaves a
    deficit or some piece admits no glue-max labeling.  Branches of equal
    leaf count are interchangeable, so which concrete branch is shed is
    immaterial.
    """
    r = lob.spine_length
    pieces: list[_LabeledPiece] = []
    needed: tuple[int, ...] = ()
    for i in range(r - 1, -1, -1):
        lobe = lob.lobes[i]
        if i == r - 1:
            keep = list(lobe)
        else:
            counts = Counter(needed)
            keep = []
            for br in lobe:
                if counts[br.leaf_count] > 0:
                    counts[br.leaf_count] -= 1
                else:
                    keep.append(br)
            if any(c > 0 for c in counts.values()):
                return None
        piece = LinkedPiece(lob.spine[i], tuple(keep))
        g, index = _piece_graph(piece.spine_vertex, piece.branches, ())
        res = _glue_max_labeling(g, index[piece.spine_vertex], budget)
        if res.status != FOUND:
            return None
        pieces.append((piece, g, res.labeling, index))
        needed = tuple(br.leaf_count for br in piece.branches)
    return pieces[::-1]


def _balanced_slot_values(
    xs: Sequence[int], ys: Sequence[int]
) -> tuple[list[int], list[int]] | None:
    """Orderings of the two count multisets satisfying the balance system.

    The even-index equations collapse each side to its odd-index values;
    the odd-index equations couple the sides into components that must
    share one value.  A small exact cover over the components decides
    whether the multisets fit.
    """
    r = len(xs)
    if len(ys) != r:
        return None
    if r == 0:
        return [], []

    def odd_part(n: int) -> int:
        while n % 2 == 0:
            n //= 2
        return n

    odd_slots = [o for o in range(1, r + 1, 2)]
    mult = {}
    for o in odd_slots:
        count = 0
        v = o
        while v <= r:
            count += 1
            v *= 2
        mult[o] = count

    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for i in odd_slots:
        j = odd_part(r - (i - 1) // 2)
        union(("x", i), ("y", j))
        union(("y", i), ("x", j))

    comps: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for side in ("x", "y"):
        for o in odd_slots:
            comps.setdefault(find((side, o)), []).append((side, o))

    comp_list = []
    for members in comps.values():
        xw = sum(mult[o] for s, o in members if s == "x")
        yw = sum(mult[o] for s, o in members if s == "y")
        comp_list.append((members, xw, yw))
    comp_list.sort(key=lambda c: -(c[1] + c[2]))

    values = sorted(set(xs) | set(ys))
    x_need = Counter(xs)
    y_need = Counter(ys)
    chosen: dict[tuple[str, int], int] = {}

    def assign(idx: int) -> bool:
        if idx == len(comp_list):
            return not +x_need and not +y_need
        members, xw, yw = comp_list[idx]
        for val in values:
            if x_need[val] >= xw and y_need[val] >= yw:
                x_need[val] -= xw
                y_need[val] -= yw
                for member in members:
                    chosen[member] = val
                if assign(idx + 1):
                    return True
                for member in members:
                    del chosen[member]
                x_need[val] += xw
                y_need[val] += yw
        return False

    if not assign(0):
        return None
    x_order = [chosen[("x", odd_part(i))] for i in range(1, r + 1)]
    y_order = [chosen[("y", odd_part(i))] for i in range(1, r + 1)]
    if sorted(x_order) != sorted(xs) or sorted(y_order) != sorted(ys):
        return None
    return x_order, y_order


def _pair_spec(lob: Lobster, i: int) -> BalancedLobsterSpec | None:
    """Balanced spec for the spinal pair (i, i+1), head at position i."""
    xs = [br.leaf_count for br in lob.lobes[i]]
    ys = [br.leaf_count for br in lob.lobes[i + 1]]
    orders = _balanced_slot_values(xs, ys)
    if orders is None:
        return None
    x_order, y_order = orders
    spec = BalancedLobsterSpec(
        tuple(x_order),
        tuple(y_order),
        len(lob.pendants[i]),
        len(lob.pendants[i + 1]),
    )
    if violated_balance_equation(spec) is not None:
        return None
    return spec


def _pairwise_balanced(lob: Lobster) -> tuple[bool, bool]:
    """(pairwise balanced, pairwise trivially balanced)."""
    r = lob.spine_length
    if r % 2 != 0:
        return False, False
    balanced = True
    trivially = True
    for i in range(0, r - 1, 2):
        spec = _pair_spec(lob, i)
        if spec is None:
            return False, False
        if not is_trivially_balanced(spec):
            trivially = False
    return balanced, trivially


def classify_lobster(
    lob: Lobster, budget: SearchBudget | None = None
) -> LobsterClassification:
    """All class flags; flags that depend on spine direction try both."""
    directions = [lob, lob.reversed()]
    similar = any(_pairwise_similar(d) for d in directions)
    isomorphic = any(_pairwise_isomorphic(d) for d in directions)
    linked_pieces = None
    for d in directions:
        peeled = _peel_linked(d, budget)
        if peeled is not None:
            linked_pieces = tuple(piece for piece, _, _, _ in peeled)
            break
    balanced, trivially = _pairwise_balanced(lob)
    return LobsterClassification(
        pairwise_isomorphic=isomorphic,
        pairwise_similar=similar,
        spinal_parity=spinal_parity(lob),
        pairwise_linked=linked_pieces is not None,
        linked_pieces=linked_pieces,
        pairwise_balanced=balanced,
        pairwise_trivially_balanced=trivially,
    )


# -- certified pipelines -------------------------------------------------------------


def _certify_tree(
    construction: str,
    claim: str,
    matrix: LabeledMatrix,
    t: Graph,
    input_map: dict[int, int],
    details: dict,
) -> Certificate:
    """Certify a labeling of the input tree t itself.

    constructions._certify re-verifies the grid and checks that input_map
    sends t injectively into the result with every edge present; a result
    of t's vertex and edge counts then makes input_map an isomorphism.
    """
    cert = _certify(construction, claim, matrix, [t], [input_map], None, details)
    g = cert.result_graph
    if (g.num_vertices, g.num_edges) != (t.num_vertices, t.num_edges):
        raise ConstructionError(f"{construction}: result size differs from the input")
    return cert


def _branch_pairing(
    removed: Sequence[Branch], piece: LinkedPiece
) -> list[tuple[Branch, Branch]]:
    """Deterministically pair shed branches with the matching piece branches."""
    by_count: dict[int, list[Branch]] = {}
    for br in sorted(piece.branches, key=lambda b: (b.leaf_count, b.center)):
        by_count.setdefault(br.leaf_count, []).append(br)
    pairs = []
    for br in sorted(removed, key=lambda b: (b.leaf_count, b.center)):
        pairs.append((br, by_count[br.leaf_count].pop(0)))
    return pairs


def label_pairwise_linked(
    t: Graph, budget: SearchBudget | None = None
) -> Certificate:
    """Certified graceful labeling of a pairwise linked lobster.

    Pieces come from suffix peeling, already labeled glue-max; the pieces
    are merged max-into-max along the spine, and leftover pendants enter as
    fresh extreme rows of their part blocks.
    """
    lob = lobster_decompose(t)
    labeled = None
    chosen = lob
    for d in (lob, lob.reversed()):
        labeled = _peel_linked(d, budget)
        if labeled is not None:
            chosen = d
            break
    if labeled is None:
        raise ConstructionError("no linked decomposition found")
    r = len(labeled)

    _, head_g, head_f, head_index = labeled[0]
    head_mat = canonical_adjacency(head_g, head_f)
    for _ in range(len(chosen.pendants[0])):
        head_mat = insert_pendant_pair(head_mat, head_mat.row_labels[-1])
    doubles = []
    for i in range(1, r):
        _, g_i, f_i, _ = labeled[i]
        d = double_matrix(g_i, f_i, g_i.num_edges)
        for _ in range(len(chosen.pendants[i])):
            d = insert_pendant_row(d, None, d.col_labels[-1])
        doubles.append(d)
    matrix, positions = merge_chain_matrix(head_mat, doubles)

    input_map: dict[int, int] = {}
    head_shift = len(chosen.pendants[0])
    center_rows, _ = positions[0]
    for v, dense in head_index.items():
        input_map[v] = center_rows[head_shift + head_f.assignment[dense]]
    for slot, pend in enumerate(sorted(chosen.pendants[0])):
        input_map[pend] = center_rows[slot]

    for i in range(1, r):
        piece, g_i, f_i, index_i = labeled[i]
        rows, cols = positions[i]
        shift = len(chosen.pendants[i])
        orig, copy = _double_cover_maps(
            g_i,
            f_i,
            g_i.num_edges,
            row_pos=lambda lab, rows=rows, shift=shift: rows[shift + lab],
            col_pos=lambda lab, cols=cols: cols[lab],
        )
        # the piece itself (including spine vertex i) is the copy hanging at
        # spine slot i; the branches shed from lobe i-1 are the original
        # component, glued at spine slot i-1
        for v, dense in index_i.items():
            input_map[v] = copy[dense]
        kept_centers = {b.center for b in labeled[i - 1][0].branches}
        removed = [
            br for br in chosen.lobes[i - 1] if br.center not in kept_centers
        ]
        for shed, target in _branch_pairing(removed, piece):
            input_map[shed.center] = orig[index_i[target.center]]
            for a, b in zip(sorted(shed.leaves), sorted(target.leaves)):
                input_map[a] = orig[index_i[b]]
        for slot, pend in enumerate(sorted(chosen.pendants[i])):
            input_map[pend] = rows[slot]

    return _certify_tree(
        "pairwise-linked", CLAIM_BETA, matrix, t, input_map, {"pieces": r}
    )


_SimilarPart = tuple[Graph, Labeling, dict[int, int], bool]


def _similar_parts(
    chosen: Lobster, budget: SearchBudget | None
) -> tuple[list[_SimilarPart], list[int]]:
    """Glue-max labeled parts for the pairwise similar pipeline.

    Returns one entry per lobe pair (plus the unpaired final lobe for odd
    spines): (graph, labeling, input-id index, promoted) where promoted
    records that one pendant was pulled into the lobe to fix the parity.
    Also returns the leftover pendant count per spinal position.
    """
    parity = spinal_parity(chosen)
    r = chosen.spine_length
    promoted = [False] * r
    for i in range(r):
        if parity[i] == ESSENTIALLY_EVEN:
            if not chosen.pendants[i]:
                raise ConstructionError(
                    f"spinal vertex {chosen.spine[i]} has an even branch count "
                    "and no pendant to promote"
                )
            promoted[i] = True
    leftover = [
        len(chosen.pendants[i]) - (1 if promoted[i] else 0) for i in range(r)
    ]
    parts = []
    for i in range(0, r, 2):
        glue = chosen.spine[i]
        pulled = sorted(chosen.pendants[i])[:1] if promoted[i] else ()
        g, index = _piece_graph(glue, chosen.lobes[i], pulled)
        res = _glue_max_labeling(g, index[glue], budget)
        if res.status != FOUND:
            raise ConstructionError(
                f"no glue-max labeling for the lobe at spine vertex "
                f"{glue} (status {res.status})"
            )
        parts.append((g, res.labeling, index, promoted[i]))
    return parts, leftover


def _check_pair_matches(chosen: Lobster, i: int) -> None:
    if chosen.branch_leaf_counts(i) != chosen.branch_leaf_counts(i + 1):
        raise ConstructionError(
            f"lobes at spinal positions {i} and {i + 1} are not isomorphic"
        )


def label_pairwise_similar(
    t: Graph, budget: SearchBudget | None = None
) -> Certificate:
    """Certified graceful labeling of a pairwise similar lobster.

    Consecutive lobes pair up; each pair is served by one glue-max labeled
    lobe plus its implicit copy.  Even spines chain the doubled lobes
    critical-to-max; odd spines close the chain with the final lobe as an
    adjacency block.  Promoted pendants fix even branch counts before the
    lobes are labeled; the rest return through pendant insertions.
    """
    lob = lobster_decompose(t)
    chosen = None
    for d in (lob, lob.reversed()):
        if _pairwise_similar(d):
            chosen = d
            break
    if chosen is None:
        raise ConstructionError("lobster is not pairwise similar")
    r = chosen.spine_length
    for i in range(0, r - 1, 2):
        _check_pair_matches(chosen, i)
    parity = spinal_parity(chosen)
    for i in range(0, r - 1, 2):
        if parity[i] != parity[i + 1]:
            raise ConstructionError(
                f"paired spinal vertices {chosen.spine[i]} and "
                f"{chosen.spine[i + 1]} disagree on branch parity"
            )
    parts, leftover = _similar_parts(chosen, budget)
    return _similar_chain(t, chosen, parts, leftover)


def _pendant_augmented_double(
    g: Graph, f: Labeling, rows_to_add: int, cols_to_add: int
) -> LabeledMatrix:
    d = double_matrix(g, f, g.num_edges)
    for _ in range(rows_to_add):
        d = insert_pendant_row(d, None, d.col_labels[-1])
    for _ in range(cols_to_add):
        d = insert_pendant_column(d, None, d.row_labels[-1])
    return d


def _leftover_pendants(chosen: Lobster, i: int, promoted: bool) -> list[int]:
    """Pendants at spinal position i that were not promoted into the lobe."""
    return sorted(chosen.pendants[i])[1 if promoted else 0 :]


def _similar_chain(
    t: Graph,
    chosen: Lobster,
    parts: Sequence[_SimilarPart],
    leftover: Sequence[int],
) -> Certificate:
    """Chain of doubled lobes, closed by the final lobe on odd spines.

    Pair p's copy hangs at spine position 2p and its original at 2p+1.  The
    doubles chain critical-to-max; an odd spine embeds the chain around the
    final lobe's adjacency block, so the columns start after that block.
    """
    r = chosen.spine_length
    pairs = parts[: r // 2]
    if not pairs:
        raise ConstructionError(
            "single-lobe similar lobster: use the linked pipeline instead"
        )
    mats = [
        _pendant_augmented_double(g, f, leftover[2 * p], leftover[2 * p + 1])
        for p, (g, f, _, _) in enumerate(pairs)
    ]
    matrix = chain_km_matrix(mats)
    col_base = matrix.num_rows
    input_map: dict[int, int] = {}
    if r % 2:
        tail_g, tail_f, tail_index, tail_promoted = parts[-1]
        tail_mat = canonical_adjacency(tail_g, tail_f)
        for _ in range(leftover[-1]):
            tail_mat = insert_pendant_pair(tail_mat, tail_mat.row_labels[-1])
        tail_base = matrix.num_rows
        matrix = copy_chain_matrix(matrix, tail_mat)
        col_base += tail_mat.num_rows
        for v, dense in tail_index.items():
            input_map[v] = tail_base + leftover[-1] + tail_f.assignment[dense]
        for slot, pend in enumerate(_leftover_pendants(chosen, r - 1, tail_promoted)):
            input_map[pend] = tail_base + slot

    row_offsets, col_offsets = _antidiagonal_offsets(
        [m.num_rows for m in mats], [m.num_cols for m in mats]
    )
    for p, (g, f, index, promoted) in enumerate(pairs):
        r0, c0 = row_offsets[p], col_base + col_offsets[p]
        orig, copy = _double_cover_maps(
            g,
            f,
            g.num_edges,
            row_pos=lambda lab, base=r0 + leftover[2 * p]: base + lab,
            col_pos=lambda lab, base=c0 + leftover[2 * p + 1]: base + lab,
        )
        _map_similar_pair(input_map, chosen, 2 * p, index, copy, promoted)
        _map_similar_pair(input_map, chosen, 2 * p + 1, index, orig, promoted)
        for slot, pend in enumerate(_leftover_pendants(chosen, 2 * p, promoted)):
            input_map[pend] = r0 + slot
        for slot, pend in enumerate(_leftover_pendants(chosen, 2 * p + 1, promoted)):
            input_map[pend] = c0 + slot
    return _certify_tree(
        "pairwise-similar", CLAIM_BETA, matrix, t, input_map, {"spine": r}
    )


def _map_similar_pair(
    input_map: dict[int, int],
    chosen: Lobster,
    position: int,
    index: dict[int, int],
    side_map: dict[int, int],
    promoted: bool,
) -> None:
    """Map the lobe at a spinal position onto one cover component.

    The labeled part came from the FIRST lobe of the pair, so the other
    member's vertices travel through the leaf-count pairing of isomorphic
    branches (plus spine vertex to glue, promoted pendant to promoted slot).
    side_map sends part ids to result ids.
    """
    pair_base = (position // 2) * 2
    input_map[chosen.spine[position]] = side_map[index[chosen.spine[pair_base]]]
    part_branches = sorted(
        chosen.lobes[pair_base], key=lambda b: (b.leaf_count, b.center)
    )
    own_branches = sorted(
        chosen.lobes[position], key=lambda b: (b.leaf_count, b.center)
    )
    for own, part in zip(own_branches, part_branches):
        input_map[own.center] = side_map[index[part.center]]
        for a, b in zip(sorted(own.leaves), sorted(part.leaves)):
            input_map[a] = side_map[index[b]]
    if promoted:
        part_pend = sorted(chosen.pendants[pair_base])[0]
        own_pend = sorted(chosen.pendants[position])[0]
        input_map[own_pend] = side_map[index[part_pend]]


def label_pairwise_balanced(t: Graph) -> Certificate:
    """Certified complete alpha labeling of a pairwise balanced lobster.

    Each consecutive spinal pair becomes a balanced two-spined piece labeled
    explicitly; the pieces chain critical-to-max, which recreates the spine.
    """
    lob = lobster_decompose(t)
    r = lob.spine_length
    if r % 2 != 0:
        raise ConstructionError(
            f"pairwise balanced needs an even spine, got {r} spinal vertices"
        )
    specs = []
    role_maps = []
    for i in range(0, r - 1, 2):
        spec = _pair_spec(lob, i)
        if spec is None:
            raise ConstructionError(
                f"spinal pair ({i}, {i + 1}) admits no balanced branch ordering"
            )
        specs.append(spec)
        role_maps.append(_assign_pair_roles(lob, i, spec))
    mats = [canonical_biadjacency(*balanced_lobster_graph(spec)) for spec in specs]
    matrix = chain_km_matrix(mats)
    row_offsets, col_offsets = _antidiagonal_offsets(
        [m.num_rows for m in mats], [m.num_cols for m in mats]
    )
    input_map: dict[int, int] = {}
    for spec, role_of, r0, c0 in zip(specs, role_maps, row_offsets, col_offsets):
        labels = balanced_role_labels(spec)
        k = spec.expected_critical
        for input_id, role in role_of.items():
            lab = labels[role]
            if lab <= k:
                input_map[input_id] = r0 + lab
            else:
                input_map[input_id] = matrix.num_rows + c0 + (lab - k - 1)
    return _certify_tree(
        "pairwise-balanced",
        CLAIM_COMPLETE_ALPHA,
        matrix,
        t,
        input_map,
        {"pieces": len(specs)},
    )


def _assign_pair_roles(
    lob: Lobster, i: int, spec: BalancedLobsterSpec
) -> dict[int, tuple]:
    """Concrete vertex -> role assignment for the pair at positions i, i+1."""
    role_of: dict[int, tuple] = {
        lob.spine[i]: HEAD,
        lob.spine[i + 1]: TAIL,
    }
    for t_idx, pend in enumerate(sorted(lob.pendants[i]), start=1):
        role_of[pend] = ("head-pendant", t_idx)
    for t_idx, pend in enumerate(sorted(lob.pendants[i + 1]), start=1):
        role_of[pend] = ("tail-pendant", t_idx)

    def take(lobe, required, side, leaf_role):
        pool: dict[int, list[Branch]] = {}
        for br in sorted(lobe, key=lambda b: (b.leaf_count, b.center)):
            pool.setdefault(br.leaf_count, []).append(br)
        for j, count in enumerate(required, start=1):
            br = pool[count].pop(0)
            role_of[br.center] = (side, j)
            for t_idx, leaf in enumerate(sorted(br.leaves), start=1):
                role_of[leaf] = (leaf_role, j, t_idx)

    take(lob.lobes[i], spec.head_leaves, "head-center", "head-leaf")
    take(lob.lobes[i + 1], spec.tail_leaves, "tail-center", "tail-leaf")
    return role_of


# -- the dispatcher ----------------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    """Explanation when no constructive route yields a certificate."""

    reasons: tuple[tuple[str, str], ...]

    @property
    def covered(self) -> bool:
        return False


def label_by_search(t: Graph, budget: SearchBudget) -> Certificate | SearchResult:
    """Certificate of the first labeling exhaustive search finds.

    Returns the search result itself when the search finds none, so its
    status says whether it was exhausted or ran out of budget.
    """
    res = brute_force_graceful(t, budget)
    if res.status != FOUND:
        return res
    return _certify_tree(
        "search",
        CLAIM_BETA,
        canonical_adjacency(t, res.labeling),
        t,
        {v: v for v in t.vertices()},
        {},
    )


def label_lobster_auto(
    t: Graph, budget: SearchBudget | None = None
) -> Certificate | CoverageReport:
    """Try the constructive routes in a fixed order, then bounded search.

    Routes: caterpillar sweep, pairwise balanced, pairwise linked, pairwise
    similar, exhaustive search within the budget.  The first verified
    certificate wins; otherwise a report lists each route's failure.
    """
    require_tree(t)
    kind = classify_tree(t)
    if kind not in (SINGLE_VERTEX, PATH, CATERPILLAR, LOBSTER):
        raise GraphStructureError("tree is deeper than a lobster")
    reasons: list[tuple[str, str]] = []
    if kind in (SINGLE_VERTEX, PATH, CATERPILLAR):
        f = label_caterpillar(t)
        return _certify_tree(
            "caterpillar-sweep",
            CLAIM_COMPLETE_ALPHA,
            canonical_biadjacency(t, f),
            t,
            {v: v for v in t.vertices()},
            {},
        )
    reasons.append(("caterpillar", "tree is a proper lobster"))
    for name, route in (
        ("pairwise-balanced", label_pairwise_balanced),
        ("pairwise-linked", lambda g: label_pairwise_linked(g, budget)),
        ("pairwise-similar", lambda g: label_pairwise_similar(g, budget)),
    ):
        try:
            return route(t)
        except ConstructionError as exc:
            reasons.append((name, str(exc)))
    search_budget = budget or SearchBudget()
    if t.num_vertices > search_budget.max_vertices:
        reasons.append(
            (
                "search",
                f"skipped: {t.num_vertices} vertices exceed the budget's "
                f"{search_budget.max_vertices}",
            )
        )
        return CoverageReport(tuple(reasons))
    result = label_by_search(t, search_budget)
    if isinstance(result, Certificate):
        return result
    reasons.append(("search", result.status))
    return CoverageReport(tuple(reasons))
