"""Lobster classes and their constructive labelings.

Three structural classes of lobsters admit certified labelings here:

* pairwise similar (consecutive reduced lobes isomorphic at the spine):
  copy chains of glue-max labeled lobes, pendants re-attached afterwards;
* pairwise linked (reduced lobes split into glued chains of glue-max
  pieces): merged chains of the pieces;
* pairwise balanced (two-spined pieces whose branch leaf counts satisfy a
  halving/reflection system): an explicit two-sided labeling per piece,
  chained critical-to-max.

The dispatcher, label_lobster_auto, sends a caterpillar to the sweep
without decomposing it; a proper lobster is decomposed once, and that
Lobster goes to each route of the ROUTES table in turn (keyed by the
`label --strategy` names), then to plain search.  The first certificate
that verifies wins.  A part's leftover pendants enter its grid as one
block through constructions._insert_pendants, with one diagonal check.

Each class has one decider, and both classify_lobster and the class's
route call it: _balanced_specs (the balanced piece of each spinal pair),
_linked_pieces (a direction with its labeled pieces) and
_similar_direction (a direction whose lobe pairs match).  So a flag is yes
exactly when its route gets past its decider.

Every glue-max labeling of a lobe or piece comes from one public
function, label_glue_max: a lone vertex or a single branch is labeled
directly and checked with verify_beta, any other piece goes to the pinned
search.  Every certificate comes from one path: _certify_tree hands the
grid to constructions._certify and then checks that the result has the
input tree's size, so the certified id map is an isomorphism.

Which slot an input vertex lands in does not matter to a certificate of
the input tree, only that the assembled tree is isomorphic to it.  So the
linked and similar routes build their grids and take the id map from one
tree isomorphism between the input and the result, both rooted at
centroids (canonical.isomorphism_map).  The balanced route lays each
spinal pair out as its piece, so an input vertex goes where its label in
the piece landed in the chain; the sweep and search label the input itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Sequence

from .errors import ConstructionError, GraphStructureError
from .canonical import isomorphism_map
from .graphs import (
    CATERPILLAR,
    LOBSTER,
    PATH,
    SINGLE_VERTEX,
    Graph,
    build_graph,
    classify_tree,
    diameter_path,
    is_tree,
    require_tree,
)
from .lobsters import Branch, Lobster, lobster_decompose
from .labelings import ALPHA, BETA, Labeling, verify_alpha, verify_beta
from .matrices import (
    LabeledMatrix,
    canonical_adjacency,
    canonical_biadjacency,
    matrix_to_graph,
)
from .constructions import (
    CLAIM_BETA,
    CLAIM_COMPLETE_ALPHA,
    Certificate,
    Part,
    _certify,
    _insert_pendants,
    chain_km_matrix,
    copy_chain_matrix,
    double_matrix,
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


def _balanced_piece(
    head: int,
    tail: int,
    head_pendants: Sequence[int],
    tail_pendants: Sequence[int],
    head_branches: Sequence[Branch],
    tail_branches: Sequence[Branch],
) -> tuple[Part, dict[int, int]]:
    """A spinal pair laid out as its balanced piece, branches in spec order.

    Rows run: head pendants, then head centers (last branch first)
    interleaved with the tail branches' leaves, ending at the tail vertex;
    columns mirror this with the sides swapped, ending at the head vertex.
    Returns the piece, with vertex ids equal to its complete alpha labels,
    and each given vertex's label.
    """
    order: list[int] = []
    for pendants, centers, leaves, last in (
        (head_pendants, head_branches, tail_branches, tail),
        (tail_pendants, tail_branches, head_branches, head),
    ):
        order += pendants
        for near, far in zip(reversed(centers), leaves):
            order.append(near.center)
            order += far.leaves
        order.append(last)
    label = {v: i for i, v in enumerate(order)}
    edges = [(head, tail)]
    edges += [(head, p) for p in head_pendants] + [(tail, p) for p in tail_pendants]
    for hb, tb in zip(head_branches, tail_branches):
        edges += [(head, hb.center), (tail, tb.center)]
        edges += [(hb.center, leaf) for leaf in hb.leaves]
        edges += [(tb.center, leaf) for leaf in tb.leaves]
    g = build_graph(len(order), [(label[a], label[b]) for a, b in edges])
    return (g, Labeling({v: v for v in g.vertices()}, ALPHA, label[tail])), label


def label_balanced_lobster(spec: BalancedLobsterSpec) -> Certificate:
    """Certified complete alpha labeling of a balanced two-spined piece,
    built with vertex ids equal to its labels."""
    bad = violated_balance_equation(spec)
    if bad is not None:
        raise ConstructionError(
            f"piece is not balanced: equation {bad[0]} fails at index {bad[1]}"
        )
    ids = count()

    def branches(leaf_counts: Sequence[int]) -> list[Branch]:
        return [Branch(next(ids), tuple(islice(ids, c))) for c in leaf_counts]

    (g, f), _ = _balanced_piece(
        next(ids), next(ids),
        list(islice(ids, spec.head_pendants)), list(islice(ids, spec.tail_pendants)),
        branches(spec.head_leaves), branches(spec.tail_leaves),
    )
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


def label_glue_max(
    g: Graph, glue: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Graceful labeling of g with the glue vertex labeled m.

    A lone vertex and a single branch (glue - center - leaves: m = n - 1,
    the glue a leaf, its neighbour adjacent to all the rest) are labeled
    directly, whatever their size: the center takes 0, the leaves 1..m-1 by
    id, the glue m.  Anything else goes to the pinned search, whose status
    says whether it was exhausted or ran out of budget.

    Guaranteed to succeed on a diameter-4 tree glued at its centre when the
    centre has odd degree (checked for n <= 9); an even-degree failure is
    informative, not an error.
    """
    if not 0 <= glue < g.num_vertices:
        raise GraphStructureError(f"glue vertex {glue} is not in the graph")
    m = g.num_edges
    if g.num_vertices == 1:
        return SearchResult(FOUND, Labeling({glue: 0}, BETA))
    if m == g.num_vertices - 1 and g.degree(glue) == 1:
        center = g.neighbors(glue)[0]
        if g.degree(center) == m:
            leaves = sorted(w for w in g.neighbors(center) if w != glue)
            assignment = {center: 0, glue: m}
            assignment.update((w, i) for i, w in enumerate(leaves, start=1))
            f = Labeling(assignment, BETA)
            verdict = verify_beta(g, f)
            if not verdict:
                raise ConstructionError(f"single-branch labeling failed: {verdict.reason}")
            return SearchResult(FOUND, f)
    return search_graceful_with_fixed(g, {glue: m}, budget)


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
class LobsterClassification:
    pairwise_isomorphic: bool
    pairwise_similar: bool
    spinal_parity: tuple[str, ...]
    pairwise_linked: bool
    pairwise_balanced: bool
    pairwise_trivially_balanced: bool


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


def _similar_direction(
    lob: Lobster, key: Callable[[Lobster, int], object] = Lobster.branch_leaf_counts
) -> Lobster | None:
    """The first of lob and its reversal whose spinal pairs (0, 1), (2, 3),
    ... agree on key(direction, position), else None.

    The default key, the sorted branch leaf counts of a lobe, decides
    pairwise similar.
    """
    for d in (lob, lob.reversed()):
        if all(key(d, i) == key(d, i + 1) for i in range(0, d.spine_length - 1, 2)):
            return d
    return None


def _suffix_peel(d: Lobster) -> list[list[Branch]] | None:
    """The branches each lobe of d keeps in the suffix peel, last lobe
    first, or None when some lobe lacks a branch it must shed."""
    kept: list[list[Branch]] = []
    needed: list[int] = []
    for lobe in reversed(d.lobes):
        counts = Counter(needed)
        keep = []
        for br in lobe:
            if counts[br.leaf_count] > 0:
                counts[br.leaf_count] -= 1
            else:
                keep.append(br)
        if any(c > 0 for c in counts.values()):
            return None
        kept.append(keep)
        needed = [br.leaf_count for br in keep]
    return kept


def _linked_pieces(
    lob: Lobster, budget: SearchBudget | None
) -> tuple[Lobster, list[Part]] | None:
    """A pairwise linked direction of lob and its glue-max labeled pieces.

    Suffix peeling, on lob and then on its reversal: the last piece is the
    last reduced lobe; every lobe before it sheds a copy of the following
    piece's branch multiset.  Branches of equal leaf count are
    interchangeable, so which concrete branch is shed is immaterial.

    The peel is structural and comes first: a direction whose subtraction
    leaves a deficit at any lobe is dropped before any piece is searched.
    Only a direction that peels cleanly has its pieces labeled, last lobe
    first, and it fails at the first piece with no glue-max labeling; None
    when both directions fail.  Each pinned search runs on its own budget,
    so the verdict does not depend on the order of the searches.
    """
    for d in (lob, lob.reversed()):
        kept = _suffix_peel(d)
        if kept is None:
            continue
        pieces: list[Part] = []
        for glue, keep in zip(reversed(d.spine), kept):
            g, index = _piece_graph(glue, keep, ())
            res = label_glue_max(g, index[glue], budget)
            if res.status != FOUND:
                break
            pieces.append((g, res.labeling))
        else:
            return d, pieces[::-1]
    return None


def _balanced_slot_values(
    xs: Sequence[int], ys: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Orderings of the two count multisets satisfying the balance system.

    The even-index equations give slot i the value of slot odd(i) on its
    side, so odd slot o fills (r // o).bit_length() slots.  The odd-index
    equations tie (side, o) to (other side, odd(r - (o - 1) // 2)); that
    map permutes the odd slots, since each odd o <= r has exactly one
    multiple o * 2^j in (r/2, r].  So the ties form cycles alternating
    sides, each taking one value, and an exact cover over the cycles,
    heaviest first and values ascending, decides whether the multisets fit.
    Cycles of equal weights take non-decreasing values: swapping two such
    values keeps every count, so the first cover found has them in order.
    """
    r = len(xs)
    if len(ys) != r:
        return None

    def odd(n: int) -> int:
        return n // (n & -n)

    cycle_of: dict[tuple[int, int], int] = {}
    weights: list[tuple[int, int]] = []
    for start in [(side, o) for side in (0, 1) for o in range(1, r + 1, 2)]:
        if start in cycle_of:
            continue
        w = [0, 0]
        node = start
        while node not in cycle_of:
            cycle_of[node] = len(weights)
            side, o = node
            w[side] += (r // o).bit_length()
            node = (1 - side, odd(r - (o - 1) // 2))
        weights.append((w[0], w[1]))
    order = sorted(range(len(weights)), key=lambda c: -sum(weights[c]))

    values = sorted(set(xs) | set(ys))
    x_need, y_need = Counter(xs), Counter(ys)
    chosen = [0] * len(weights)  # index into values, per cycle
    last_alike: dict[tuple[int, int], int] = {}
    alike = []  # per position: the previous cycle of equal weights, or None
    for c in order:
        alike.append(last_alike.get(weights[c]))
        last_alike[weights[c]] = c

    # depth first over the positions, without recursion: a wide pair has
    # more cycles than Python's recursion limit.  vi is the next value index
    # to try at pos, None on first entry; backing up resumes after the
    # value the earlier position held.
    pos, vi = 0, None
    while pos < len(order):
        c = order[pos]
        xw, yw = weights[c]
        if vi is None:
            vi = 0 if alike[pos] is None else chosen[alike[pos]]
        while vi < len(values) and (x_need[values[vi]] < xw or y_need[values[vi]] < yw):
            vi += 1
        if vi < len(values):
            x_need[values[vi]] -= xw
            y_need[values[vi]] -= yw
            chosen[c] = vi
            pos, vi = pos + 1, None
        elif pos == 0:
            return None
        else:
            pos -= 1
            c = order[pos]
            vi = chosen[c]
            x_need[values[vi]] += weights[c][0]
            y_need[values[vi]] += weights[c][1]
            vi += 1
    return tuple(
        tuple(values[chosen[cycle_of[side, odd(i)]]] for i in range(1, r + 1))
        for side in (0, 1)
    )


def _balanced_specs(lob: Lobster) -> list[BalancedLobsterSpec]:
    """The balanced piece of each spinal pair (0, 1), (2, 3), ..., head first.

    Raises ConstructionError when the spine is odd or some pair admits no
    balanced branch ordering.
    """
    r = lob.spine_length
    if r % 2 != 0:
        raise ConstructionError(
            f"pairwise balanced needs an even spine, got {r} spinal vertices"
        )
    specs = []
    for i in range(0, r, 2):
        orders = _balanced_slot_values(
            [br.leaf_count for br in lob.lobes[i]],
            [br.leaf_count for br in lob.lobes[i + 1]],
        )
        spec = None if orders is None else BalancedLobsterSpec(
            *orders, len(lob.pendants[i]), len(lob.pendants[i + 1])
        )
        if spec is None or violated_balance_equation(spec) is not None:
            raise ConstructionError(
                f"spinal pair ({i}, {i + 1}) admits no balanced branch ordering"
            )
        specs.append(spec)
    return specs


def classify_lobster(
    lob: Lobster, budget: SearchBudget | None = None
) -> LobsterClassification:
    """All class flags, each from the decider its route uses.

    Flags that depend on spine direction try both.
    """
    try:
        specs = _balanced_specs(lob)
    except ConstructionError:
        specs = None
    isomorphic = _similar_direction(
        lob, lambda d, i: (d.branch_leaf_counts(i), len(d.pendants[i]))
    )
    return LobsterClassification(
        pairwise_isomorphic=isomorphic is not None,
        pairwise_similar=_similar_direction(lob) is not None,
        spinal_parity=spinal_parity(lob),
        pairwise_linked=_linked_pieces(lob, budget) is not None,
        pairwise_balanced=specs is not None,
        pairwise_trivially_balanced=specs is not None
        and all(map(is_trivially_balanced, specs)),
    )


# -- certified pipelines -------------------------------------------------------------


def _certify_tree(
    construction: str,
    claim: str,
    matrix: LabeledMatrix,
    t: Graph,
    input_map: dict[int, int] | None,
    details: dict,
) -> Certificate:
    """Certify a labeling of the input tree t itself.

    constructions._certify re-verifies the grid and checks that input_map
    sends t injectively into the result with every edge present; a result
    of t's vertex and edge counts then makes input_map an isomorphism.
    input_map None takes the map from a tree isomorphism of t onto the
    result, so a result of another shape fails.
    """
    if input_map is None:
        g, _ = matrix_to_graph(matrix)
        input_map = isomorphism_map(t, g) if is_tree(g) else None
        if input_map is None:
            raise ConstructionError(f"{construction}: result is not isomorphic to the input")
    cert = _certify(construction, claim, matrix, [t], [input_map], None, details)
    g = cert.result_graph
    if (g.num_vertices, g.num_edges) != (t.num_vertices, t.num_edges):
        raise ConstructionError(f"{construction}: result size differs from the input")
    return cert


def _pendant_augmented_adjacency(g: Graph, f: Labeling, pendants: int) -> LabeledMatrix:
    """A piece's adjacency grid with a new first slot per pendant on its maximum."""
    a = canonical_adjacency(g, f)
    if pendants:
        a = _insert_pendants("insert-pendant-pair", a, pendants, 0, a.num_rows - 1, False)
    return a


def _pendant_augmented_double(
    g: Graph, f: Labeling, rows_to_add: int, cols_to_add: int
) -> LabeledMatrix:
    """A piece's double with new first rows on its last column and new first
    columns on its last row, one per pendant."""
    d = double_matrix(g, f, g.num_edges)
    if rows_to_add:
        d = _insert_pendants("insert-pendant-row", d, rows_to_add, 0, d.num_cols - 1, False)
    if cols_to_add:
        d = _insert_pendants("insert-pendant-column", d, cols_to_add, 0, d.num_rows - 1, True)
    return d


def label_pairwise_linked(
    t: Graph, budget: SearchBudget | None = None, lob: Lobster | None = None
) -> Certificate:
    """Certified graceful labeling of a pairwise linked lobster.

    Pieces come from suffix peeling, already labeled glue-max; the pieces
    are merged max-into-max along the spine, and leftover pendants enter as
    fresh extreme rows of their part blocks.
    """
    found = _linked_pieces(lobster_decompose(t) if lob is None else lob, budget)
    if found is None:
        raise ConstructionError("no linked decomposition found")
    chosen, pieces = found
    head_g, head_f = pieces[0]
    head_mat = _pendant_augmented_adjacency(head_g, head_f, len(chosen.pendants[0]))
    doubles = [
        _pendant_augmented_double(g, f, len(chosen.pendants[i]), 0)
        for i, (g, f) in enumerate(pieces[1:], start=1)
    ]
    matrix, _ = merge_chain_matrix(head_mat, doubles)
    return _certify_tree(
        "pairwise-linked", CLAIM_BETA, matrix, t, None, {"pieces": len(pieces)}
    )


def _similar_parts(
    chosen: Lobster, budget: SearchBudget | None
) -> tuple[list[Part], list[int]]:
    """Glue-max labeled parts for the pairwise similar pipeline.

    Returns one (graph, labeling) per lobe pair (plus the unpaired final
    lobe for odd spines); a lobe with an even branch count has one pendant
    promoted into it to fix the parity.  Also returns the leftover pendant
    count per spinal position.
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
        res = label_glue_max(g, index[glue], budget)
        if res.status != FOUND:
            raise ConstructionError(
                f"no glue-max labeling for the lobe at spine vertex "
                f"{glue} (status {res.status})"
            )
        parts.append((g, res.labeling))
    return parts, leftover


def label_pairwise_similar(
    t: Graph, budget: SearchBudget | None = None, lob: Lobster | None = None
) -> Certificate:
    """Certified graceful labeling of a pairwise similar lobster.

    Consecutive lobes pair up; each pair is served by one glue-max labeled
    lobe plus its implicit copy.  Even spines chain the doubled lobes
    critical-to-max; odd spines close the chain with the final lobe as an
    adjacency block, around which the chain is embedded.  Promoted pendants
    fix even branch counts before the lobes are labeled; the rest return
    through pendant insertions.
    """
    chosen = _similar_direction(lobster_decompose(t) if lob is None else lob)
    if chosen is None:
        raise ConstructionError("lobster is not pairwise similar")
    parts, leftover = _similar_parts(chosen, budget)
    r = chosen.spine_length
    pairs = parts[: r // 2]
    if not pairs:
        raise ConstructionError(
            "single-lobe similar lobster: use the linked pipeline instead"
        )
    # pair p's copy hangs at spine position 2p and its original at 2p+1
    mats = [
        _pendant_augmented_double(g, f, leftover[2 * p], leftover[2 * p + 1])
        for p, (g, f) in enumerate(pairs)
    ]
    matrix, _ = chain_km_matrix(mats)
    if r % 2:
        tail_g, tail_f = parts[-1]
        tail_mat = _pendant_augmented_adjacency(tail_g, tail_f, leftover[-1])
        matrix, _ = copy_chain_matrix(matrix, tail_mat)
    return _certify_tree(
        "pairwise-similar", CLAIM_BETA, matrix, t, None, {"spine": r}
    )


def label_pairwise_balanced(
    t: Graph, budget: SearchBudget | None = None, lob: Lobster | None = None
) -> Certificate:
    """Certified complete alpha labeling of a pairwise balanced lobster.

    Each consecutive spinal pair becomes a balanced two-spined piece labeled
    explicitly; the pieces chain critical-to-max, which recreates the spine.
    Nothing is searched, so budget is unused.
    """
    lob = lobster_decompose(t) if lob is None else lob
    specs = _balanced_specs(lob)

    def in_spec_order(lobe: Sequence[Branch], leaf_counts: Sequence[int]) -> list[Branch]:
        # lobster_decompose sorts a lobe by (leaf count, center), so equal
        # branches take the slots of their count in center order
        pool = {c: iter([br for br in lobe if br.leaf_count == c]) for c in set(leaf_counts)}
        return [next(pool[c]) for c in leaf_counts]

    pieces = [
        _balanced_piece(
            lob.spine[i], lob.spine[i + 1], lob.pendants[i], lob.pendants[i + 1],
            in_spec_order(lob.lobes[i], spec.head_leaves),
            in_spec_order(lob.lobes[i + 1], spec.tail_leaves),
        )
        for i, spec in zip(range(0, lob.spine_length, 2), specs)
    ]
    matrix, landed = chain_km_matrix([canonical_biadjacency(*part) for part, _ in pieces])
    input_map = {
        v: where[lab] for (_, label), where in zip(pieces, landed) for v, lab in label.items()
    }
    return _certify_tree(
        "pairwise-balanced",
        CLAIM_COMPLETE_ALPHA,
        matrix,
        t,
        input_map,
        {"pieces": len(specs)},
    )


# -- the dispatcher ----------------------------------------------------------------


# The constructive routes in dispatch order, keyed by their --strategy name:
# (construction name, route(t, budget, lob)); a route decomposes t itself
# when lob is None.
ROUTES = {
    "balanced": ("pairwise-balanced", label_pairwise_balanced),
    "linked": ("pairwise-linked", label_pairwise_linked),
    "similar": ("pairwise-similar", label_pairwise_similar),
}


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
    status says whether it was exhausted or ran out of budget.  A non-tree
    is refused before any search, as the other routes refuse it.
    """
    require_tree(t)
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

    Routes: caterpillar sweep, then the ROUTES table (pairwise balanced,
    linked, similar) over one decomposition of t, then exhaustive search
    within the budget.  The first verified certificate wins; otherwise a
    report lists each route's failure.
    """
    kind = classify_tree(t)
    if kind not in (SINGLE_VERTEX, PATH, CATERPILLAR, LOBSTER):
        raise GraphStructureError("tree is deeper than a lobster")
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
    reasons = [("caterpillar", "tree is a proper lobster")]
    lob = lobster_decompose(t)
    for name, route in ROUTES.values():
        try:
            return route(t, budget, lob)
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
