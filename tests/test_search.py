"""Exhaustive search: behaviour cases plus a recorded snapshot.

`test_search_matches_recording` compares statuses, node counts and
labelings with fixtures/golden/search.json.  To re-record after an
intended change to the search:

    PYTHONPATH=src python tests/test_search.py
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lobsterlab.canonical import free_code
from lobsterlab.errors import GraphStructureError
from lobsterlab.graphs import build_graph
from lobsterlab.labelings import verify_alpha, verify_beta
from lobsterlab.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    VERTEX_CEILING,
    SearchBudget,
    brute_force_alpha,
    brute_force_graceful,
    count_graceful_labelings,
    enumerate_trees,
    prufer_to_tree,
    search_graceful_with_fixed,
)

SEARCH_GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "search.json"

TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}


def count_trees_via_prufer(n):
    """Independent tree count: decode every sequence, dedupe by code."""
    if n == 1 or n == 2:
        return 1
    codes = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        codes.add(free_code(prufer_to_tree(seq, n)))
    return len(codes)


def graceful_injections(g):
    """Every injection into 0..m (a tuple indexed by vertex) that is graceful."""
    m = g.num_edges
    edges = list(g.edges)
    return (
        f for f in itertools.permutations(range(m + 1), g.num_vertices)
        if len({abs(f[u] - f[v]) for u, v in edges}) == m
    )


def permutation_count(g):
    """Graceful labelings counted by trying every injection into 0..m."""
    return sum(1 for _ in graceful_injections(g))


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# Graphs whose later vertices meet several placed neighbours in the search
# order, so the snapshot reaches that path as well as the trees' one-edge one.
NON_TREES = {
    **{f"C{n}": cycle_graph(n) for n in range(3, 9)},
    "K4": complete_graph(4),
    "K2,3": complete_bipartite(2, 3),
    "C4 with two pendants": build_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5)]),
    "C3 and K2": build_graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
}


class TestBruteForceGraceful:
    def test_empty_graph(self):
        empty = build_graph(0, [])
        for res in (brute_force_graceful(empty), brute_force_alpha(empty),
                    search_graceful_with_fixed(empty, {})):
            assert res and res.labeling.assignment == {} and res.nodes == 0
        assert count_graceful_labelings(empty) == 1

    def test_k2(self):
        res = brute_force_graceful(build_graph(2, [(0, 1)]))
        assert res and set(res.labeling.assignment.values()) == {0, 1}

    def test_c5_has_none(self):
        res = brute_force_graceful(cycle_graph(5))
        assert res.status == EXHAUSTED

    def test_k4_label_set(self):
        res = brute_force_graceful(complete_graph(4))
        assert res
        labels = sorted(res.labeling.assignment.values())
        assert labels == [0, 1, 4, 6]
        # edge labels come out as exactly 1..6
        diffs = sorted(abs(a - b) for a in labels for b in labels if a < b)
        assert diffs == [1, 2, 3, 4, 5, 6]

    def test_self_consistency(self, tree9):
        res = brute_force_graceful(tree9)
        assert res and verify_beta(tree9, res.labeling)

    def test_too_many_vertices_exhausts(self):
        assert brute_force_graceful(build_graph(3, [])).status == EXHAUSTED

    def test_symmetry_pruning_complete_on_small_graphs(self):
        graphs = [t for n in range(1, 9) for t in enumerate_trees(n)]
        for g in graphs + [cycle_graph(5)]:
            expected = permutation_count(g)
            assert count_graceful_labelings(g) == expected
            assert bool(brute_force_graceful(g)) == (expected > 0)

    def test_budget(self):
        tiny = SearchBudget(max_vertices=3)
        res = brute_force_graceful(path_graph(5), tiny)
        assert res.status == BUDGET_EXCEEDED

    @pytest.mark.parametrize("field", ["max_vertices", "max_nodes", "time_limit"])
    @pytest.mark.parametrize("value", [0, -1, float("nan")])
    def test_budget_fields_must_be_positive(self, field, value):
        # NaN compares false both ways, so it must not slip past as "positive"
        with pytest.raises(ValueError, match="positive"):
            SearchBudget(**{field: value})

    def test_vertex_ceiling(self):
        assert SearchBudget(max_vertices=VERTEX_CEILING).max_vertices == 500
        with pytest.raises(ValueError, match="at most 500"):
            SearchBudget(max_vertices=VERTEX_CEILING + 1)

    def test_search_reaches_full_depth_at_the_ceiling(self):
        # the alpha search on K1,499 labels all 500 vertices in 500 nodes,
        # one recursion level each
        star = complete_bipartite(1, 499)
        res = brute_force_alpha(star, SearchBudget(max_vertices=VERTEX_CEILING))
        assert res and res.nodes == 500 and verify_alpha(star, res.labeling)

    def test_deterministic(self, tree9):
        a = brute_force_graceful(tree9)
        b = brute_force_graceful(tree9)
        assert a.labeling.assignment == b.labeling.assignment


@st.composite
def pinned_graphs(draw):
    """A graph with n <= 6 and n - 1 <= m <= 8, up to three pins labeled in 0..m.

    With m >= n - 1 the search has room for every vertex, so it never
    stops at its vertex-count pre-check; the edges may still leave it
    disconnected.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n - 1,
                          max_size=8)) if pairs else []
    g = build_graph(n, edges)
    pinned = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3))
    return g, {v: draw(st.integers(0, g.num_edges)) for v in pinned}


@settings(max_examples=150, deadline=None)
@given(pinned_graphs())
@example((cycle_graph(5), {}))
@example((cycle_graph(4), {0: 4, 2: 0}))
@example((complete_graph(4), {0: 0, 1: 6}))
@example((build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)]), {4: 3}))
@example((NON_TREES["C3 and K2"], {3: 4}))
def test_pinned_search_agrees_with_permutation_oracle(case):
    g, fixed = case
    res = search_graceful_with_fixed(g, fixed)
    expected = any(
        all(f[v] == lab for v, lab in fixed.items()) for f in graceful_injections(g)
    )
    assert res.status == (FOUND if expected else EXHAUSTED)
    if res:
        assert verify_beta(g, res.labeling)
        assert all(res.labeling.assignment[v] == lab for v, lab in fixed.items())


def straddled(g, f):
    """True iff some k has every edge's labels on either side of it (alpha)."""
    return any(
        all(min(f[u], f[v]) <= k < max(f[u], f[v]) for u, v in g.edges)
        for k in range(g.num_edges + 1)
    )


@settings(max_examples=150, deadline=None)
@given(pinned_graphs())
@example((cycle_graph(5), {}))
@example((cycle_graph(6), {}))
@example((complete_graph(4), {}))
@example((NON_TREES["K2,3"], {}))
@example((NON_TREES["C3 and K2"], {}))
@example((build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)]), {}))
@example((build_graph(6, [(0, 1), (0, 2), (0, 3), (4, 5), (1, 4)]), {}))
def test_graceful_and_alpha_agree_with_permutation_oracle(case):
    # the pins are ignored: this checks the unpinned searches, symmetry cuts
    # and complement cut included, on trees, cycles and disconnected graphs
    g, _ = case
    injections = list(graceful_injections(g))
    graceful = brute_force_graceful(g)
    assert graceful.status == (FOUND if injections else EXHAUSTED)
    if graceful:
        assert verify_beta(g, graceful.labeling)
    alpha = brute_force_alpha(g)
    expected = any(straddled(g, f) for f in injections)
    assert alpha.status == (FOUND if expected else EXHAUSTED)
    if alpha:
        assert verify_alpha(g, alpha.labeling)


def cycle_with_pendants(n, k):
    """Cn with k twin pendant leaves on vertex 0."""
    return build_graph(n + k, [(i, (i + 1) % n) for i in range(n)]
                       + [(0, n + j) for j in range(k)])


@settings(max_examples=150, deadline=None)
@given(pinned_graphs())
@example((cycle_with_pendants(3, 1), {}))
@example((cycle_with_pendants(3, 2), {}))
@example((cycle_with_pendants(3, 3), {}))
@example((cycle_with_pendants(4, 1), {}))
@example((cycle_with_pendants(4, 2), {}))
@example((cycle_with_pendants(4, 3), {}))
@example((cycle_with_pendants(5, 1), {}))
@example((cycle_with_pendants(5, 2), {}))
@example((cycle_with_pendants(5, 3), {}))
@example((NON_TREES["C3 and K2"], {}))
@example((build_graph(4, [(0, 1), (1, 2), (0, 2)]), {}))  # C3 and an isolated vertex
def test_count_agrees_with_permutation_oracle(case):
    # the pins are ignored: this checks the count on trees, cycles with twin
    # pendants and disconnected graphs
    g, _ = case
    assert count_graceful_labelings(g) == permutation_count(g)


class TestTimeLimit:
    # Inputs that need more than 4096 nodes whatever order labels are tried
    # in: C9 and C10 have no graceful labeling, so the graceful search on C9
    # is exhausted after 223 870 nodes and the alpha search on C10 after
    # 53 533 (over every k of its one side).
    SLOW = {
        brute_force_graceful: cycle_graph(9),
        brute_force_alpha: cycle_graph(10),
    }

    @pytest.mark.parametrize("search", [brute_force_graceful, brute_force_alpha])
    def test_clock_read_at_node_4096_ends_the_search(self, search):
        res = search(self.SLOW[search], SearchBudget(max_nodes=10**9, time_limit=1e-9))
        assert (res.status, res.nodes) == (BUDGET_EXCEEDED, 4096)

    @pytest.mark.parametrize("search", [brute_force_graceful, brute_force_alpha])
    def test_no_clock_read_before_node_4096(self, search):
        res = search(path_graph(6), SearchBudget(time_limit=1e-9))
        assert res and res.nodes < 4096


class TestBruteForceAlpha:
    def test_p4(self):
        p4 = path_graph(4)
        res = brute_force_alpha(p4)
        assert res
        verdict = verify_alpha(p4, res.labeling)
        assert verdict and verdict.critical == 1

    def test_odd_cycle_fails_fast(self):
        res = brute_force_alpha(cycle_graph(5))
        assert res.status == EXHAUSTED and res.nodes == 0

    def test_alpha_success_implies_graceful_success(self):
        for n in range(2, 8):
            for t in enumerate_trees(n):
                if brute_force_alpha(t):
                    assert brute_force_graceful(t)

    def test_self_consistency(self, lobster26_matrix):
        from lobsterlab.matrices import matrix_to_graph

        g, _ = matrix_to_graph(lobster26_matrix)
        res = brute_force_alpha(g, SearchBudget(max_vertices=30, time_limit=30))
        assert res and verify_alpha(g, res.labeling)


class TestCounts:
    def test_k2(self):
        assert count_graceful_labelings(build_graph(2, [(0, 1)])) == 2

    def test_p3_hand_enumeration(self):
        assert count_graceful_labelings(path_graph(3)) == 4

    def test_single_vertex(self):
        assert count_graceful_labelings(build_graph(1, [])) == 1

    @pytest.mark.parametrize("k", range(1, 10))
    def test_star_counts_both_centre_labels_times_leaf_orders(self, k):
        # the centre takes 0 or k, and the leaves any order of the rest
        assert count_graceful_labelings(complete_bipartite(1, k)) == 2 * math.factorial(k)

    def test_star_counts_one_labeling_per_orbit(self):
        # counting all 725 760 labelings of K1,9 one by one takes over 3 M nodes
        budget = SearchBudget(max_vertices=10, max_nodes=10_000)
        assert count_graceful_labelings(complete_bipartite(1, 9), budget) == 725_760


class TestEnumerateTrees:
    def test_counts(self):
        for n, expected in TREE_COUNTS.items():
            assert sum(1 for _ in enumerate_trees(n)) == expected

    def test_prufer_oracle_agrees(self):
        for n in range(2, 8):
            assert count_trees_via_prufer(n) == TREE_COUNTS[n]

    def test_range_check(self):
        with pytest.raises(GraphStructureError):
            list(enumerate_trees(0))
        with pytest.raises(GraphStructureError):
            list(enumerate_trees(11))

    def test_deterministic_order(self):
        a = [t.sorted_edges() for t in enumerate_trees(7)]
        b = [t.sorted_edges() for t in enumerate_trees(7)]
        assert a == b

    def test_every_small_tree_is_graceful(self):
        # the conjecture checked at desk scale: a property run, not a proof
        for n in range(1, 10):
            for t in enumerate_trees(n):
                assert brute_force_graceful(t)


def _labels(res):
    if res.labeling is None:
        return None
    return [res.labeling.assignment[v] for v in sorted(res.labeling.assignment)]


def _search_snapshot() -> dict:
    """What the four searches return on small trees and graphs and on capped runs."""
    trees = []
    for n in range(1, 10):
        for t in enumerate_trees(n):
            graceful = brute_force_graceful(t)
            alpha = brute_force_alpha(t)
            pinned = search_graceful_with_fixed(t, {0: t.num_edges})
            trees.append({
                "edges": t.sorted_edges(),
                "graceful": [graceful.status, graceful.nodes, _labels(graceful)],
                "alpha": [alpha.status, alpha.nodes, _labels(alpha),
                          alpha.labeling and alpha.labeling.critical],
                "pinned": [pinned.status, _labels(pinned)],
                "count": count_graceful_labelings(t) if n <= 8 else None,
            })
    pinned = []
    for n in range(1, 10):
        for t in enumerate_trees(n):
            m = t.num_edges
            one = search_graceful_with_fixed(t, {0: m})
            row = {"edges": t.sorted_edges(), "one_pin": [one.status, one.nodes]}
            if n > 1:
                # the second pin sits on a neighbour of the first
                pins = {0: m, t.neighbors(0)[-1]: 0}
                two = search_graceful_with_fixed(t, pins)
                row["two_pins"] = [sorted(pins.items()), two.status, two.nodes,
                                   _labels(two)]
            pinned.append(row)
    non_trees = []
    for name, g in NON_TREES.items():
        graceful = brute_force_graceful(g)
        alpha = brute_force_alpha(g)
        one = search_graceful_with_fixed(g, {0: g.num_edges})
        non_trees.append({
            "name": name,
            "edges": g.sorted_edges(),
            "graceful": [graceful.status, graceful.nodes, _labels(graceful)],
            "alpha": [alpha.status, alpha.nodes, _labels(alpha),
                      alpha.labeling and alpha.labeling.critical],
            "pinned": [one.status, one.nodes, _labels(one)],
            "count": count_graceful_labelings(g),
        })
    rng = random.Random(5)
    capped = SearchBudget(max_vertices=16, max_nodes=10_000)
    random_trees = []
    for _ in range(20):
        n = rng.randint(12, 16)
        t = prufer_to_tree(tuple(rng.randrange(n) for _ in range(n - 2)), n)
        graceful = brute_force_graceful(t, capped)
        alpha = brute_force_alpha(t, capped)
        random_trees.append({
            "edges": t.sorted_edges(),
            "graceful": [graceful.status, graceful.nodes],
            "alpha": [alpha.status, alpha.nodes],
        })
    # new sections go before "random_trees" so a re-recording only adds rows
    return {"trees": trees, "pinned": pinned, "non_trees": non_trees,
            "random_trees": random_trees}


def test_search_matches_recording():
    recorded = json.loads(SEARCH_GOLDEN.read_text())
    # the JSON round trip turns the snapshot's tuples into lists
    assert json.loads(json.dumps(_search_snapshot())) == recorded


def _record() -> None:
    """One JSON line per tree, so a re-recording diffs tree by tree."""
    snapshot = _search_snapshot()
    lines = []
    for key, rows in snapshot.items():
        body = ",\n".join(json.dumps(row) for row in rows)
        lines.append(f"{json.dumps(key)}: [\n{body}\n]")
    SEARCH_GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(_record())
