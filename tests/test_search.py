"""Exhaustive search: behaviour cases plus a recorded snapshot.

`test_search_matches_recording` compares statuses, node counts and
labelings with fixtures/golden/search.json.  To re-record after an
intended change to the search:

    PYTHONPATH=src python tests/test_search.py
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from lobsterlab.canonical import free_code
from lobsterlab.errors import GraphStructureError
from lobsterlab.graphs import build_graph
from lobsterlab.labelings import verify_alpha, verify_beta
from lobsterlab.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
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


def permutation_count(g):
    """Graceful labelings counted by trying every injection into 0..m."""
    m = g.num_edges
    edges = list(g.edges)
    return sum(
        len({abs(f[u] - f[v]) for u, v in edges}) == m
        for f in itertools.permutations(range(m + 1), g.num_vertices)
    )


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestBruteForceGraceful:
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

    def test_deterministic(self, tree9):
        a = brute_force_graceful(tree9)
        b = brute_force_graceful(tree9)
        assert a.labeling.assignment == b.labeling.assignment


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
    """What the four searches return on every small tree and on capped runs."""
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
    return {"trees": trees, "random_trees": random_trees}


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
