from __future__ import annotations

import random

import pytest

from lobsterlab.errors import LabelingInputError
from lobsterlab.graphs import bipartition, build_graph
from lobsterlab.labelings import (
    Labeling,
    alpha_labeling,
    augment_hat,
    beta_labeling,
    verify_alpha,
    verify_beta,
)
from lobsterlab.matrices import canonical_adjacency, is_graceful_grid, matrix_to_graph


def alpha_parts_are_bipartition(g, f, k):
    """The alpha split, labels <= k against labels > k, is a 2-coloring."""
    if bipartition(g) is None:
        return False
    low = {v for v in g.vertices() if f.assignment[v] <= k}
    return all((u in low) != (v in low) for u, v in g.edges)


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def identity_labeling(g):
    return beta_labeling({v: v for v in g.vertices()})


class TestAugment:
    def test_tree_unchanged(self, tree9):
        assert augment_hat(tree9) == tree9

    def test_cycle_gains_one(self):
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        hat = augment_hat(c4)
        assert hat.num_vertices == 5 and hat.edges == c4.edges

    def test_too_many_vertices(self):
        empty3 = build_graph(3, [])
        with pytest.raises(LabelingInputError):
            augment_hat(empty3)


class TestVerifyBeta:
    def test_fixture_tree(self, tree9, tree9_labels):
        assert verify_beta(tree9, tree9_labels)

    def test_k2(self):
        k2 = build_graph(2, [(0, 1)])
        assert verify_beta(k2, beta_labeling({0: 0, 1: 1}))

    def test_duplicate_edge_label(self):
        p3 = path_graph(3)
        verdict = verify_beta(p3, beta_labeling({0: 0, 1: 1, 2: 2}))
        assert not verdict
        assert verdict.code == "duplicate-edge-label"
        assert "1" in verdict.detail

    def test_out_of_range(self):
        k2 = build_graph(2, [(0, 1)])
        assert verify_beta(k2, beta_labeling({0: 0, 1: 2})).code == "label-out-of-range"
        assert verify_beta(k2, beta_labeling({0: 0, 1: 2}), max_label=2)

    def test_duplicate_vertex_label(self):
        p3 = path_graph(3)
        v = verify_beta(p3, beta_labeling({0: 0, 1: 0, 2: 1}))
        assert v.code == "duplicate-vertex-label"


class TestVerifyAlpha:
    def test_two_spined_lobster(self, lobster28_matrix):
        g, f = matrix_to_graph(lobster28_matrix)
        verdict = verify_alpha(g, f)
        assert verdict and verdict.critical == 14

    def test_k2(self):
        k2 = build_graph(2, [(0, 1)])
        verdict = verify_alpha(k2, beta_labeling({0: 0, 1: 1}))
        assert verdict and verdict.critical == 0

    def test_graceful_but_not_alpha(self):
        # path 3-1-0-2-4 labeled (0,2,4,3,1): graceful, but no k straddles
        # both (0,2) and (2,3); frozen from exhaustive enumeration
        t = build_graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        f = beta_labeling({0: 0, 1: 2, 2: 4, 3: 3, 4: 1})
        assert verify_beta(t, f)
        verdict = verify_alpha(t, f)
        assert not verdict and verdict.code == "alpha-straddle"

    def test_odd_cycle_never_alpha(self):
        c3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        f = beta_labeling({0: 0, 1: 1, 2: 3})
        assert verify_beta(c3, f)
        assert verify_alpha(c3, f).code == "alpha-straddle"

    def test_alpha_implies_beta(self):
        rng = random.Random(7)
        from lobsterlab.search import brute_force_alpha, enumerate_trees

        trees = [t for n in range(2, 8) for t in enumerate_trees(n)]
        for t in rng.sample(trees, 10):
            res = brute_force_alpha(t)
            if res:
                assert verify_beta(t, res.labeling)
                k = verify_alpha(t, res.labeling).critical
                assert alpha_parts_are_bipartition(t, res.labeling, k)

    def test_claimed_critical_cross_checked(self):
        k2 = build_graph(2, [(0, 1)])
        bad = alpha_labeling({0: 0, 1: 1}, critical=1)
        assert verify_alpha(k2, bad).code == "critical-mismatch"


class TestGridEquivalence:
    """A labeling is graceful iff its canonical adjacency grid is graceful."""

    def test_randomized_equivalence(self):
        rng = random.Random(99)
        from lobsterlab.search import enumerate_trees

        trees = [t for n in range(2, 8) for t in enumerate_trees(n)]
        for _ in range(200):
            t = rng.choice(trees)
            m = t.num_edges
            labels = rng.sample(range(m + 1), t.num_vertices)
            f = beta_labeling({v: labels[v] for v in t.vertices()})
            grid_ok = bool(is_graceful_grid(canonical_adjacency(t, f)))
            assert grid_ok == bool(verify_beta(t, f))

    def test_broken_labeling_fails_both_ways(self, tree9, tree9_labels):
        swapped = dict(tree9_labels.assignment)
        # edge (1,8) now reads |2-8| = 6, colliding with edge (0,6)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        f = Labeling(swapped)
        assert not verify_beta(tree9, f)
        assert not is_graceful_grid(canonical_adjacency(tree9, f))
