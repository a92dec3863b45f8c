from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_text, random_balanced_spec
from lobsterlab.errors import ConstructionError, GraphStructureError
from lobsterlab.formats import print_matrix
from lobsterlab.graphs import build_graph, is_tree, tree_diameter
from lobsterlab.labelings import verify_alpha, verify_beta
from lobsterlab.lobsters import Branch, Lobster, lobster_decompose, reassemble
from lobsterlab.matrices import matrix_to_graph
from lobsterlab.lobster_labeling import (
    BARE,
    ESSENTIALLY_EVEN,
    ESSENTIALLY_ODD,
    BalancedLobsterSpec,
    CoverageReport,
    balanced_sum_identity,
    classify_lobster,
    is_trivially_balanced,
    label_balanced_lobster,
    label_caterpillar,
    label_diameter4_center_max,
    label_lobster_auto,
    label_pairwise_balanced,
    label_pairwise_linked,
    label_pairwise_similar,
    label_star_lobe,
    spinal_parity,
    violated_balance_equation,
)
from lobsterlab.search import FOUND, SearchBudget, brute_force_graceful, enumerate_trees


def make_lobster(spine_lobes_pendants):
    nid = [0]

    def fresh():
        nid[0] += 1
        return nid[0] - 1

    spine = tuple(fresh() for _ in spine_lobes_pendants)
    lobes, pendants = [], []
    for counts, pend in spine_lobes_pendants:
        lobes.append(
            tuple(Branch(fresh(), tuple(fresh() for _ in range(c))) for c in counts)
        )
        pendants.append(tuple(fresh() for _ in range(pend)))
    return reassemble(Lobster(spine, tuple(lobes), tuple(pendants)))


class TestBalancedSpec:
    def test_fixture_spec_is_balanced(self):
        spec = BalancedLobsterSpec((2, 2, 3), (3, 3, 2), 3, 2)
        assert violated_balance_equation(spec) is None
        assert not is_trivially_balanced(spec)

    def test_unbalanced_single_branch(self):
        spec = BalancedLobsterSpec((2,), (3,), 0, 0)
        assert violated_balance_equation(spec) == (1, 1)

    def test_trivially_balanced_always_passes(self):
        for t in (1, 2, 5):
            for r in (1, 2, 3, 7):
                spec = BalancedLobsterSpec((t,) * r, (t,) * r, 1, 2)
                assert violated_balance_equation(spec) is None
                assert is_trivially_balanced(spec)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_generator_always_balanced(self, seed):
        spec = random_balanced_spec(random.Random(seed))
        assert violated_balance_equation(spec) is None


class TestSumIdentities:
    def test_fixture_clause_values(self):
        spec = BalancedLobsterSpec((2, 2, 3), (3, 3, 2), 3, 2)
        assert balanced_sum_identity(spec, 3, "i") == (5, 5)
        assert balanced_sum_identity(spec, 2, "iii") == (2, 2)

    def test_trivially_balanced_values(self):
        spec = BalancedLobsterSpec((3, 3, 3), (3, 3, 3), 0, 0)
        assert balanced_sum_identity(spec, 1, "ii") == (3, 3)

    def test_parity_mismatch(self):
        spec = BalancedLobsterSpec((3, 3, 3), (3, 3, 3), 0, 0)
        with pytest.raises(ConstructionError, match="odd"):
            balanced_sum_identity(spec, 2, "i")
        with pytest.raises(ConstructionError, match="even"):
            balanced_sum_identity(spec, 1, "iii")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_identities_hold_on_random_specs(self, seed):
        spec = random_balanced_spec(random.Random(seed))
        r = spec.branches_per_side
        for i in range(1, r + 1):
            clauses = ("i", "ii") if i % 2 == 1 else ("iii", "iv")
            for clause in clauses:
                left, right = balanced_sum_identity(spec, i, clause)
                assert left == right


class TestLabelBalanced:
    def test_two_spined_fixture_byte_exact(self):
        spec = BalancedLobsterSpec((2, 2, 3), (3, 3, 2), 3, 2)
        cert = label_balanced_lobster(spec)
        assert cert.critical == 14
        assert cert.result_graph.num_edges == 27
        assert print_matrix(cert.result_matrix) == fixture_text("lobster28_biadj.txt")

    def test_uniform_fixture_byte_exact(self):
        spec = BalancedLobsterSpec((3, 3, 3), (3, 3, 3), 0, 0)
        cert = label_balanced_lobster(spec)
        assert cert.critical == 12
        assert cert.result_graph.num_edges == 25
        assert print_matrix(cert.result_matrix) == fixture_text("lobster26_biadj.txt")

    def test_no_branches_gives_p4(self):
        cert = label_balanced_lobster(BalancedLobsterSpec((), (), 1, 1))
        assert cert.critical == 1
        assert cert.result_graph.num_edges == 3
        from lobsterlab.graphs import classify_tree

        assert classify_tree(cert.result_graph) == "path"

    def test_unbalanced_rejected(self):
        with pytest.raises(ConstructionError, match="equation 1 fails at index 1"):
            label_balanced_lobster(BalancedLobsterSpec((2,), (3,), 0, 0))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_formulas_hold_after_construction(self, seed):
        spec = random_balanced_spec(random.Random(seed), max_r=6, max_leaf=4)
        cert = label_balanced_lobster(spec)
        r = spec.branches_per_side
        assert cert.critical == spec.head_pendants + r + sum(spec.tail_leaves)
        assert cert.result_graph.num_edges == (
            spec.head_pendants
            + spec.tail_pendants
            + 2 * r
            + 1
            + sum(spec.head_leaves)
            + sum(spec.tail_leaves)
        )


class TestSpinalParity:
    def test_three_branches_odd(self):
        lob = lobster_decompose(make_lobster([([1, 1, 1], 0)]))
        assert spinal_parity(lob) == (ESSENTIALLY_ODD,)

    def test_two_branches_even(self):
        lob = lobster_decompose(make_lobster([([2, 2], 0)]))
        assert spinal_parity(lob) == (ESSENTIALLY_EVEN,)

    def test_only_pendants_bare(self):
        # interior spinal vertices with pendants only survive re-decomposition
        t = make_lobster([([2], 1), ([], 2), ([], 2), ([2], 1)])
        lob = lobster_decompose(t)
        assert BARE in spinal_parity(lob)


class TestStarLobe:
    def test_bare_branch(self):
        t = build_graph(2, [(0, 1)])
        f = label_star_lobe(t, 0)
        assert f.assignment == {1: 0, 0: 1}

    def test_three_leaves(self):
        t = build_graph(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
        f = label_star_lobe(t, 0)
        assert f.assignment[0] == 4
        assert verify_beta(t, f)

    def test_wrong_shape_rejected(self):
        deep = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphStructureError):
            label_star_lobe(deep, 0)


class TestDiameter4CenterMax:
    def test_star_center(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        res = label_diameter4_center_max(star, 0)
        assert res and res.labeling.assignment[0] == 3

    def test_single_vertex(self):
        t = build_graph(1, [])
        res = label_diameter4_center_max(t, 0)
        assert res and res.labeling.assignment == {0: 0}

    def test_wrong_shape_rejected(self):
        p6 = build_graph(6, [(i, i + 1) for i in range(5)])
        with pytest.raises(GraphStructureError, match="diameter"):
            label_diameter4_center_max(p6, 2)

    def test_odd_center_always_succeeds_up_to_nine(self):
        # exhaustive sweep: diameter-4 trees with odd-degree centers
        from lobsterlab.graphs import tree_centers

        checked = 0
        for n in range(5, 10):
            for t in enumerate_trees(n):
                if tree_diameter(t) != 4:
                    continue
                center = tree_centers(t)[0]
                if t.degree(center) % 2 == 0:
                    continue
                res = label_diameter4_center_max(t, center)
                assert res.status == FOUND
                assert res.labeling.assignment[center] == t.num_edges
                assert verify_beta(t, res.labeling)
                checked += 1
        assert checked > 0

    def test_even_center_failures_are_informative(self):
        # glue two one-leaf branches and one two-leaf branch minus one:
        # the shape with branches {1, 2} has no glue-max labeling
        t = build_graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)])
        res = label_diameter4_center_max(t, 0)
        assert res.status == "exhausted-none"


class TestCaterpillarSweep:
    def test_p4_expected_labels(self):
        p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        f = label_caterpillar(p4)
        assert [f.assignment[v] for v in range(4)] == [0, 3, 1, 2]
        assert f.critical == 1

    def test_star(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        f = label_caterpillar(star)
        verdict = verify_alpha(star, f)
        assert verdict and f.complete

    def test_lobster_rejected(self, lobster26_matrix):
        g, _ = matrix_to_graph(lobster26_matrix)
        with pytest.raises(GraphStructureError):
            label_caterpillar(g)

    def test_random_caterpillars_verify(self):
        rng = random.Random(5)
        for _ in range(25):
            spine_len = rng.randint(1, 5)
            t = make_lobster([([], rng.randint(0, 3)) for _ in range(spine_len)])
            if tree_diameter(t) < 1:
                continue
            from lobsterlab.graphs import classify_tree

            if classify_tree(t) not in ("path", "caterpillar", "single-vertex"):
                continue
            f = label_caterpillar(t)
            verdict = verify_alpha(t, f)
            assert verdict and verdict.critical == f.critical


class TestClassify:
    def test_uniform_lobster_flags(self, lobster26_matrix):
        g, _ = matrix_to_graph(lobster26_matrix)
        cls = classify_lobster(lobster_decompose(g))
        assert cls.pairwise_trivially_balanced
        assert cls.pairwise_balanced
        assert cls.pairwise_similar

    def test_shifted_lobster_all_flags_false(self, lobster26_shifted_matrix):
        g, _ = matrix_to_graph(lobster26_shifted_matrix)
        cls = classify_lobster(lobster_decompose(g))
        assert not cls.pairwise_isomorphic
        assert not cls.pairwise_similar
        assert not cls.pairwise_linked
        assert not cls.pairwise_balanced
        assert not cls.pairwise_trivially_balanced

    def test_shared_branch_shape_is_linked(self):
        # odd spine, essentially even interior, last lobe a single branch
        # contained in every earlier lobe
        t = make_lobster([([2, 3], 1), ([2, 3], 1), ([2], 0)])
        cls = classify_lobster(lobster_decompose(t))
        assert cls.pairwise_linked
        assert cls.linked_pieces is not None

    def test_classification_is_direction_stable(self):
        t = make_lobster([([1], 0), ([2, 1], 1), ([2, 1], 1)])
        lob = lobster_decompose(t)
        a = classify_lobster(lob)
        b = classify_lobster(lob.reversed())
        assert a.pairwise_similar == b.pairwise_similar
        assert a.pairwise_linked == b.pairwise_linked
        assert a.pairwise_balanced == b.pairwise_balanced


class TestPairwiseSimilar:
    def test_two_spine_single_branch(self):
        t = make_lobster([([2], 0), ([2], 0)])
        cert = label_pairwise_similar(t)
        assert cert.construction == "pairwise-similar"
        assert verify_beta(cert.result_graph, cert.result_labeling)
        assert brute_force_graceful(cert.result_graph)

    def test_odd_spine_mixed_branches_with_pendants(self):
        t = make_lobster([([2, 1, 3], 2), ([2, 1, 3], 1), ([1, 1, 2], 3)])
        cert = label_pairwise_similar(t)
        assert cert.result_graph.num_edges == t.num_edges

    def test_even_vertex_with_pendant_promotes(self):
        t = make_lobster([([2, 2], 1), ([2, 2], 2)])
        cert = label_pairwise_similar(t)
        assert cert.result_graph.num_edges == t.num_edges

    def test_even_vertex_without_pendant_rejected(self):
        t = make_lobster([([2, 2], 0), ([2, 2], 0)])
        with pytest.raises(ConstructionError, match="even branch count"):
            label_pairwise_similar(t)

    def test_not_similar_rejected(self):
        t = make_lobster([([1], 0), ([2], 0)])
        with pytest.raises(ConstructionError, match="not pairwise similar"):
            label_pairwise_similar(t)

    def test_oracle_cross_check_small(self):
        t = make_lobster([([1], 1), ([1], 0)])
        cert = label_pairwise_similar(t)
        if cert.result_graph.num_vertices <= 12:
            assert brute_force_graceful(cert.result_graph)


class TestPairwiseLinked:
    def test_two_spine(self):
        t = make_lobster([([1, 2, 2, 1, 1, 3], 1), ([1, 1, 3], 2)])
        cert = label_pairwise_linked(t)
        assert cert.construction == "pairwise-linked"
        assert verify_beta(cert.result_graph, cert.result_labeling)

    def test_three_spine(self):
        t = make_lobster([([3, 1], 0), ([1, 2], 2), ([2], 1)])
        cert = label_pairwise_linked(t)
        assert cert.result_graph.num_edges == t.num_edges

    def test_shared_branch_shape(self):
        t = make_lobster([([2, 3], 1), ([2, 3], 1), ([2], 0)])
        cert = label_pairwise_linked(t)
        assert cert.result_graph.num_edges == t.num_edges

    def test_shifted_lobster_rejected(self, lobster26_shifted_matrix):
        g, _ = matrix_to_graph(lobster26_shifted_matrix)
        with pytest.raises(ConstructionError, match="no linked decomposition"):
            label_pairwise_linked(g)


class TestPairwiseBalanced:
    def test_uniform_lobster_byte_exact(self, lobster26_matrix):
        g, _ = matrix_to_graph(lobster26_matrix)
        cert = label_pairwise_balanced(g)
        assert cert.critical == 12
        assert cert.result_graph.num_edges == 25
        assert print_matrix(cert.result_matrix) == fixture_text("lobster26_biadj.txt")

    def test_two_pieces_chained(self, lobster28_matrix):
        g, _ = matrix_to_graph(lobster28_matrix)
        lob = lobster_decompose(g)
        # weld two copies of the fixture piece into one four-spined lobster
        t = make_lobster(
            [
                ([2, 2, 3], 3),
                ([3, 3, 2], 2),
                ([2, 2, 3], 3),
                ([3, 3, 2], 2),
            ]
        )
        cert = label_pairwise_balanced(t)
        assert cert.critical == 14 + 14 + 1
        assert lobster_decompose(cert.result_graph).spine_length == 4

    def test_odd_spine_rejected(self):
        t = make_lobster([([1], 0), ([1], 0), ([1], 0)])
        with pytest.raises(ConstructionError, match="even spine"):
            label_pairwise_balanced(t)

    def test_unbalanced_pair_rejected(self, lobster26_shifted_matrix):
        g, _ = matrix_to_graph(lobster26_shifted_matrix)
        with pytest.raises(ConstructionError, match="balanced"):
            label_pairwise_balanced(g)


class TestAutoDispatcher:
    def test_uniform_lobster_goes_balanced(self, lobster26_matrix):
        g, _ = matrix_to_graph(lobster26_matrix)
        cert = label_lobster_auto(g)
        assert cert.construction == "pairwise-balanced"

    def test_shifted_lobster_reports_no_coverage(self, lobster26_shifted_matrix):
        g, _ = matrix_to_graph(lobster26_shifted_matrix)
        report = label_lobster_auto(g)
        assert isinstance(report, CoverageReport)
        names = [name for name, _ in report.reasons]
        assert "search" in names and not report.covered

    def test_shifted_lobster_with_raised_budget_searches(self, lobster26_shifted_matrix):
        # the matrix fixture itself proves a labeling exists (it feeds the
        # verifier, not the solver); with a raised-but-small budget the
        # search route must run and report its budget honestly
        g, _ = matrix_to_graph(lobster26_shifted_matrix)
        budget = SearchBudget(max_vertices=30, max_nodes=2_000_000, time_limit=5)
        result = label_lobster_auto(g, budget)
        if isinstance(result, CoverageReport):
            assert dict(result.reasons)["search"] == "budget-exceeded"
        else:
            assert result.construction == "search"

    def test_path_goes_caterpillar(self):
        p5 = build_graph(5, [(i, i + 1) for i in range(4)])
        cert = label_lobster_auto(p5)
        assert cert.construction == "caterpillar-sweep"

    def test_search_fallback_on_tiny_uncovered(self):
        # lobster whose single pair is unbalanced, not similar, pieces
        # even-degree: falls through to search
        t = make_lobster([([1, 2], 0), ([1, 1], 0)])
        result = label_lobster_auto(t)
        assert not isinstance(result, CoverageReport)
        assert result.construction in (
            "search",
            "pairwise-linked",
            "pairwise-similar",
            "pairwise-balanced",
        )

    def test_single_branch_piece_above_the_vertex_budget(self):
        # the shed piece {14} has 16 vertices, more than the default
        # budget's 14, but a single branch needs no search
        t = make_lobster([([2, 14], 1), ([2], 0)])
        cert = label_lobster_auto(t)
        assert cert.construction == "pairwise-linked"
        assert verify_beta(cert.result_graph, cert.result_labeling)

    def test_deeper_tree_rejected(self):
        legs = build_graph(
            10,
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)],
        )
        with pytest.raises(GraphStructureError):
            label_lobster_auto(legs)


class TestRoundTripInvariant:
    """Certificates must reproduce the input lobster under their id map."""

    def test_random_similar_lobsters(self):
        rng = random.Random(77)
        for _ in range(10):
            counts = sorted(rng.sample([1, 1, 2, 2, 3], rng.choice([1, 3])))
            pend = rng.randint(0, 2)
            pairs = rng.randint(1, 2)
            shape = []
            for _ in range(pairs):
                shape.append((list(counts), pend))
                shape.append((list(counts), rng.randint(0, 2)))
            t = make_lobster(shape)
            cert = label_pairwise_similar(t)
            vmap = cert.vertex_maps[0]
            mapped = {
                tuple(sorted((vmap[u], vmap[v]))) for u, v in t.edges
            }
            assert mapped == set(cert.result_graph.edges)


class TestTreeCertificate:
    def test_result_larger_than_the_input_rejected(self):
        from lobsterlab.constructions import CLAIM_BETA, _certify
        from lobsterlab.labelings import beta_labeling
        from lobsterlab.lobster_labeling import _certify_tree
        from lobsterlab.matrices import canonical_adjacency

        p3 = build_graph(3, [(0, 1), (1, 2)])
        p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        matrix = canonical_adjacency(p4, beta_labeling({0: 0, 1: 3, 2: 1, 3: 2}))
        ids = {0: 0, 1: 1, 2: 2}
        # an injective, edge-preserving map into a bigger tree is a valid
        # embedding, but not a labeling of the input lobster itself
        assert _certify("probe", CLAIM_BETA, matrix, [p3], [ids])
        with pytest.raises(ConstructionError, match="size differs"):
            _certify_tree("probe", CLAIM_BETA, matrix, p3, ids, {})


class TestGlueMaxSearchCalls:
    """The linked route labels each piece while peeling, never twice."""

    @pytest.fixture()
    def searched(self, monkeypatch):
        import lobsterlab.lobster_labeling as ll

        sizes: list[int] = []
        original = ll.search_graceful_with_fixed

        def counting(g, fixed, budget=None):
            sizes.append(g.num_vertices)
            return original(g, fixed, budget)

        monkeypatch.setattr(ll, "search_graceful_with_fixed", counting)
        return sizes

    def test_one_search_per_multi_vertex_piece(self, searched):
        t = make_lobster([([1, 2, 2, 1, 1, 3], 1), ([1, 1, 3], 2)])
        cert = label_pairwise_linked(t)
        assert cert.details["pieces"] == 2
        # pieces {1, 1, 3} and the shed remainder {1, 2, 2}, first direction
        assert sorted(searched) == [9, 9]

    def test_single_vertex_piece_is_not_searched(self, searched):
        t = make_lobster([([1, 1, 1], 0), ([1, 1, 1], 0)])
        cert = label_pairwise_linked(t)
        assert cert.details["pieces"] == 2
        assert searched == [7]

    def test_single_branch_piece_is_not_searched(self, searched):
        t = make_lobster([([2, 14], 1), ([2], 0)])
        cert = label_pairwise_linked(t)
        assert cert.details["pieces"] == 2
        assert searched == []

    def test_failed_direction_searches_until_it_fails(self, searched):
        # the last lobe {1, 2} has no glue-max labeling in either direction
        t = make_lobster([([1, 2], 0), ([1, 2], 0)])
        with pytest.raises(ConstructionError, match="no linked decomposition"):
            label_pairwise_linked(t)
        assert searched == [6, 6]
