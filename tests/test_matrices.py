from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lobsterlab.constructions import verify_certificate
from lobsterlab.errors import LabelingInputError, MatrixError
from lobsterlab.formats import parse_matrix, print_matrix
from lobsterlab.graphs import build_graph, is_tree
from lobsterlab.labelings import Labeling, beta_labeling, verify_alpha
from lobsterlab.lobster_labeling import label_caterpillar, label_lobster_auto
from lobsterlab.matrices import (
    BIADJACENCY,
    LabeledMatrix,
    box_value,
    canonical_adjacency,
    canonical_biadjacency,
    inverse_alpha,
    is_completely_graceful,
    is_graceful_grid,
    matrix_to_graph,
    shift_ones,
    transform,
)
from conftest import fixture_text


def tiny_biadjacency(grid, k, row_labels, col_labels):
    return LabeledMatrix(
        "biadjacency",
        frozenset((i, j) for i, row in enumerate(grid) for j, x in enumerate(row) if x),
        tuple((lab, lab) for lab in row_labels),
        tuple((lab, lab) for lab in col_labels),
        k,
    )


def caterpillar(leaf_counts, seed):
    """A caterpillar with the given leaves per spine vertex, ids shuffled."""
    n = len(leaf_counts) + sum(leaf_counts)
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    edges = [(ids[s], ids[s + 1]) for s in range(len(leaf_counts) - 1)]
    nxt = len(leaf_counts)
    for s, count in enumerate(leaf_counts):
        for leaf in range(nxt, nxt + count):
            edges.append((ids[s], ids[leaf]))
        nxt += count
    return build_graph(n, edges)


def dense_text(m):
    """The matrix file written line by line from the dense `grid`."""
    header = [m.kind, m.num_rows, m.num_cols]
    if m.kind == BIADJACENCY:
        header.append(m.critical)
    lines = [" ".join(map(str, seq)) for seq in (header, m.row_labels, m.col_labels)]
    lines += ["".join(map(str, row)) for row in m.grid]
    return "\n".join(lines) + "\n"


def named_by_label(g, f):
    """The same labeled graph with every vertex renamed to its label."""
    edges = [(f.label(u), f.label(v)) for u, v in g.edges]
    return build_graph(g.num_vertices, edges), Labeling(
        {lab: lab for lab in f.assignment.values()}, f.kind, f.critical
    )


class TestLabeledMatrixInvariants:
    @pytest.mark.parametrize(
        "kind, ones, rows, cols, critical, message",
        [
            ("grid", set(), [0], [1], 0, "unknown matrix kind 'grid'"),
            ("biadjacency", {(0, 1)}, [0], [1], 0, "cell (0, 1) lies outside the 1 x 1 grid"),
            ("adjacency", {(0, 1), (1, 0)}, [0, 1], [0, 1], 0, "carry no critical value"),
            ("adjacency", set(), [0, 1], [0], None, "identical row/column slots"),
            ("adjacency", {(1, 1)}, [0, 1], [0, 1], None, "principal diagonal not empty at index 1"),
            ("adjacency", {(1, 0)}, [0, 1], [0, 1], None, "grid not symmetric at (0, 1)"),
            ("adjacency", {(0, 2), (1, 1)}, [0, 1, 2], [0, 1, 2], None, "grid not symmetric at (0, 2)"),
            ("biadjacency", {(0, 0)}, [0], [1], None, "need a critical value"),
            ("biadjacency", {(0, 0)}, [0], [0], 0, "a vertex id appears in two slots"),
        ],
    )
    def test_invalid_matrix_rejected(self, kind, ones, rows, cols, critical, message):
        with pytest.raises(MatrixError) as info:
            LabeledMatrix(
                kind,
                frozenset(ones),
                tuple((lab, lab) for lab in rows),
                tuple((lab, lab) for lab in cols),
                critical,
            )
        assert message in str(info.value)


class TestBoxValue:
    def test_principal_diagonal(self):
        assert box_value(9, 9, 1, 1) == 9

    def test_bottom_left_of_lobster_grid(self):
        assert box_value(15, 13, 15, 1) == 1

    def test_top_right_carries_the_maximum(self):
        # cross-check: the top-right cell holds edge label 27 - 0 = 27
        assert box_value(15, 13, 1, 13) == 27

    def test_out_of_range(self):
        with pytest.raises(MatrixError):
            box_value(3, 3, 0, 1)
        with pytest.raises(MatrixError):
            box_value(3, 3, 1, 4)


class TestGracefulGrid:
    def test_all_zero(self):
        m = tiny_biadjacency([[0, 0], [0, 0]], 1, [0, 1], [2, 3])
        assert is_graceful_grid(m)

    def test_fixture_adjacency(self, tree9_adjacency):
        assert is_graceful_grid(tree9_adjacency)

    def test_shared_diagonal_rejected(self):
        m = tiny_biadjacency([[1, 0], [0, 1]], 1, [0, 1], [2, 3])
        verdict = is_graceful_grid(m)
        assert not verdict and verdict.overfull == (2,)


class TestCompletelyGraceful:
    def test_fixture_adjacency(self, tree9_adjacency):
        assert is_completely_graceful(tree9_adjacency)

    def test_lobster_grid(self, lobster28_matrix):
        assert is_completely_graceful(lobster28_matrix)

    def test_missing_spine_edge_names_diagonal(self, lobster28_matrix):
        m = LabeledMatrix(
            "biadjacency",
            lobster28_matrix.ones - {(14, 12)},  # the two spinal vertices' shared cell
            lobster28_matrix.row_slots,
            lobster28_matrix.col_slots,
            14,
        )
        verdict = is_completely_graceful(m)
        assert not verdict and 13 in verdict.deficient


class TestCanonicalAdjacency:
    def test_fixture_byte_exact(self, tree9, tree9_labels):
        m = canonical_adjacency(tree9, tree9_labels)
        assert print_matrix(m) == fixture_text("tree9_adjacency.txt")

    def test_k2(self):
        k2 = build_graph(2, [(0, 1)])
        m = canonical_adjacency(k2, beta_labeling({0: 0, 1: 1}))
        assert m.grid == ((0, 1), (1, 0))

    def test_p3_direct_placement(self):
        p3 = build_graph(3, [(0, 1), (1, 2)])
        f = beta_labeling({0: 1, 1: 0, 2: 2})
        m = canonical_adjacency(p3, f)
        # 1s at the label pairs {0,1} and {0,2}
        assert m.grid == ((0, 1, 1), (1, 0, 0), (1, 0, 0))
        assert is_graceful_grid(m)

    def test_rejects_bad_range(self, tree9):
        f = beta_labeling({v: v + 1 for v in tree9.vertices()})
        with pytest.raises(LabelingInputError):
            canonical_adjacency(tree9, f)


class TestCanonicalBiadjacency:
    def test_lobster_byte_exact(self, lobster28_matrix):
        g, f = matrix_to_graph(lobster28_matrix)
        rebuilt = canonical_biadjacency(g, f)
        assert print_matrix(rebuilt) == fixture_text("lobster28_biadj.txt")

    def test_k2(self):
        k2 = build_graph(2, [(0, 1)])
        m = canonical_biadjacency(k2, beta_labeling({0: 0, 1: 1}))
        assert m.grid == ((1,),) and m.critical == 0

    def test_rejects_non_alpha(self):
        star = build_graph(3, [(0, 1), (0, 2)])
        f = beta_labeling({0: 1, 1: 0, 2: 2})
        with pytest.raises(LabelingInputError):
            canonical_biadjacency(star, f)


class TestTransform:
    def test_transpose_involution(self, lobster28_matrix):
        assert transform(transform(lobster28_matrix, "T"), "T") == lobster28_matrix

    def test_composition_law(self, lobster28_matrix):
        lhs = transform(transform(lobster28_matrix, "R"), "T")
        assert lhs == transform(lobster28_matrix, "RT")

    def test_rotation_preserves_complete_gracefulness(self, lobster28_matrix):
        for which in ("R", "T", "RT"):
            assert is_completely_graceful(transform(lobster28_matrix, which))

    def test_adjacency_rejected(self, tree9_adjacency):
        with pytest.raises(MatrixError):
            transform(tree9_adjacency, "R")


class TestInverseAlpha:
    def test_k2_fixed_point(self):
        k2 = build_graph(2, [(0, 1)])
        f = beta_labeling({0: 0, 1: 1})
        inv = inverse_alpha(f, 0, 2)
        assert inv.assignment == {0: 0, 1: 1}

    def test_double_fixture_values(self, tree9_double):
        g, f = matrix_to_graph(tree9_double)
        inv = inverse_alpha(f, 8, 18)
        by_label = {lab: v for v, lab in f.assignment.items()}
        assert inv.assignment[by_label[9]] == 17
        assert inv.assignment[by_label[17]] == 9
        assert inv.assignment[by_label[0]] == 8
        verdict = verify_alpha(g, inv)
        assert verdict and verdict.critical == 8

    def test_involution_on_lobster(self, lobster28_matrix):
        g, f = matrix_to_graph(lobster28_matrix)
        inv2 = inverse_alpha(inverse_alpha(f, 14, 28), 14, 28)
        assert inv2.assignment == dict(f.assignment)

    def test_matches_rotated_grid(self, lobster28_matrix):
        # sorting vertices by the inverse labels reproduces the rotated grid
        g, f = matrix_to_graph(lobster28_matrix)
        inv = inverse_alpha(f, 14, 28)
        rebuilt = canonical_biadjacency(g, inv)
        rotated = transform(lobster28_matrix, "R")
        assert rebuilt.grid == rotated.grid


class TestMatrixToGraph:
    def test_round_trip_adjacency(self, tree9, tree9_labels, tree9_adjacency):
        g, f = matrix_to_graph(tree9_adjacency)
        assert g == tree9
        assert dict(f.assignment) == dict(tree9_labels.assignment)
        assert canonical_adjacency(g, f) == tree9_adjacency

    def test_one_by_one(self):
        m = tiny_biadjacency([[1]], 0, [0], [1])
        g, f = matrix_to_graph(m)
        assert g == build_graph(2, [(0, 1)])

    def test_shifted_fixture_is_a_tree(self, lobster26_shifted_matrix):
        g, f = matrix_to_graph(lobster26_shifted_matrix)
        assert is_tree(g)
        assert verify_alpha(g, f)


class TestShiftOnes:
    def test_empty_moves(self, lobster26_matrix):
        assert shift_ones(lobster26_matrix, []) == lobster26_matrix

    def test_paper_shift_byte_exact(self, lobster26_matrix, lobster26_moves):
        shifted = shift_ones(lobster26_matrix, lobster26_moves)
        assert print_matrix(shifted) == fixture_text("lobster26_shifted.txt")

    def test_uncompensated_move_rejected(self, lobster26_matrix):
        with pytest.raises(MatrixError, match="diagonal"):
            shift_ones(lobster26_matrix, [((1, 21), (1, 17))])

    def test_empty_source_rejected(self, lobster26_matrix):
        with pytest.raises(MatrixError, match="no 1"):
            shift_ones(lobster26_matrix, [((0, 13), (0, 14))])

    def test_repeated_source_rejected(self, lobster26_matrix):
        with pytest.raises(MatrixError, match=r"source cell \(1, 21\) is moved twice"):
            shift_ones(lobster26_matrix, [((1, 21), (1, 17)), ((1, 21), (0, 22))])

    def test_collision_rejected(self, lobster26_matrix):
        with pytest.raises(MatrixError, match="occupied"):
            shift_ones(
                lobster26_matrix,
                [((1, 21), (2, 22)), ((9, 13), (2, 22))],
            )


class TestMatrixCodec:
    def test_round_trip(self, lobster28_matrix):
        assert parse_matrix(print_matrix(lobster28_matrix)) == lobster28_matrix

    def test_box_values_equal_edge_labels_on_fixtures(
        self, lobster28_matrix, lobster26_matrix, tree9_double
    ):
        for m in (lobster28_matrix, lobster26_matrix, tree9_double):
            g, f = matrix_to_graph(m)
            edge_labels = set()
            for i, j in m.ones:
                edge_labels.add(m.cell_box_value(i, j))
            expected = {
                abs(f.assignment[u] - f.assignment[v]) for u, v in g.edges
            }
            assert edge_labels == expected


class TestCaterpillarMatrices:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=8),
        st.integers(min_value=0, max_value=2**31),
    )
    @example([0], 0)  # K1: the biadjacency file has blank column and grid lines
    def test_codec_transforms_and_graph_round_trip(self, leaf_counts, seed):
        g = caterpillar(leaf_counts, seed)
        f = label_caterpillar(g)
        g_lab, f_lab = named_by_label(g, f)
        for build in (canonical_adjacency, canonical_biadjacency):
            # the file carries labels only, so it round-trips ids equal to labels
            m_lab = build(g_lab, f_lab)
            assert parse_matrix(print_matrix(m_lab)) == m_lab
            m = build(g, f)
            got_g, got_f = matrix_to_graph(m)
            assert got_g == g and dict(got_f.assignment) == dict(f.assignment)
        m = canonical_biadjacency(g, f)
        assert transform(transform(m, "R"), "R") == m
        assert transform(transform(m, "T"), "T") == m
        for which in ("R", "T", "RT"):
            got_g, got_f = matrix_to_graph(transform(m, which))
            assert got_g == g
            assert dict(got_f.assignment) == dict(f.assignment)
            assert got_f.critical == f.critical
        shown = [canonical_adjacency(g, f), m] + [transform(m, w) for w in ("R", "T", "RT")]
        for grid in shown:
            text = print_matrix(grid)
            assert text == dense_text(grid)
            assert print_matrix(parse_matrix(text)) == text
        if g.num_vertices == 1:
            assert print_matrix(m) == "biadjacency 1 0 0\n0\n\n\n"
            assert print_matrix(transform(m, "T")) == "biadjacency 0 1 0\n\n0\n"

    def test_large_caterpillar_certifies_without_dense_grid(self, monkeypatch):
        def dense(self):
            raise AssertionError("a dense grid was built")

        monkeypatch.setattr(LabeledMatrix, "grid", property(dense))
        g = caterpillar([3] * 5000, seed=1)
        assert g.num_vertices == 20000
        cert = label_lobster_auto(g)
        assert cert.construction == "caterpillar-sweep"
        assert verify_certificate(cert)
        assert len(cert.result_matrix.ones) == g.num_edges
