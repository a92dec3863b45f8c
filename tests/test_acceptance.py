"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance (byte-exactness, exact integer equality, wall-clock caps)
is pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import fixture_text, random_balanced_spec
from lobsterlab.constructions import (
    attach_at_vertices,
    chain_join_km,
    chain_join_mm,
    chain_with_copies,
    disjoint_union_alpha,
    double,
    merge_join_chain,
    star_join,
    verify_certificate,
)
from lobsterlab.formats import parse_matrix, parse_moves, print_matrix
from lobsterlab.graphs import build_graph, classify_tree, is_tree
from lobsterlab.labelings import Labeling, beta_labeling, verify_alpha, verify_beta
from lobsterlab.lobsters import lobster_decompose
from lobsterlab.lobster_labeling import (
    BalancedLobsterSpec,
    balanced_sum_identity,
    classify_lobster,
    label_balanced_lobster,
)
from lobsterlab.matrices import (
    canonical_adjacency,
    canonical_biadjacency,
    inverse_alpha,
    is_completely_graceful,
    is_graceful_grid,
    matrix_to_graph,
    shift_ones,
    transform,
)
from lobsterlab.search import (
    SearchBudget,
    brute_force_alpha,
    brute_force_graceful,
    enumerate_trees,
)

TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47]


class _Criterion:
    def __init__(self, number: int, name: str, limit_secs: float) -> None:
        self.number = number
        self.name = name
        self.limit = limit_secs

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def identity_part(g):
    return g, beta_labeling({v: v for v in g.vertices()})


def test_criterion_1_nine_vertex_tree_fixture(tree9, tree9_labels):
    with _Criterion(1, "nine-vertex tree matrix and double", 1.0):
        adjacency = canonical_adjacency(tree9, tree9_labels)
        assert print_matrix(adjacency) == fixture_text("tree9_adjacency.txt")
        cert = double((tree9, tree9_labels), 8)
        assert print_matrix(cert.result_matrix) == fixture_text("tree9_double.txt")
        verdict = verify_alpha(cert.result_graph, cert.result_labeling)
        assert verdict and verdict.critical == 8
        assert cert.result_labeling.complete


def test_criterion_2_attachment_fixture(merge45_parts):
    with _Criterion(2, "45-vertex attachment", 1.0):
        h, g0, g1, g2 = merge45_parts
        parts = [
            identity_part(g0),
            identity_part(g1),
            identity_part(g2),
            identity_part(g1),
            identity_part(g0),
        ]
        cert = attach_at_vertices(identity_part(h), parts)
        graph = cert.result_graph
        assert graph.num_vertices == 45 and graph.num_edges == 44
        assert is_tree(graph)
        assert cert.result_matrix.num_rows == 45
        assert is_completely_graceful(cert.result_matrix)
        for i in range(5):
            for j in range(5):
                want = 1 if h.has_edge(i, j) else 0
                assert cert.result_matrix.grid[9 * i + 8][9 * j + 8] == want


def test_criterion_3_balanced_piece_fixture():
    with _Criterion(3, "two-spined balanced labeling", 1.0):
        spec = BalancedLobsterSpec((2, 2, 3), (3, 3, 2), 3, 2)
        cert = label_balanced_lobster(spec)
        assert cert.critical == 14
        assert cert.result_graph.num_edges == 27
        assert cert.result_matrix.num_rows == 15
        assert cert.result_matrix.num_cols == 13
        assert print_matrix(cert.result_matrix) == fixture_text("lobster28_biadj.txt")


def test_criterion_4_shift_fixture(lobster26_moves):
    with _Criterion(4, "uniform lobster and its shifted twin", 1.0):
        spec = BalancedLobsterSpec((3, 3, 3), (3, 3, 3), 0, 0)
        cert = label_balanced_lobster(spec)
        assert cert.critical == 12
        assert cert.result_graph.num_edges == 25
        assert print_matrix(cert.result_matrix) == fixture_text("lobster26_biadj.txt")
        shifted = shift_ones(cert.result_matrix, lobster26_moves)
        assert print_matrix(shifted) == fixture_text("lobster26_shifted.txt")
        assert is_completely_graceful(shifted)
        graph, labeling = matrix_to_graph(shifted)
        assert is_tree(graph)
        assert classify_tree(graph) == "lobster"
        cls = classify_lobster(lobster_decompose(graph))
        assert not cls.pairwise_isomorphic
        assert not cls.pairwise_similar
        assert not cls.pairwise_linked
        assert not cls.pairwise_balanced
        assert not cls.pairwise_trivially_balanced


def test_criterion_5_oracle_sweep():
    with _Criterion(5, "tree enumeration and graceful sweep", 60.0):
        for n in range(1, 10):
            trees = list(enumerate_trees(n))
            assert len(trees) == TREE_COUNTS[n - 1]
            for t in trees:
                result = brute_force_graceful(t)
                assert result, f"no graceful labeling found on {t.sorted_edges()}"
                assert verify_beta(t, result.labeling)


def test_criterion_6_construction_soundness():
    with _Criterion(6, "randomized construction soundness", 120.0):
        rng = random.Random(60606)
        beta_pool = []
        alpha_pool = []
        for n in range(2, 7):
            for t in enumerate_trees(n):
                res = brute_force_graceful(t)
                assert res
                beta_pool.append((t, res.labeling))
                res_a = brute_force_alpha(t)
                if res_a:
                    alpha_pool.append((t, res_a.labeling))
        carriers = [p for p in beta_pool if p[0].num_vertices <= 4]

        def symmetric_spread(part):
            g, f = part
            k = verify_alpha(g, f).critical
            return g.num_edges - k == k + 1

        done = 0
        while done < 510:
            op = rng.choice(
                ["double", "union", "km", "mm-alt", "mm-all", "copies", "star", "attach", "merge"]
            )
            if op == "double":
                g, f = rng.choice(beta_pool)
                at = rng.choice(sorted(f.assignment.values()))
                cert = double((g, f), at)
                assert cert.critical == g.num_edges
            elif op == "union":
                parts = [rng.choice(alpha_pool) for _ in range(rng.randint(1, 3))]
                cert = disjoint_union_alpha(parts)
                expected = sum(verify_alpha(g, f).critical for g, f in parts)
                assert cert.critical == expected + len(parts) - 1
            elif op == "km":
                parts = [rng.choice(alpha_pool) for _ in range(rng.randint(1, 3))]
                cert = chain_join_km(parts)
                expected = sum(verify_alpha(g, f).critical for g, f in parts)
                assert cert.critical == expected + len(parts) - 1
            elif op == "mm-alt":
                parts = [rng.choice(alpha_pool) for _ in range(rng.randint(1, 3))]
                cert = chain_join_mm(parts)
                if all(symmetric_spread(p) for p in parts[::2]):
                    expected = sum(verify_alpha(g, f).critical for g, f in parts)
                    assert cert.critical == expected + len(parts) - 1
            elif op == "mm-all":
                part = rng.choice(alpha_pool)
                parts = [part] * rng.randint(1, 3)
                cert = chain_join_mm(parts, mode="all_m")
                if symmetric_spread(part):
                    expected = sum(verify_alpha(g, f).critical for g, f in parts)
                    assert cert.critical == expected + len(parts) - 1
            elif op == "copies":
                parts = [rng.choice(beta_pool) for _ in range(rng.randint(2, 3))]
                cert = chain_with_copies(parts)
            elif op == "star":
                part = rng.choice(beta_pool)
                cert = star_join([part] * rng.randint(1, 3))
            elif op == "attach":
                h = rng.choice(carriers)
                r = h[0].num_vertices - 1
                half = [rng.choice(beta_pool) for _ in range((r + 1) // 2)]
                mirror = half + ([rng.choice(beta_pool)] if (r + 1) % 2 else [])
                parts = half + mirror[len(half) :] + list(reversed(half))
                sizes = {g.num_edges for g, _ in parts}
                if len(sizes) != 1:
                    m = parts[0][0].num_edges
                    pool = [p for p in beta_pool if p[0].num_edges == m]
                    half = [rng.choice(pool) for _ in range((r + 1) // 2)]
                    mid = [rng.choice(pool)] if (r + 1) % 2 else []
                    parts = half + mid + list(reversed(half))
                cert = attach_at_vertices(h, parts)
            else:
                parts = [rng.choice(beta_pool) for _ in range(rng.randint(2, 3))]
                cert = merge_join_chain(parts)
            assert verify_certificate(cert)
            widened = cert.details.get("max_label", cert.result_graph.num_edges)
            if (
                cert.result_graph.num_vertices <= 12
                and widened == cert.result_graph.num_edges
            ):
                assert brute_force_graceful(cert.result_graph)
            done += 1
        assert done >= 500


def test_criterion_7_formula_suite():
    with _Criterion(7, "balanced sum identities and label formulas", 10.0):
        rng = random.Random(70707)
        for _ in range(100):
            spec = random_balanced_spec(rng, max_r=16, max_leaf=9)
            r = spec.branches_per_side
            for i in range(1, r + 1):
                clauses = ("i", "ii") if i % 2 == 1 else ("iii", "iv")
                for clause in clauses:
                    left, right = balanced_sum_identity(spec, i, clause)
                    assert left == right
            cert = label_balanced_lobster(spec)
            assert cert.critical == spec.head_pendants + r + sum(spec.tail_leaves)
            assert cert.result_graph.num_edges == (
                spec.head_pendants
                + spec.tail_pendants
                + 2 * r
                + 1
                + sum(spec.head_leaves)
                + sum(spec.tail_leaves)
            )


def test_criterion_8_calculus_suite():
    with _Criterion(8, "matrix calculus laws and grid equivalence", 10.0):
        rng = random.Random(80808)
        trees = [t for n in range(2, 8) for t in enumerate_trees(n)]
        alpha_pool = []
        for t in trees:
            res = brute_force_alpha(t)
            if res:
                alpha_pool.append((t, res.labeling))

        for _ in range(60):
            g, f = rng.choice(alpha_pool)
            k = verify_alpha(g, f).critical
            n = g.num_vertices
            inv = inverse_alpha(f, k, n)
            assert verify_alpha(g, inv).critical == k
            assert inverse_alpha(inv, k, n).assignment == dict(f.assignment)
            matrix = canonical_biadjacency(g, f)
            assert transform(transform(matrix, "T"), "T") == matrix
            assert transform(transform(matrix, "R"), "R") == matrix
            assert transform(transform(matrix, "R"), "T") == transform(matrix, "RT")
            for which in ("R", "T", "RT"):
                assert is_completely_graceful(transform(matrix, which))

        equivalent = failures = 0
        for _ in range(200):
            t = rng.choice(trees)
            m = t.num_edges
            labels = rng.sample(range(m + 1), t.num_vertices)
            f = beta_labeling({v: labels[v] for v in t.vertices()})
            grid_ok = bool(is_graceful_grid(canonical_adjacency(t, f)))
            verifier_ok = bool(verify_beta(t, f))
            assert grid_ok == verifier_ok
            equivalent += 1
            if not verifier_ok:
                failures += 1
        assert failures > 0, "the random sweep must include broken labelings"

        # deliberately broken labelings must fail both routes
        t9 = build_graph(
            9, [(0, 2), (0, 5), (0, 6), (0, 8), (1, 8), (3, 7), (4, 7), (7, 8)]
        )
        swapped = {v: v for v in t9.vertices()}
        swapped[1], swapped[2] = 2, 1
        broken = Labeling(swapped)
        assert not verify_beta(t9, broken)
        assert not is_graceful_grid(canonical_adjacency(t9, broken))
