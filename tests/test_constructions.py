from __future__ import annotations

import random

import pytest

from conftest import fixture_text
from lobsterlab.errors import ConstructionError, MatrixError
from lobsterlab.formats import print_matrix
from lobsterlab.graphs import build_graph, is_tree, classify_tree
from lobsterlab.labelings import beta_labeling, verify_alpha, verify_beta
from lobsterlab.matrices import (
    is_completely_graceful,
    is_graceful_grid,
    matrix_to_graph,
)
from lobsterlab.constructions import (
    attach_at_vertices,
    chain_join_km,
    chain_join_mm,
    chain_with_copies,
    disjoint_union_alpha,
    double,
    glue,
    insert_pendant_column,
    insert_pendant_pair,
    insert_pendant_row,
    merge_join_chain,
    star_join,
    verify_certificate,
)
from lobsterlab.search import SearchBudget, brute_force_graceful


def k2_part():
    return build_graph(2, [(0, 1)]), beta_labeling({0: 0, 1: 1})


def identity_part(g):
    return g, beta_labeling({v: v for v in g.vertices()})


@pytest.fixture(scope="module")
def lobster28_part(lobster28_matrix):
    return matrix_to_graph(lobster28_matrix)


@pytest.fixture(scope="module")
def spider_part():
    # three one-leaf branches around a glue-max labeled hub
    g = build_graph(7, [(6, 3), (6, 4), (6, 5), (3, 0), (4, 1), (5, 2)])
    f = beta_labeling({0: 1, 1: 3, 2: 5, 3: 4, 4: 2, 5: 0, 6: 6})
    assert verify_beta(g, f)
    return g, f


class TestDouble:
    def test_tree9_at_8_byte_exact(self, tree9, tree9_labels):
        cert = double((tree9, tree9_labels), 8)
        assert print_matrix(cert.result_matrix) == fixture_text("tree9_double.txt")
        assert cert.critical == 8
        verdict = verify_alpha(cert.result_graph, cert.result_labeling)
        assert verdict and verdict.critical == 8
        assert cert.result_labeling.complete

    def test_k2_gives_p4(self):
        cert = double(k2_part(), 1)
        assert cert.result_graph.num_vertices == 4
        assert cert.critical == 1
        assert classify_tree(cert.result_graph) == "path"

    def test_unused_label_rejected(self):
        with pytest.raises(ConstructionError, match="unused"):
            double(k2_part(), 5)

    def test_counts(self, tree9, tree9_labels):
        cert = double((tree9, tree9_labels), 3)
        assert cert.result_graph.num_vertices == 2 * tree9.num_vertices
        assert cert.result_graph.num_edges == 2 * tree9.num_edges + 1


class TestDisjointUnion:
    def test_single_part_is_a_relabeled_copy(self, lobster28_part):
        g, f = lobster28_part
        cert = disjoint_union_alpha([(g, f)])
        assert cert.critical == 14
        assert cert.result_graph.num_edges == g.num_edges

    def test_two_k2(self):
        cert = disjoint_union_alpha([k2_part(), k2_part()])
        assert cert.critical == 1
        assert cert.result_graph.num_edges == 2
        assert is_graceful_grid(cert.result_matrix)
        assert cert.details["max_label"] == 3

    def test_k2_plus_lobster(self, lobster28_part):
        cert = disjoint_union_alpha([k2_part(), lobster28_part])
        assert cert.critical == 0 + 14 + 1

    def test_certificates_reverify(self, lobster28_part):
        cert = disjoint_union_alpha([k2_part(), lobster28_part, k2_part()])
        assert verify_certificate(cert)


class TestChainKm:
    def test_single_part(self, lobster28_part):
        cert = chain_join_km([lobster28_part])
        assert cert.critical == 14
        assert cert.result_matrix.grid == tuple(
            tuple(int(c) for c in line)
            for line in fixture_text("lobster28_biadj.txt").splitlines()[3:]
        )

    def test_two_k2_p4(self):
        cert = chain_join_km([k2_part(), k2_part()])
        assert classify_tree(cert.result_graph) == "path"
        assert cert.critical == 1

    def test_two_lobster_pieces(self, lobster28_part):
        cert = chain_join_km([lobster28_part, lobster28_part])
        assert cert.critical == 14 + 14 + 1
        assert cert.result_graph.num_edges == 55
        assert is_completely_graceful(cert.result_matrix)

    def test_incomplete_part_rejected(self):
        c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        f = beta_labeling({0: 0, 1: 4, 2: 2, 3: 3})
        assert verify_alpha(c4, f)
        with pytest.raises(ConstructionError, match="completely"):
            chain_join_km([(c4, f)])


class TestChainMm:
    def test_two_k2_alternating(self):
        cert = chain_join_mm([k2_part(), k2_part()])
        assert classify_tree(cert.result_graph) == "path"
        assert cert.result_graph.num_vertices == 4

    def test_three_k2_all_m(self):
        cert = chain_join_mm([k2_part()] * 3, mode="all_m")
        assert cert.critical == 2
        degrees = sorted(
            cert.result_graph.degree(v) for v in cert.result_graph.vertices()
        )
        # the maxima chain into a path carrying one pendant each
        assert degrees == [1, 1, 1, 2, 2, 3]

    def test_all_m_spread_mismatch_rejected(self, lobster28_part):
        # spreads: K2 has m-k = 1, the lobster piece 13; seam 2 mismatches
        with pytest.raises(ConstructionError, match="seam 2"):
            chain_join_mm(
                [k2_part(), k2_part(), lobster28_part, lobster28_part],
                mode="all_m",
            )

    def test_critical_formula_asymmetric_spread(self, lobster28_part):
        # the first block enters transposed, so it contributes its
        # complement critical m - k - 1 = 12 rather than k = 14
        cert = chain_join_mm([lobster28_part, lobster28_part])
        assert cert.critical == 12 + 14 + 1

    def test_critical_formula_symmetric_spread(self, tree9, tree9_labels):
        # doubles have m - k = k + 1, the spread where the stated formula
        # sum(k) + r - 1 holds on the nose
        d1 = double((tree9, tree9_labels), 8)
        part = (d1.result_graph, d1.result_labeling)
        cert = chain_join_mm([part, part])
        assert cert.critical == 8 + 8 + 1



@pytest.mark.parametrize(
    "op, name, sizes, refused",
    [
        (chain_join_km, "chain-km", [1, 2], None),  # K1 first: P3
        (chain_join_km, "chain-km", [2, 1], 1),
        (chain_join_km, "chain-km", [1, 1], 1),
        (chain_join_km, "chain-km", [2, 1, 2], 1),
        (chain_join_mm, "chain-mm", [1, 2], 0),
        (chain_join_mm, "chain-mm", [2, 1], 1),
        (chain_join_mm, "chain-mm", [1, 1], 0),
    ],
)
def test_chain_join_seam_at_an_edgeless_part(op, name, sizes, refused):
    # K1's one vertex is a row of its block (a column once transposed), so a
    # seam that needs its column (row) cannot be placed
    k1_part = (build_graph(1, []), beta_labeling({0: 0}))
    parts = [k1_part if n == 1 else k2_part() for n in sizes]
    if refused is None:
        g = op(parts).result_graph
        assert classify_tree(g) == "path" and g.num_vertices == sum(sizes)
    else:
        with pytest.raises(ConstructionError, match=f"^{name}: part {refused} has no edge"):
            op(parts)


@pytest.mark.parametrize(
    "op",
    [
        chain_join_km,
        chain_join_mm,
        lambda parts: chain_join_mm(parts, "all_m"),
        disjoint_union_alpha,
    ],
    ids=["chain-km", "chain-mm", "chain-mm-all_m", "disjoint-union"],
)
def test_chain_of_a_lone_edgeless_part(op):
    # a lone K1 needs no seam; chain-mm transposes it into a grid with no
    # rows, whose critical is still K1's 0
    cert = op([(build_graph(1, []), beta_labeling({0: 0}))])
    assert cert.result_graph.num_vertices == 1 and cert.critical == 0
    assert cert.vertex_maps == ({0: 0},)


class TestChainWithCopies:
    def test_two_k2(self):
        cert = chain_with_copies([k2_part(), k2_part()])
        assert cert.result_graph.num_vertices == 6
        assert cert.result_graph.num_edges == 5
        assert is_tree(cert.result_graph)

    def test_tree9_and_k2(self, tree9, tree9_labels):
        cert = chain_with_copies([(tree9, tree9_labels), k2_part()])
        assert cert.result_graph.num_vertices == 20
        assert is_tree(cert.result_graph)
        assert verify_beta(cert.result_graph, cert.result_labeling)

    def test_single_part_rejected(self):
        with pytest.raises(ConstructionError, match="two parts"):
            chain_with_copies([k2_part()])

    def test_spider_chain_is_a_lobster(self, spider_part):
        cert = chain_with_copies([spider_part, spider_part])
        assert classify_tree(cert.result_graph) == "lobster"


class TestStarJoin:
    def test_two_k2(self):
        cert = star_join([k2_part(), k2_part()])
        assert cert.result_graph.num_vertices == 7
        assert cert.result_graph.num_edges == 6
        hub = cert.details["hub"]
        assert cert.result_labeling.assignment[hub] == 6
        assert is_tree(cert.result_graph)

    def test_unequal_sizes_rejected(self, tree9, tree9_labels):
        with pytest.raises(ConstructionError, match="edge count"):
            star_join([k2_part(), (tree9, tree9_labels)])

    def test_isomorphic_caterpillars_give_graceful_fan(self):
        # all branches hang at the hub through their maximum labels
        p3 = build_graph(3, [(0, 1), (1, 2)])
        f = beta_labeling({0: 0, 1: 2, 2: 1})
        parts = [(p3, f)] * 3
        cert = star_join(parts)
        assert is_tree(cert.result_graph)
        assert verify_beta(cert.result_graph, cert.result_labeling)
        hub = cert.details["hub"]
        assert cert.result_graph.degree(hub) == 2 * 3 - 1

    def test_oracle_cross_check(self):
        cert = star_join([k2_part(), k2_part()])
        assert brute_force_graceful(cert.result_graph)


class TestAttach:
    def test_paper_scale_tree(self, merge45_parts, tree9, tree9_labels):
        h, g0, g1, g2 = merge45_parts
        parts = [
            identity_part(g0),
            identity_part(g1),
            identity_part(g2),
            identity_part(g1),
            identity_part(g0),
        ]
        cert = attach_at_vertices(identity_part(h), parts)
        assert cert.result_graph.num_vertices == 45
        assert cert.result_graph.num_edges == 44
        assert is_tree(cert.result_graph)
        assert is_completely_graceful(cert.result_matrix)

    def test_k2_carrier(self):
        cert = attach_at_vertices(k2_part(), [k2_part(), k2_part()])
        assert cert.result_graph.num_vertices == 4
        assert cert.result_graph.num_edges == 3

    def test_mirror_isomorphism_required(self):
        p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        fp4 = beta_labeling({0: 0, 1: 3, 2: 1, 3: 2})
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        fstar = beta_labeling({0: 3, 1: 0, 2: 1, 3: 2})
        assert verify_beta(p4, fp4) and verify_beta(star, fstar)
        with pytest.raises(ConstructionError, match="isomorphic"):
            attach_at_vertices(k2_part(), [(p4, fp4), (star, fstar)])

    def test_relaxed_mode_unequal_sizes(self):
        # star carrier labeled 0 at the hub: both edges fit the label
        # window r - i - j in {0, 1, 2}; end parts differ in size from the
        # middle one but stay palindromic
        h = build_graph(3, [(0, 1), (0, 2)])
        fh = beta_labeling({0: 0, 1: 1, 2: 2})
        assert verify_beta(h, fh)
        p3 = build_graph(3, [(0, 1), (1, 2)])
        f3 = beta_labeling({0: 0, 1: 2, 2: 1})
        cert = attach_at_vertices(
            (h, fh), [(p3, f3), k2_part(), (p3, f3)], relaxed=True
        )
        assert is_tree(cert.result_graph)
        assert is_completely_graceful(cert.result_matrix)

    def test_relaxed_mode_rejects_bad_carrier_edge(self):
        h = build_graph(3, [(0, 2), (1, 2)])
        fh = beta_labeling({0: 0, 1: 1, 2: 2})
        p3 = build_graph(3, [(0, 1), (1, 2)])
        f3 = beta_labeling({0: 0, 1: 2, 2: 1})
        with pytest.raises(ConstructionError, match="carrier edge"):
            attach_at_vertices(
                (h, fh), [(p3, f3), k2_part(), (p3, f3)], relaxed=True
            )


class TestMergeJoinChain:
    def test_two_k2(self):
        cert = merge_join_chain([k2_part(), k2_part()])
        assert cert.result_graph.num_vertices == 5
        assert cert.result_graph.num_edges == 4
        assert is_tree(cert.result_graph)

    def test_spiders_give_lobster(self, spider_part):
        cert = merge_join_chain([spider_part, spider_part])
        assert classify_tree(cert.result_graph) == "lobster"
        assert verify_beta(cert.result_graph, cert.result_labeling)

    def test_three_parts(self, spider_part):
        cert = merge_join_chain([spider_part, k2_part(), spider_part])
        assert is_tree(cert.result_graph)
        assert is_completely_graceful(cert.result_matrix)

    def test_single_part_rejected(self):
        with pytest.raises(ConstructionError, match="two parts"):
            merge_join_chain([k2_part()])


class TestGlue:
    def test_two_k2_gives_p3(self):
        g = glue(k2_part(), k2_part())
        assert g.num_vertices == 3 and classify_tree(g) == "path"

    def test_star_centers_merge(self):
        star3 = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        f3 = beta_labeling({0: 3, 1: 0, 2: 1, 3: 2})
        star2 = build_graph(3, [(0, 1), (0, 2)])
        f2 = beta_labeling({0: 2, 1: 0, 2: 1})
        g = glue((star3, f3), (star2, f2))
        assert g.num_vertices == 6
        degrees = sorted(g.degree(v) for v in g.vertices())
        assert degrees[-1] == 5

    def test_diameter4_shapes(self, spider_part):
        from lobsterlab.graphs import tree_diameter

        g = glue(spider_part, spider_part)
        assert tree_diameter(g) == 4


class TestPendantInsertion:
    def test_k2_grid_grows_to_p3(self):
        from lobsterlab.matrices import canonical_biadjacency

        g, f = k2_part()
        m = canonical_biadjacency(g, f)
        out = insert_pendant_row(m, 0, 1)
        assert out.num_rows == 2 and out.critical == 1
        graph, labeling = matrix_to_graph(out)
        assert classify_tree(graph) == "path" and graph.num_vertices == 3
        assert verify_alpha(graph, labeling)

    def test_top_insert_always_safe(self, lobster26_matrix):
        out = insert_pendant_row(lobster26_matrix, None, 25)
        assert is_completely_graceful(out)
        graph, labeling = matrix_to_graph(out)
        assert verify_alpha(graph, labeling)
        # the new pendant hangs off the old maximum-labeled spine vertex
        new_vertex = out.row_slots[0][0]
        assert graph.degree(new_vertex) == 1

    def test_interior_insert_on_occupied_diagonal_rejected(self, lobster26_matrix):
        with pytest.raises(ConstructionError, match="diagonal"):
            insert_pendant_row(lobster26_matrix, 12, 25)

    def test_column_insert(self, lobster26_matrix):
        out = insert_pendant_column(lobster26_matrix, None, 12)
        assert is_completely_graceful(out)

    def test_pair_insert(self, tree9_adjacency):
        out = insert_pendant_pair(tree9_adjacency, 8)
        assert is_completely_graceful(out)
        graph, labeling = matrix_to_graph(out)
        assert is_tree(graph)
        assert verify_beta(graph, labeling)


class TestRandomizedSoundness:
    """A miniature of the acceptance sweep: every certificate re-verifies."""

    def test_fifty_random_compositions(self):
        from lobsterlab.search import brute_force_alpha, enumerate_trees

        rng = random.Random(2024)
        beta_pool = []
        alpha_pool = []
        for n in range(2, 6):
            for t in enumerate_trees(n):
                res = brute_force_graceful(t)
                assert res
                beta_pool.append((t, res.labeling))
                res_a = brute_force_alpha(t)
                if res_a:
                    alpha_pool.append((t, res_a.labeling))
        ops = ["double", "union", "km", "mm", "copies", "star", "merge"]
        for _ in range(50):
            op = rng.choice(ops)
            if op == "double":
                g, f = rng.choice(beta_pool)
                cert = double((g, f), rng.choice(sorted(f.assignment.values())))
            elif op == "union":
                cert = disjoint_union_alpha(
                    [rng.choice(alpha_pool) for _ in range(rng.randint(1, 3))]
                )
            elif op == "km":
                cert = chain_join_km(
                    [rng.choice(alpha_pool) for _ in range(rng.randint(1, 3))]
                )
            elif op == "mm":
                cert = chain_join_mm(
                    [rng.choice(alpha_pool) for _ in range(rng.randint(1, 3))]
                )
            elif op == "copies":
                cert = chain_with_copies(
                    [rng.choice(beta_pool) for _ in range(rng.randint(2, 3))]
                )
            elif op == "star":
                part = rng.choice(beta_pool)
                cert = star_join([part] * rng.randint(1, 3))
            else:
                cert = merge_join_chain(
                    [rng.choice(beta_pool) for _ in range(rng.randint(2, 3))]
                )
            assert verify_certificate(cert)
            widened = cert.details.get("max_label", cert.result_graph.num_edges)
            if (
                cert.result_graph.num_vertices <= 12
                and widened == cert.result_graph.num_edges
            ):
                assert brute_force_graceful(cert.result_graph)


class TestCertify:
    def test_non_injective_vertex_map_rejected(self):
        from lobsterlab.constructions import CLAIM_BETA, _certify
        from lobsterlab.matrices import canonical_adjacency

        p3 = build_graph(3, [(0, 1), (1, 2)])
        matrix = canonical_adjacency(p3, beta_labeling({0: 0, 1: 2, 2: 1}))
        # folds the path onto one edge: every part edge is present, but two
        # part vertices share an image
        with pytest.raises(ConstructionError, match="not injective"):
            _certify("probe", CLAIM_BETA, matrix, [p3], [{0: 0, 1: 1, 2: 0}])

    def test_missing_part_vertex_rejected(self):
        from lobsterlab.constructions import CLAIM_BETA, _certify
        from lobsterlab.matrices import canonical_adjacency

        g, f = k2_part()
        with pytest.raises(ConstructionError, match="misses a part vertex"):
            _certify("probe", CLAIM_BETA, canonical_adjacency(g, f), [g], [{0: 0}])

    def test_beta_claim_has_no_critical(self, lobster28_part):
        from lobsterlab.constructions import CLAIM_BETA, _certify
        from lobsterlab.matrices import canonical_biadjacency

        g, f = lobster28_part
        ids = {v: v for v in g.vertices()}
        cert = _certify("probe", CLAIM_BETA, canonical_biadjacency(g, f), [g], [ids])
        assert cert.critical is None
        assert cert.copy_maps == ({},)
