from __future__ import annotations

import random

import pytest

from lobsterlab.errors import GraphStructureError
from lobsterlab.graphs import (
    CATERPILLAR,
    DEEPER,
    LOBSTER,
    PATH,
    SINGLE_VERTEX,
    add_leaf,
    base,
    base_with_map,
    build_graph,
    classify_tree,
    diameter_path,
    is_tree,
    tree_centers,
)


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.num_vertices == 2 and g.num_edges == 1

    def test_nine_vertex_tree(self, tree9):
        assert tree9.num_vertices == 9
        assert tree9.edges == frozenset(
            {(0, 2), (0, 5), (0, 6), (0, 8), (1, 8), (3, 7), (4, 7), (7, 8)}
        )

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphStructureError, match="duplicate edge"):
            build_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(GraphStructureError, match="duplicate edge"):
            build_graph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphStructureError, match="out of range"):
            build_graph(3, [(0, 3)])

    def test_first_offender_in_input_order_named(self):
        with pytest.raises(GraphStructureError, match=r"^edge \(5, 0\) has an endpoint"):
            build_graph(3, [(0, 1), (5, 0), (2, 2)])


class TestIsTree:
    def test_k2(self):
        assert is_tree(build_graph(2, [(0, 1)]))

    def test_cycle_is_not(self):
        assert not is_tree(cycle_graph(5))

    def test_fixture_tree(self, tree9):
        assert is_tree(tree9)

    def test_disconnected_matching_count(self):
        # n-1 edges but disconnected
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert is_tree(g)
        g2 = build_graph(4, [(0, 1), (2, 3)])
        assert not is_tree(g2)


class TestAddLeaf:
    @pytest.mark.parametrize("g", [
        build_graph(1, []), path_graph(4), star_graph(3), cycle_graph(4),
        build_graph(4, [(0, 1), (2, 3)]),
    ])
    def test_same_graph_and_tree_check_as_build_graph(self, g):
        for v in g.vertices():
            grown = add_leaf(g, v)
            built = build_graph(g.num_vertices + 1, [*g.edges, (g.num_vertices, v)])
            assert grown == built and is_tree(grown) == is_tree(built) == is_tree(g)


class TestCachedFacts:
    def test_filled_cache_keeps_equality_and_hash(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert is_tree(g) and classify_tree(g) == CATERPILLAR
        assert diameter_path(g) == [0, 1, 2, 3]
        fresh = build_graph(5, [(2, 4), (3, 2), (1, 2), (0, 1)])
        assert g == fresh and fresh == g
        assert hash(g) == hash(fresh)
        assert {fresh: "tree"}[g] == "tree"

    def test_non_tree_refused_every_time(self):
        c4 = cycle_graph(4)
        for _ in range(2):
            assert not is_tree(c4)
            with pytest.raises(GraphStructureError):
                classify_tree(c4)


class TestBase:
    def test_star_collapses_to_center(self):
        b, ids = base_with_map(star_graph(4))
        assert b.num_vertices == 1 and ids == (0,)

    def test_path5(self):
        b = base(path_graph(5))
        assert is_tree(b) and b.num_vertices == 3
        assert all(b.degree(v) <= 2 for v in b.vertices())

    def test_fixture_tree_base(self, tree9):
        b, ids = base_with_map(tree9)
        # survivors derived by deleting degree-1 vertices of the edge set
        assert ids == (0, 7, 8)
        assert b.edges == frozenset({(0, 2), (1, 2)})  # path 7-8-0 reindexed

    def test_k2_base_empty(self):
        b = base(build_graph(2, [(0, 1)]))
        assert b.num_vertices == 0

    def test_k1_base_is_itself(self):
        b = base(build_graph(1, []))
        assert b.num_vertices == 1

    def test_non_tree_rejected(self):
        with pytest.raises(GraphStructureError):
            base(cycle_graph(4))


class TestClassify:
    def test_p4_is_path(self):
        assert classify_tree(path_graph(4)) == PATH

    def test_fixture_tree_is_caterpillar(self, tree9):
        assert classify_tree(tree9) == CATERPILLAR

    def test_star_is_caterpillar(self):
        assert classify_tree(star_graph(3)) == CATERPILLAR

    def test_single_vertex(self):
        assert classify_tree(build_graph(1, [])) == SINGLE_VERTEX

    def test_lobster(self):
        # spider with three legs of length 3: base of base is a star => deeper
        legs = build_graph(
            10,
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)],
        )
        assert classify_tree(legs) == DEEPER
        # three legs of length 2 hanging off one vertex: base is a star => lobster
        spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert classify_tree(spider) == LOBSTER

    def test_monotone_under_base(self):
        # single-vertex sits in the degenerate path tier for this chain
        order = {SINGLE_VERTEX: 1, PATH: 1, CATERPILLAR: 2, LOBSTER: 3, DEEPER: 4}
        from lobsterlab.search import enumerate_trees

        for n in range(2, 9):
            for t in enumerate_trees(n):
                b = base(t)
                if b.num_vertices == 0:
                    continue
                assert order[classify_tree(b)] >= order[classify_tree(t)] - 1

    def test_stripping_matches_base_definition(self):
        # classify_tree and lobster_decompose strip leaves in place; the
        # paper's definition builds each base as a graph (base_with_map)
        from lobsterlab.lobsters import lobster_decompose
        from lobsterlab.search import enumerate_trees

        def path_or_smaller(g):
            return g.num_vertices <= 1 or (
                is_tree(g) and all(g.degree(v) <= 2 for v in g.vertices())
            )

        rng = random.Random(9)
        trees = [t for n in range(1, 11) for t in enumerate_trees(n)]
        for n in rng.choices(range(11, 41), k=300):
            # random recursive trees: most are deeper than lobsters
            trees.append(build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)]))
        for t in trees:
            ids = list(range(t.num_vertices))
            rng.shuffle(ids)
            t = build_graph(t.num_vertices, [(ids[u], ids[v]) for u, v in t.edges])
            b, b_ids = base_with_map(t)
            bb, bb_ids = base_with_map(b) if b.num_vertices else (b, ())
            if t.num_vertices == 1:
                kind = SINGLE_VERTEX
            elif path_or_smaller(t):
                kind = PATH
            elif path_or_smaller(b):
                kind = CATERPILLAR
            else:
                kind = LOBSTER if path_or_smaller(bb) else DEEPER
            assert classify_tree(t) == kind
            if kind == DEEPER:
                with pytest.raises(GraphStructureError, match="deeper than a lobster"):
                    lobster_decompose(t)
                continue
            spine = lobster_decompose(t).spine
            kept = [b_ids[v] for v in bb_ids] or list(b_ids) or [0]
            assert sorted(spine) == sorted(kept)
            # a path of t, walked from its smaller-id end
            assert all(t.has_edge(u, v) for u, v in zip(spine, spine[1:]))
            assert spine[0] <= spine[-1]


class TestDiameter:
    def test_path_diameter(self):
        p = path_graph(6)
        assert diameter_path(p) == [0, 1, 2, 3, 4, 5]

    def test_centers(self):
        assert tree_centers(path_graph(5)) == [2]
        assert tree_centers(path_graph(4)) == [1, 2]
