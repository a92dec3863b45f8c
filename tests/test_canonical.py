from __future__ import annotations

import itertools
import random

import pytest

from lobsterlab.canonical import (
    centroids,
    free_code,
    isomorphism_map,
    rooted_code,
    rooted_isomorphism_map,
    tree_isomorphic,
)
from lobsterlab.errors import GraphStructureError
from lobsterlab.graphs import build_graph
from lobsterlab.search import enumerate_trees


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_k2_isomorphic_to_itself():
    k2 = build_graph(2, [(0, 1)])
    assert tree_isomorphic(k2, k2)
    assert tree_isomorphic(k2, k2, roots=(0, 1))


def test_p3_rooted_at_end_vs_middle():
    p3 = path_graph(3)
    assert not tree_isomorphic(p3, p3, roots=(0, 1))
    assert tree_isomorphic(p3, p3, roots=(0, 2))


def test_star_vs_path_degree_sequence_oracle():
    # independent check first: the degree sequences differ
    star, p4 = star_graph(3), path_graph(4)
    deg = lambda g: sorted(g.degree(v) for v in g.vertices())
    assert deg(star) != deg(p4)
    assert not tree_isomorphic(star, p4)


def test_non_tree_rejected():
    square = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(GraphStructureError):
        tree_isomorphic(square, square)
    # a non-tree raises even where the sizes alone would answer no
    for t1, t2 in ((square, path_graph(3)), (path_graph(3), square)):
        with pytest.raises(GraphStructureError):
            tree_isomorphic(t1, t2)
        with pytest.raises(GraphStructureError):
            isomorphism_map(t1, t2)
    # n - 1 edges but not connected, and the empty graph
    triangle_and_vertex = build_graph(4, [(0, 1), (1, 2), (0, 2)])
    for g in (square, triangle_and_vertex, build_graph(0, [])):
        for call in (
            lambda: centroids(g),
            lambda: rooted_code(g, 0),
            lambda: rooted_isomorphism_map(g, 0, g, 0),
            lambda: tree_isomorphic(g, path_graph(4)),
        ):
            with pytest.raises(GraphStructureError):
                call()


def test_relabeled_trees_isomorphic():
    t = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    relabeled = build_graph(5, [(4, 3), (3, 2), (3, 1), (1, 0)])
    assert tree_isomorphic(t, relabeled)


def test_equivalence_relation_spot_checks():
    sample = list(enumerate_trees(6))
    for t in sample:
        assert tree_isomorphic(t, t)
    for a, b in itertools.combinations(sample, 2):
        assert tree_isomorphic(a, b) == tree_isomorphic(b, a)
        # distinct canonical reps are non-isomorphic
        assert not tree_isomorphic(a, b)


def test_free_codes_separate_all_small_trees():
    for n in range(1, 8):
        codes = [free_code(t) for t in enumerate_trees(n)]
        assert len(codes) == len(set(codes))


def test_centroids_of_path():
    assert centroids(path_graph(5)) == [2]
    assert centroids(path_graph(4)) == [1, 2]


def test_rooted_code_distinguishes_roots():
    spider = build_graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    assert rooted_code(spider, 0) != rooted_code(spider, 2)


def test_rooted_isomorphism_map_is_isomorphism():
    t1 = build_graph(6, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)])
    t2 = build_graph(6, [(5, 4), (5, 3), (3, 2), (3, 1), (1, 0)])
    mapping = rooted_isomorphism_map(t1, 0, t2, 5)
    assert mapping is not None and mapping[0] == 5
    mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in t1.edges}
    assert mapped == set(t2.edges)
    # the centroid-rooted free map, onto every small tree with its ids shuffled
    rng = random.Random(8)
    for n in range(1, 9):
        for t in enumerate_trees(n):
            ids = list(range(n))
            rng.shuffle(ids)
            shuffled = build_graph(n, [(ids[u], ids[v]) for u, v in t.edges])
            mapping = isomorphism_map(t, shuffled)
            assert sorted(mapping) == sorted(mapping.values()) == list(range(n))
            mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in t.edges}
            assert mapped == set(shuffled.edges)


def test_rooted_isomorphism_map_none_when_different():
    assert rooted_isomorphism_map(star_graph(3), 0, path_graph(4), 0) is None
    assert isomorphism_map(star_graph(3), path_graph(4)) is None
    assert isomorphism_map(star_graph(3), path_graph(5)) is None
