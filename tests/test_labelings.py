from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lobsterlab.errors import LabelingInputError
from lobsterlab.graphs import bipartition, build_graph
from lobsterlab.labelings import (
    ALPHA,
    BETA,
    Labeling,
    Verdict,
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


# -- verdicts pinned against an ordered scan --------------------------------------


def scan_beta(g, f, max_label=None):
    """Reference: vertices in id order, then edges in sorted order; the first
    offence found names the verdict."""
    bound = g.num_edges if max_label is None else max_label
    missing = [v for v in g.vertices() if v not in f.assignment]
    if missing:
        return Verdict(False, "unlabeled-vertex", f"vertex {missing[0]} has no label")
    seen = {}
    for v in g.vertices():
        lab = f.assignment[v]
        if not (0 <= lab <= bound):
            return Verdict(
                False, "label-out-of-range", f"vertex {v} labeled {lab} not in 0..{bound}"
            )
        if lab in seen:
            return Verdict(
                False, "duplicate-vertex-label", f"vertices {seen[lab]} and {v} share label {lab}"
            )
        seen[lab] = v
    edge_seen = {}
    for u, v in g.sorted_edges():
        d = abs(f.assignment[u] - f.assignment[v])
        if d in edge_seen:
            return Verdict(
                False,
                "duplicate-edge-label",
                f"edges {edge_seen[d]} and {(u, v)} both get edge label {d}",
            )
        edge_seen[d] = (u, v)
    return Verdict(True)


def scan_alpha(g, f, max_label=None):
    """Reference: scan_beta, then k = the largest low end, then the first edge
    in sorted order that k does not straddle, then the stored critical."""
    beta = scan_beta(g, f, max_label)
    if not beta:
        return beta
    k = max((min(f.assignment[u], f.assignment[v]) for u, v in g.edges), default=0)
    for u, v in g.sorted_edges():
        lo, hi = sorted((f.assignment[u], f.assignment[v]))
        if not (lo <= k < hi):
            return Verdict(
                False,
                "alpha-straddle",
                f"edge ({u}, {v}) with labels ({lo}, {hi}) is not straddled by k={k}",
            )
    if f.critical is not None and f.critical != k:
        return Verdict(
            False,
            "critical-mismatch",
            f"labeling claims critical {f.critical} but the straddle value is {k}",
        )
    return Verdict(True, critical=k)


FAULTS = (
    "missing-vertex",
    "extra-key",
    "out-of-range",
    "duplicate-label",
    "duplicate-difference",
    "moved-label",
    "wrong-critical",
)


@st.composite
def faulty_labelings(draw):
    """A small graph (cycles, isolated vertices and no edges allowed), a
    labeling that starts graceful or alpha where the search finds one, a few
    injected faults, and max_label below, at or above m."""
    from lobsterlab.search import brute_force_alpha, brute_force_graceful

    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    fewest = min(draw(st.sampled_from([0, n - 1, n - 1])), len(pairs))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=fewest,
                          max_size=8)) if pairs else []
    g = build_graph(n, edges)
    m = g.num_edges
    max_label = draw(st.sampled_from([None, None, None, m, m - 1, m - 2, m + 1, m + 3]))
    bound = m if max_label is None else max_label
    found = (brute_force_alpha if draw(st.booleans()) else brute_force_graceful)(g)
    base = draw(st.integers(0, 5))
    critical = None
    if found.labeling is not None and base <= 2:
        labels = dict(found.labeling.assignment)
        critical = found.labeling.critical
    elif n <= bound + 1 and base <= 4:
        labels = dict(enumerate(draw(st.permutations(range(bound + 1)))[:n]))
    else:
        values = draw(st.lists(st.integers(-1, bound + 1), min_size=n, max_size=n))
        labels = dict(enumerate(values))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        v = draw(st.integers(0, n - 1)) if n else None
        if fault == "extra-key":
            labels[n + draw(st.integers(0, 2))] = draw(st.integers(-1, bound + 1))
        elif fault == "wrong-critical":
            critical = draw(st.integers(-1, bound + 1))
        elif v is None or v not in labels:
            continue
        elif fault == "missing-vertex":
            del labels[v]
        elif fault == "out-of-range":
            labels[v] = draw(st.sampled_from([-1, bound + 1, bound + 5]))
        elif fault == "duplicate-label":
            labels[v] = labels.get(draw(st.integers(0, n - 1)), labels[v])
        elif fault == "moved-label":
            labels[v] = draw(st.integers(0, max(bound, 0)))
        elif fault == "duplicate-difference" and m >= 2:
            (a, b), (c, d) = draw(st.lists(st.sampled_from(sorted(g.edges)),
                                           min_size=2, max_size=2, unique=True))
            if {a, b, c} <= labels.keys():
                labels[d] = labels[c] + abs(labels[a] - labels[b])
    kind = ALPHA if critical is not None or draw(st.booleans()) else BETA
    return g, Labeling(labels, kind, critical), max_label


@settings(max_examples=400, deadline=None)
@given(faulty_labelings())
@example((build_graph(0, []), Labeling({}), None))
@example((build_graph(1, []), Labeling({0: 0}, ALPHA, 1), None))
@example((build_graph(2, [(0, 1)]), Labeling({0: 1}), None))
@example((build_graph(3, [(0, 1), (1, 2), (0, 2)]), Labeling({0: 0, 1: 1, 2: 3}), None))
@example((path_graph(3), Labeling({0: 0, 1: 2, 2: 1}), 1))
@example((path_graph(3), Labeling({0: 1, 1: 0, 2: 2}, ALPHA, 1), 3))
def test_verdicts_match_ordered_scan(case):
    g, f, max_label = case
    assert verify_beta(g, f, max_label) == scan_beta(g, f, max_label)
    assert verify_alpha(g, f, max_label) == scan_alpha(g, f, max_label)
