"""Canonical forms and isomorphism for (rooted and free) trees.

Rooted codes are the classic multiset-sorted parenthesis strings: a leaf is
"()" and an inner vertex wraps the sorted codes of its children.  Two rooted
trees are isomorphic iff their codes match.  Free trees are rooted at their
centroid (the minimizer of the largest remaining component); with two
centroids the smaller of the two codes is taken.

Each walk from a root (_order_children) starts with require_tree, which
reads the tree check the Graph caches, so a non-tree raises
GraphStructureError before any answer.  isomorphism_map computes t1's
codes once and pairs children as rooted_isomorphism_map does.
"""

from __future__ import annotations

from .errors import GraphStructureError
from .graphs import Graph, require_tree

Coded = tuple[dict[int, list[int]], dict[int, str]]  # children lists, AHU codes


def _order_children(g: Graph, root: int) -> tuple[dict[int, list[int]], list[int]]:
    """Parent-aware children lists plus a bottom-up processing order.

    Raises GraphStructureError unless g is a tree and root one of its
    vertices.
    """
    require_tree(g)
    if not (0 <= root < g.num_vertices):
        raise GraphStructureError(f"root {root} is not a vertex")
    children: dict[int, list[int]] = {v: [] for v in g.vertices()}
    order: list[int] = []
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                children[v].append(w)
                stack.append(w)
    return children, list(reversed(order))


def rooted_codes(g: Graph, root: int) -> Coded:
    """Children lists and the AHU code of every vertex, g a tree rooted at root.

    This is the one AHU (Aho-Hopcroft-Ullman) routine: each vertex's code
    wraps the sorted codes of its children.
    """
    children, order = _order_children(g, root)
    code: dict[int, str] = {}
    for v in order:
        code[v] = "(" + "".join(sorted(code[c] for c in children[v])) + ")"
    return children, code


def rooted_code(g: Graph, root: int) -> str:
    """AHU canonical code of the tree g rooted at `root`."""
    return rooted_codes(g, root)[1][root]


def centroids(g: Graph) -> list[int]:
    """The one or two centroid vertices of a tree."""
    children, order = _order_children(g, 0)
    n = g.num_vertices
    size = [1] * n
    for v in order:
        for c in children[v]:
            size[v] += size[c]
    best: list[int] = []
    best_weight = n + 1
    for v in g.vertices():
        weight = max([n - size[v]] + [size[c] for c in children[v]])
        if weight < best_weight:
            best_weight = weight
            best = [v]
        elif weight == best_weight:
            best.append(v)
    return sorted(best)


def free_code(g: Graph) -> str:
    """Canonical code of a free tree via centroid rooting."""
    return min(rooted_code(g, c) for c in centroids(g))


def tree_isomorphic(
    t1: Graph, t2: Graph, roots: tuple[int, int] | None = None
) -> bool:
    """Tree isomorphism; rooted when a pair of roots is given."""
    if roots is None:
        return free_code(t1) == free_code(t2)
    r1, r2 = roots
    return rooted_code(t1, r1) == rooted_code(t2, r2)


def _paired(coded1: Coded, root1: int, coded2: Coded, root2: int) -> dict[int, int] | None:
    """The rooted isomorphism of two coded trees (rooted_codes), or None.

    Children with equal codes are interchangeable; they are paired in
    (code, vertex id) order, which makes the returned map deterministic.
    """
    (ch1, code1), (ch2, code2) = coded1, coded2
    if code1[root1] != code2[root2]:
        return None
    mapping = {root1: root2}
    stack = [(root1, root2)]
    while stack:
        a, b = stack.pop()
        kids1 = sorted(ch1[a], key=lambda v: (code1[v], v))
        kids2 = sorted(ch2[b], key=lambda v: (code2[v], v))
        for c1, c2 in zip(kids1, kids2):
            mapping[c1] = c2
            stack.append((c1, c2))
    return mapping


def rooted_isomorphism_map(
    t1: Graph, root1: int, t2: Graph, root2: int
) -> dict[int, int] | None:
    """A vertex map realizing a rooted isomorphism, or None (see _paired)."""
    return _paired(rooted_codes(t1, root1), root1, rooted_codes(t2, root2), root2)


def isomorphism_map(t1: Graph, t2: Graph) -> dict[int, int] | None:
    """A vertex map realizing a free-tree isomorphism t1 -> t2, or None.

    Both trees are rooted at a centroid, as free_code does: t1 at its first
    one, t2 at whichever of its own takes that root's place.
    """
    root = centroids(t1)[0]
    roots2 = centroids(t2)
    if t1.num_vertices != t2.num_vertices:
        return None
    coded1 = rooted_codes(t1, root)
    for c in roots2:
        mapping = _paired(coded1, root, rooted_codes(t2, c), c)
        if mapping is not None:
            return mapping
    return None
