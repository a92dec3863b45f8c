"""Recorded outcomes of the lobster routes and the eight propositions.

Seeded lobsters go through `label_lobster_auto` and each of the three
class routes; seeded caterpillar parts go through every proposition.  Each
case is reduced to one sha256 over the certificate's construction, claim,
critical value, vertex and copy maps, ones and slots, or over the error
text, and compared with fixtures/golden/routes.json.  To re-record after an
intended change to a route or a proposition:

    PYTHONPATH=src python tests/test_routes.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from conftest import random_balanced_spec
from lobsterlab.constructions import (
    Certificate,
    attach_at_vertices,
    chain_join_km,
    chain_join_mm,
    chain_with_copies,
    disjoint_union_alpha,
    double,
    merge_join_chain,
    star_join,
)
from lobsterlab.errors import LobsterLabError
from lobsterlab.graphs import Graph, build_graph
from lobsterlab.labelings import BETA, Labeling
from lobsterlab.lobster_labeling import (
    CoverageReport,
    label_caterpillar,
    label_lobster_auto,
    label_pairwise_balanced,
    label_pairwise_linked,
    label_pairwise_similar,
)
from lobsterlab.lobsters import lobster_decompose
from lobsterlab.search import SearchBudget

ROUTES_GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "routes.json"

# node-capped and never time-capped, so every outcome is reproducible
BUDGET = SearchBudget(max_vertices=12, max_nodes=4000, time_limit=1e9)

ROUTES = {
    "auto": lambda t: label_lobster_auto(t, BUDGET),
    "balanced": label_pairwise_balanced,
    "linked": lambda t: label_pairwise_linked(t, BUDGET),
    "similar": lambda t: label_pairwise_similar(t, BUDGET),
}


# -- inputs ---------------------------------------------------------------------


def _tree(rng: random.Random, lobes) -> Graph:
    """A lobster from per-spine-vertex (branch leaf counts, pendant count),
    with its vertex ids shuffled so that no map is the identity."""
    edges = [(i, i + 1) for i in range(len(lobes) - 1)]
    nxt = len(lobes)
    for i, (counts, pendants) in enumerate(lobes):
        for c in counts:
            center, nxt = nxt, nxt + 1
            edges.append((i, center))
            edges += [(center, leaf) for leaf in range(nxt, nxt + c)]
            nxt += c
        edges += [(i, p) for p in range(nxt, nxt + pendants)]
        nxt += pendants
    ids = list(range(nxt))
    rng.shuffle(ids)
    return build_graph(nxt, [(ids[a], ids[b]) for a, b in edges])


def _branches(rng: random.Random, lo: int, hi: int) -> list[int]:
    return [rng.randint(1, 3) for _ in range(rng.randint(lo, hi))]


def _similar(rng: random.Random) -> list:
    """Pairs of equal lobes, either branch parity, pendants on both members."""
    lobes = []
    for _ in range(rng.randint(1, 3)):
        counts = _branches(rng, 1, 3)
        lobes.append((counts, rng.randint(0, 3)))
        lobes.append((rng.sample(counts, len(counts)), rng.randint(0, 3)))
    if rng.random() < 0.5:
        lobes.append((_branches(rng, 1, 3), rng.randint(0, 3)))
    return lobes


def _linked(rng: random.Random) -> list:
    """Each lobe holds its own kept branches plus a copy of the next piece's."""
    pieces = [_branches(rng, 1, 3)]
    for _ in range(rng.randint(1, 3)):
        pieces.insert(0, _branches(rng, 0, 2))
    lobes = []
    for i, keep in enumerate(pieces):
        shed = pieces[i + 1] if i + 1 < len(pieces) else []
        lobes.append((rng.sample(keep + shed, len(keep + shed)), rng.randint(0, 2)))
    return lobes


def _balanced(
    rng: random.Random, pairs: int = 2, min_r: int = 0, max_r: int = 4, max_leaf: int = 3
) -> list:
    lobes = []
    for _ in range(rng.randint(1, pairs)):
        spec = random_balanced_spec(rng, max_r=max_r, max_leaf=max_leaf, min_r=min_r)
        lobes.append((list(spec.head_leaves), spec.head_pendants))
        lobes.append((list(spec.tail_leaves), spec.tail_pendants))
    return lobes


def _mixed(rng: random.Random) -> list:
    return [(_branches(rng, 0, 2), rng.randint(0, 2)) for _ in range(rng.randint(2, 5))]


def _large_balanced(rng: random.Random) -> list:
    """Chains of up to four balanced pairs with 8-40 branches a side and up
    to 9 leaves a branch, so equal branches (ties in the layout) abound."""
    return _balanced(rng, pairs=4, min_r=8, max_r=40, max_leaf=9)


FAMILIES = {"similar": _similar, "linked": _linked, "balanced": _balanced, "mixed": _mixed}
PER_FAMILY = 60
LARGE_FAMILIES = {"balanced-large": _large_balanced}
PER_LARGE_FAMILY = 20


def lobster_cases():
    """(case id, tree) for every seeded lobster that is a proper lobster."""
    for families, per_family in ((FAMILIES, PER_FAMILY), (LARGE_FAMILIES, PER_LARGE_FAMILY)):
        for family, make in families.items():
            rng = random.Random(f"routes-{family}")
            for i in range(per_family):
                yield f"{family}-{i}", _tree(rng, make(rng))


def _caterpillar(rng: random.Random, n: int):
    """A complete alpha labeled caterpillar with shuffled ids (n >= 2)."""
    spine = rng.randint(1, max(1, n // 2))
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    ids = list(range(n))
    rng.shuffle(ids)
    g = build_graph(n, [(ids[a], ids[b]) for a, b in edges])
    return g, label_caterpillar(g)


def _beta(part):
    g, f = part
    return g, Labeling(dict(f.assignment), BETA)


def _composition(rng: random.Random, prop: str):
    def parts(lo, hi, size=None):
        return [_caterpillar(rng, size or rng.randint(2, 10)) for _ in range(rng.randint(lo, hi))]

    if prop == "double":
        g, f = _beta(_caterpillar(rng, rng.randint(2, 10)))
        at = rng.randint(0, g.num_edges)
        return lambda: double((g, f), at)
    if prop == "disjoint-union":
        ps = parts(1, 3)
        return lambda: disjoint_union_alpha(ps)
    if prop == "chain-km":
        ps = parts(1, 4)
        return lambda: chain_join_km(ps)
    if prop == "chain-mm":
        ps, mode = parts(1, 4), rng.choice(["alternating", "all_m"])
        return lambda: chain_join_mm(ps, mode)
    if prop == "copy-chain":
        ps = [_beta(p) for p in parts(2, 4)]
        return lambda: chain_with_copies(ps)
    if prop == "star-join":
        ps = [_beta(p) for p in parts(1, 3, rng.randint(2, 8))]
        return lambda: star_join(ps)
    if prop == "merge-chain":
        ps = [_beta(p) for p in parts(2, 4)]
        return lambda: merge_join_chain(ps)
    # attach: a carrier with r + 1 vertices, mirrored parts i and r - i
    r = rng.randint(1, 3)
    carrier = _beta(_caterpillar(rng, r + 1))
    sizes = [rng.randint(2, 7) for _ in range(r // 2 + 1)]
    if rng.random() < 0.5:
        sizes = [sizes[0]] * len(sizes)
    shapes = [_caterpillar(rng, s)[0] for s in sizes]
    ps = []
    for i in range(r + 1):
        g = shapes[min(i, r - i)]
        ps.append(_beta((g, label_caterpillar(g))))
    relaxed = rng.random() < 0.5
    return lambda: attach_at_vertices(carrier, ps, relaxed=relaxed)


PROPOSITIONS = (
    "double", "disjoint-union", "chain-km", "chain-mm",
    "copy-chain", "star-join", "attach", "merge-chain",
)
PER_PROPOSITION = 40


def composition_cases():
    for prop in PROPOSITIONS:
        rng = random.Random(f"routes-{prop}")
        for i in range(PER_PROPOSITION):
            yield f"{prop}-{i}", _composition(rng, prop)


# -- digests ----------------------------------------------------------------------


def _maps(maps) -> list:
    return [sorted(m.items()) for m in maps]


def outcome(run) -> object:
    """What a route or proposition produced, as plain JSON data."""
    try:
        result = run()
    except LobsterLabError as exc:
        return ["error", type(exc).__name__, str(exc)]
    if isinstance(result, CoverageReport):
        return ["not-covered", [list(r) for r in result.reasons]]
    assert isinstance(result, Certificate)
    m = result.result_matrix
    return [
        result.construction,
        result.claim,
        result.critical,
        _maps(result.vertex_maps),
        _maps(result.copy_maps),
        m.kind,
        sorted(m.ones),
        list(m.row_slots),
        list(m.col_slots),
    ]


def digest(run) -> str:
    text = json.dumps(outcome(run), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def all_digests() -> dict[str, str]:
    out = {}
    for case, t in lobster_cases():
        for name, route in ROUTES.items():
            out[f"{case}/{name}"] = digest(lambda: route(t))
    for case, build in composition_cases():
        out[case] = digest(build)
    return out


def test_routes_match_recording():
    recorded = json.loads(ROUTES_GOLDEN.read_text())
    now = all_digests()
    assert sorted(now) == sorted(recorded)
    changed = [case for case in sorted(now) if now[case] != recorded[case]]
    assert not changed, f"{len(changed)} outcomes changed, first {changed[:10]}"


def test_recording_covers_the_pendant_shapes():
    """The lobsters reach every pendant placement the routes handle.

    A linked route labels a lobster with pendants at both spine ends (so its
    head piece has some in either direction); a similar route labels even
    and odd spines, with two or more pendants everywhere (leftovers on both
    members of a pair after any promotion) and with a promoted pendant.
    """
    seen = set()
    for case, t in lobster_cases():
        lob = lobster_decompose(t)
        pend = lob.pendant_counts
        for name in ("linked", "similar"):
            if outcome(lambda: ROUTES[name](t))[0] == "error":
                continue
            if name == "linked" and pend[0] and pend[-1]:
                seen.add("linked-head-pendants")
            if name == "similar":
                seen.add(f"similar-spine-{lob.spine_length % 2}")
                if min(pend) >= 2:
                    seen.add("similar-leftovers")
                if any(len(lobe) % 2 == 0 and lobe for lobe in lob.lobes):
                    seen.add("similar-promoted")
    assert seen == {
        "linked-head-pendants",
        "similar-spine-0",
        "similar-spine-1",
        "similar-leftovers",
        "similar-promoted",
    }


def _record() -> None:
    digests = all_digests()
    ROUTES_GOLDEN.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
