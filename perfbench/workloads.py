"""Seeded inputs and operation lists for the four benchmark workloads.

Every input is produced here from the run's seed with the benchmark's own
generators, so the bytes on disk do not depend on the program under test.
The one exception is intended: the search-oracle set-up enumerates the
trees with n <= 10 through `lobsterlab.enumerate_trees`, because that is
where `canonical.free_code` runs.  Its output is checked against the
recorded reference before it is used.

Each workload yields one *pass*: a fixed list of operations, shuffled by
the seed.  A run repeats passes in a closed loop with a single caller.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# A clock-free budget: the wall-clock limit is far above what the node cap
# takes, so the cap alone ends a search and node counts repeat exactly.
CLOCK_FREE_SECS = "1000000"
NODE_CAP = 10_000
SWEEP_NODE_CAP = 5_000_000

WORKLOADS = ("certify-large", "search-oracle", "lobster-mix", "compose")

LABEL_CODES = frozenset({0, 1})
SEARCH_CODES = frozenset({0, 1, 3})
COUNT_CODES = frozenset({0})
CONSTRUCT_CODES = frozenset({0, 1})


@dataclass
class Op:
    """One `lobsterlab.cli.main(argv)` call and what its output must satisfy."""

    kind: str  # label | search | count | construct
    argv: list[str]
    expected: frozenset[int]
    n: int
    edges: list[tuple[int, int]] = field(default_factory=list)
    out: str | None = None
    alpha: bool = False
    ref_key: str | None = None
    parts: list[list[tuple[int, int]]] = field(default_factory=list)


@dataclass
class Workload:
    ops: list[Op]
    properties: dict


# -- small tree toolkit (independent of the package) ---------------------------


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def tree_code(n: int, edges) -> str:
    """AHU code of a free tree: the least rooted code over its centers."""
    if n == 1:
        return "()"
    adj = _adjacency(n, edges)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def rooted(root: int) -> str:
        parent = {root: -1}
        order = [root]
        for v in order:
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        code: dict[int, str] = {}
        for v in reversed(order):
            kids = sorted(code[w] for w in adj[v] if parent.get(w) == v)
            code[v] = "(" + "".join(kids) + ")"
        return code[root]

    return min(rooted(c) for c in layer)


def _strip_leaves(n: int, edges) -> tuple[set[int], list[tuple[int, int]]]:
    adj = _adjacency(n, edges)
    keep = {v for v in range(n) if len(adj[v]) > 1}
    return keep, [(u, v) for u, v in edges if u in keep and v in keep]


def _is_path(vertices: set[int], edges) -> bool:
    degree = {v: 0 for v in vertices}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return all(d <= 2 for d in degree.values())


def is_proper_lobster(n: int, edges) -> bool:
    """Removing the leaves leaves a caterpillar that is not a path."""
    keep, inner = _strip_leaves(n, edges)
    if _is_path(keep, inner):
        return False
    adj: dict[int, int] = {v: 0 for v in keep}
    for u, v in inner:
        adj[u] += 1
        adj[v] += 1
    core = {v for v in keep if adj[v] > 1}
    return _is_path(core, [(u, v) for u, v in inner if u in core and v in core])


def is_graceful(n: int, edges, labels: dict[int, int], bound: int | None = None) -> bool:
    """Distinct labels in 0..bound and distinct nonzero edge differences."""
    bound = len(edges) if bound is None else bound
    if len(labels) != n or set(labels) != set(range(n)):
        return False
    if len(set(labels.values())) != n:
        return False
    if any(not 0 <= lab <= bound for lab in labels.values()):
        return False
    diffs = {abs(labels[u] - labels[v]) for u, v in edges}
    return len(diffs) == len(edges) and 0 not in diffs


def straddles(edges, labels: dict[int, int], k: int) -> bool:
    return all(min(labels[u], labels[v]) <= k < max(labels[u], labels[v]) for u, v in edges)


def shuffled_ids(rng: random.Random, n: int, edges):
    """The same tree under a random vertex permutation, edge order and orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        a, b = perm[u], perm[v]
        out.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(out)
    return perm, out


def prufer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
    u, v = [w for w in range(n) if degree[w] == 1]
    edges.append((u, v))
    return edges


def caterpillar(rng: random.Random, n: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Spine 0..s-1 and n - s leaves hung on random spine vertices."""
    s = rng.randint(max(2, n // 6), max(2, n // 2))
    edges = [(i, i + 1) for i in range(s - 1)]
    edges += [(rng.randrange(s), v) for v in range(s, n)]
    return list(range(s)), edges


def caterpillar_sweep(n: int, spine: list[int], edges) -> tuple[dict[int, int], int]:
    """The classic two-sided sweep; returns a complete alpha labeling and k."""
    adj = _adjacency(n, edges)
    on_spine = set(spine)
    low, high = 0, n - 1
    labels: dict[int, int] = {}
    for idx, v in enumerate(spine):
        leaves = sorted(w for w in adj[v] if w not in on_spine)
        if idx % 2 == 0:
            labels[v], low = low, low + 1
            for w in leaves:
                labels[w], high = high, high - 1
        else:
            labels[v], high = high, high - 1
            for w in leaves:
                labels[w], low = low, low + 1
    k = max(min(labels[u], labels[v]) for u, v in edges)
    return labels, k


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def balanced_spec(rng: random.Random, r: int, max_leaf: int = 9):
    """Leaf counts solving the balance equations, drawn as the test-suite does.

    One free value per component of the odd-slot coupling spans every
    solution; pendant counts are free.
    """
    parent: dict = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, r + 1, 2):
        j = _odd_part(r - (i - 1) // 2)
        for a, b in ((("x", i), ("y", j)), (("y", i), ("x", j))):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    value: dict = {}

    def value_of(slot) -> int:
        root = find(slot)
        if root not in value:
            value[root] = rng.randint(1, max_leaf)
        return value[root]

    x = tuple(value_of(("x", _odd_part(i))) for i in range(1, r + 1))
    y = tuple(value_of(("y", _odd_part(i))) for i in range(1, r + 1))
    return x, y, rng.randint(0, 3), rng.randint(0, 3)


def lobster_from_lobes(lobes) -> tuple[int, list[tuple[int, int]]]:
    """Tree from per-spine-vertex (branch leaf counts, pendant count)."""
    s = len(lobes)
    edges = [(i, i + 1) for i in range(s - 1)]
    nxt = s
    for i, (counts, pendants) in enumerate(lobes):
        for c in counts:
            center, nxt = nxt, nxt + 1
            edges.append((i, center))
            for _ in range(c):
                edges.append((center, nxt))
                nxt += 1
        for _ in range(pendants):
            edges.append((i, nxt))
            nxt += 1
    return nxt, edges


def balanced_chain(rng: random.Random, pairs: int, r: int):
    lobes = []
    for _ in range(pairs):
        x, y, hp, tp = balanced_spec(rng, r)
        lobes += [(x, hp), (y, tp)]
    return lobster_from_lobes(lobes)


def random_lobster(rng: random.Random, s: int, n: int) -> list[tuple[int, int]]:
    """Spine of s vertices; branches of 1-2 leaves or, one time in five, pendants."""
    edges = [(i, i + 1) for i in range(s - 1)]
    nxt = s
    first = True
    while nxt < n:
        left = n - nxt
        at = rng.randrange(1, s - 1) if first else rng.randrange(s)
        if left < 2 or (not first and rng.random() < 0.2):
            edges.append((at, nxt))
            nxt += 1
            continue
        leaves = min(rng.randint(1, 2), left - 1)
        center, nxt = nxt, nxt + 1
        edges.append((at, center))
        for _ in range(leaves):
            edges.append((center, nxt))
            nxt += 1
        first = False
    return edges


def ladder(lo: int, hi: int, count: int) -> list[int]:
    """count sizes spaced geometrically from lo to hi."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


# -- file writing ---------------------------------------------------------------


def edges_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def labeling_text(labels: dict[int, int], critical: int) -> str:
    body = "".join(f"{v} {labels[v]}\n" for v in sorted(labels))
    return f"kind alpha\ncritical {critical}\n{body}"


def _budget(vertices: int, nodes: int) -> list[str]:
    return [
        "--budget-vertices", str(vertices),
        "--budget-nodes", str(nodes),
        "--budget-secs", CLOCK_FREE_SECS,
    ]


def _quartiles(values) -> list[int]:
    values = sorted(values)
    return [values[round(q * (len(values) - 1))] for q in (0.25, 0.5, 0.75)]


# -- the workloads ----------------------------------------------------------------


def certify_large(rng: random.Random, work: Path) -> Workload:
    """label --out on caterpillars and pairwise-balanced lobsters, 250-2000 vertices."""
    trees = []
    for n in ladder(250, 2000, 60):
        _, edges = caterpillar(rng, n)
        trees.append(("caterpillar", n, edges))
    for family, targets in (("balanced-pair", ladder(250, 2000, 30)),
                            ("balanced-chain", ladder(250, 2000, 30))):
        for target in targets:
            pairs = 1 if family == "balanced-pair" else rng.randint(2, 4)
            r = max(1, round((target / pairs - 5) / 12))
            n, edges = balanced_chain(rng, pairs, r)
            while abs(n - target) > target // 10:  # stay on the size ladder
                n, edges = balanced_chain(rng, pairs, r)
            trees.append((family, n, edges))
    out = str(work / "out")
    ops = []
    for idx, (family, n, edges) in enumerate(trees):
        _, edges = shuffled_ids(rng, n, edges)
        path = work / f"t{idx:03d}.edges"
        path.write_text(edges_text(n, edges))
        argv = ["label", str(path), "--out", out] + _budget(16, NODE_CAP)
        ops.append(Op("label", argv, LABEL_CODES, n, edges, out=out))
    rng.shuffle(ops)
    props = {"vertices_quartiles": _quartiles(n for _, n, _ in trees),
             "families": {f: sum(t[0] == f for t in trees) for f in
                          ("caterpillar", "balanced-pair", "balanced-chain")}}
    return Workload(ops, props)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def small_trees(lobsterlab, max_n: int = 10) -> list[tuple[str, int, list]]:
    """Every tree with n <= max_n from the package, keyed by the benchmark's own code."""
    out = []
    for n in range(1, max_n + 1):
        for g in lobsterlab.enumerate_trees(n):
            edges = [tuple(e) for e in g.sorted_edges()]
            out.append((tree_code(n, edges), n, edges))
    out.sort()
    return out


def search_oracle(rng: random.Random, work: Path, lobsterlab) -> Workload:
    """search and search --alpha on every tree n <= 10, --count on n <= 8, capped random trees."""
    reference = load_reference()
    trees = small_trees(lobsterlab)
    codes = [code for code, _, _ in trees]
    if len(set(codes)) != len(codes) or set(codes) != set(reference):
        raise RuntimeError("enumerate_trees does not match the recorded trees with n <= 10")
    ops = []
    for idx, (code, n, edges) in enumerate(trees):
        _, edges = shuffled_ids(rng, n, edges)
        path = work / f"s{idx:03d}.edges"
        path.write_text(edges_text(n, edges))
        sweep = _budget(20, SWEEP_NODE_CAP)
        ops.append(Op("search", ["search", str(path)] + sweep, SEARCH_CODES, n, edges,
                      ref_key=code))
        ops.append(Op("search", ["search", str(path), "--alpha"] + sweep, SEARCH_CODES, n,
                      edges, alpha=True, ref_key=code))
        if n <= 8:
            ops.append(Op("count", ["search", str(path), "--count"] + sweep, COUNT_CODES, n,
                          edges, ref_key=code))
    sizes = [12 + i % 5 for i in range(120)]
    for idx, n in enumerate(sizes):
        _, edges = shuffled_ids(rng, n, prufer_tree(rng, n))
        path = work / f"r{idx:03d}.edges"
        path.write_text(edges_text(n, edges))
        ops.append(Op("search", ["search", str(path)] + _budget(20, NODE_CAP), SEARCH_CODES,
                      n, edges))
    rng.shuffle(ops)
    props = {"vertices_quartiles": _quartiles(op.n for op in ops),
             "ops": {"sweep": 2 * len(trees), "count": sum(op.kind == "count" for op in ops),
                     "capped_random": len(sizes)}}
    return Workload(ops, props)


# Sizes 12-16, where the fallback search runs, come up twice as often as
# 17-40, so that the node-capped searches fill the tail beyond op_p90_ms.
LOBSTER_SIZES = list(range(12, 17)) * 2 + list(range(17, 41))
LOBSTER_MIX_OPS = 22 * 102  # whole cycles of the 34 sizes and 6 spine lengths


def lobster_mix(rng: random.Random, work: Path) -> Workload:
    """label (auto) on random proper lobsters: spines of 3-8, 12-40 vertices."""
    out = str(work / "out")
    ops = []
    for idx in range(LOBSTER_MIX_OPS):
        n, s = LOBSTER_SIZES[idx % len(LOBSTER_SIZES)], 3 + idx % 6
        edges = random_lobster(rng, s, n)
        while not is_proper_lobster(n, edges):
            edges = random_lobster(rng, s, n)
        _, edges = shuffled_ids(rng, n, edges)
        path = work / f"l{idx:04d}.edges"
        path.write_text(edges_text(n, edges))
        argv = ["label", str(path), "--out", out] + _budget(16, NODE_CAP)
        ops.append(Op("label", argv, LABEL_CODES, n, edges, out=out))
    rng.shuffle(ops)
    props = {"vertices_quartiles": _quartiles(op.n for op in ops)}
    return Workload(ops, props)


COMPOSE_OPS = ("double", "union", "km", "mm-alt", "mm-all", "copies", "star", "attach", "merge")
PROPOSITION = {"union": "disjoint-union", "km": "chain-km", "mm-alt": "chain-mm",
               "mm-all": "chain-mm", "copies": "copy-chain", "star": "star-join",
               "merge": "merge-chain"}


def compose(rng: random.Random, work: Path) -> Workload:
    """construct over all eight propositions on caterpillar-sweep labeled parts."""
    sizes = ladder(20, 120, 6)
    pool: dict[int, list] = {n: [] for n in sizes}
    counter = 0
    for n in sizes:
        for _ in range(6):
            spine, edges = caterpillar(rng, n)
            labels, k = caterpillar_sweep(n, spine, edges)
            if not (is_graceful(n, edges, labels) and straddles(edges, labels, k)):
                raise RuntimeError("caterpillar sweep produced an invalid part")
            perm, edges = shuffled_ids(rng, n, edges)
            labels = {perm[v]: lab for v, lab in labels.items()}
            stem = work / f"p{counter:02d}"
            stem.with_suffix(".edges").write_text(edges_text(n, edges))
            stem.with_suffix(".labels").write_text(labeling_text(labels, k))
            pool[n].append((f"{stem}.edges:{stem}.labels", edges, labels))
            counter += 1
    carriers = []
    for n in (2, 3, 4):
        spine, edges = caterpillar(rng, n)
        labels, k = caterpillar_sweep(n, spine, edges)
        stem = work / f"h{n}"
        stem.with_suffix(".edges").write_text(edges_text(n, edges))
        stem.with_suffix(".labels").write_text(labeling_text(labels, k))
        carriers.append((f"{stem}.edges:{stem}.labels", edges, labels))
    out = str(work / "out")
    ops = []
    # every (operation, part size, part count) combination equally often, so
    # the pass's mix of costs does not depend on the seed
    for i in range(3 * len(COMPOSE_OPS) * len(sizes) * 3):
        kind = COMPOSE_OPS[i % len(COMPOSE_OPS)]
        bucket = pool[sizes[i // len(COMPOSE_OPS) % len(sizes)]]
        count = 1 + i // (len(COMPOSE_OPS) * len(sizes)) % 3
        extra: list[str] = []
        if kind == "double":
            parts = [rng.choice(bucket)]
            extra = ["--at", str(rng.choice(sorted(parts[0][2].values())))]
        elif kind in ("union", "km", "mm-alt"):
            parts = [rng.choice(bucket) for _ in range(count)]
        elif kind in ("mm-all", "star"):
            parts = [rng.choice(bucket)] * count
            extra = ["--mode", "all_m"] if kind == "mm-all" else []
        elif kind in ("copies", "merge"):
            parts = [rng.choice(bucket) for _ in range(max(2, count))]
        else:  # attach: a mirrored list of parts on a carrier of count + 1 vertices
            carrier = carriers[count - 1]
            half = [rng.choice(bucket) for _ in range((count + 1) // 2)]
            mid = [rng.choice(bucket)] if (count + 1) % 2 else []
            parts = [carrier] + half + mid + half[::-1]
        argv = ["construct", PROPOSITION.get(kind, kind), "--inputs"]
        argv += [token for token, _, _ in parts] + extra + ["--out", out]
        # the certificate lists the carrier's vertex map after the parts' maps
        in_meta_order = parts[1:] + parts[:1] if kind == "attach" else parts
        part_edges = [edges for _, edges, _ in in_meta_order]
        n = sum(len(e) + 1 for e in part_edges)
        ops.append(Op("construct", argv, CONSTRUCT_CODES, n, out=out, parts=part_edges))
    rng.shuffle(ops)
    props = {"part_vertices_quartiles": _quartiles(sizes),
             "input_vertices_quartiles": _quartiles(op.n for op in ops),
             "ops": {p: sum(op.argv[1] == p for op in ops) for p in
                     sorted({PROPOSITION.get(k, k) for k in COMPOSE_OPS})}}
    return Workload(ops, props)


def build(name: str, seed: int, work: Path, lobsterlab) -> Workload:
    """Write the workload's inputs under work and return its pass."""
    rng = random.Random(f"{name}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if name == "certify-large":
        return certify_large(rng, work)
    if name == "search-oracle":
        return search_oracle(rng, work, lobsterlab)
    if name == "lobster-mix":
        return lobster_mix(rng, work)
    if name == "compose":
        return compose(rng, work)
    raise ValueError(f"unknown workload {name!r}")


def write_reference(lobsterlab) -> dict:
    """Record search, alpha and count answers for every tree with n <= 10."""
    budget = lobsterlab.SearchBudget(max_vertices=20, max_nodes=SWEEP_NODE_CAP,
                                     time_limit=float(CLOCK_FREE_SECS))
    reference = {}
    for code, n, edges in small_trees(lobsterlab):
        g = lobsterlab.build_graph(n, edges)
        entry = {"n": n,
                 "search": lobsterlab.brute_force_graceful(g, budget).status,
                 "alpha": lobsterlab.brute_force_alpha(g, budget).status}
        if n <= 8:
            entry["count"] = lobsterlab.count_graceful_labelings(g, budget)
        reference[code] = entry
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return reference

