"""Re-verification of every operation's output.

The benchmark reads what the CLI printed and wrote with its own parsers,
re-checks each labeling with its own graceful/alpha test and with the
package's `verify_beta` / `verify_alpha`, and compares the n <= 10 answers
with the recorded reference.  `check` returns (failure, covered, decided);
failure is None when the output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import is_graceful, straddles

ALPHA_CLAIMS = ("alpha", "complete-alpha")


class CheckFailed(Exception):
    pass


def _require(condition: bool, why: str) -> None:
    if not condition:
        raise CheckFailed(why)


def _lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip()]


def parse_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = _lines(text)
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, line.split())) for line in lines[1:]]
    _require(len(edges) == m, "edge count does not match the header")
    return n, edges


def parse_labeling(lines: list[str]) -> tuple[str, int | None, dict[int, int]]:
    _require(bool(lines) and lines[0].startswith("kind "), "labeling lacks a kind line")
    kind = lines[0].split()[1]
    critical = None
    body = lines[1:]
    if body and body[0].startswith("critical "):
        critical = int(body[0].split()[1])
        body = body[1:]
    labels: dict[int, int] = {}
    for line in body:
        v, lab = map(int, line.split())
        _require(v not in labels, f"vertex {v} labeled twice")
        labels[v] = lab
    return kind, critical, labels


def _package_verdict(lobsterlab, n, edges, kind, critical, labels, alpha, bound=None):
    g = lobsterlab.build_graph(n, edges)
    f = lobsterlab.Labeling(dict(labels), kind, critical)
    return (lobsterlab.verify_alpha if alpha else lobsterlab.verify_beta)(g, f, bound)


def _check_labeling(lobsterlab, n, edges, kind, critical, labels, alpha, bound=None) -> None:
    _require(is_graceful(n, edges, labels, bound), "labeling is not graceful")
    if alpha:
        _require(critical is not None and straddles(edges, labels, critical),
                 "labeling is not an alpha labeling at its critical value")
    verdict = _package_verdict(lobsterlab, n, edges, kind, critical, labels, alpha, bound)
    _require(bool(verdict), f"verify rejects the labeling: {verdict.reason}")


def _carries(vmap: dict, edges, result_edges: set, n_part: int | None = None) -> None:
    if n_part is not None:
        _require(len(vmap) == n_part and len(set(vmap.values())) == n_part,
                 "vertex map is not a bijection onto the result")
    for u, v in edges:
        a, b = vmap[str(u)], vmap[str(v)]
        _require((min(a, b), max(a, b)) in result_edges, f"edge ({u}, {v}) is not carried")


def check_certificate(lobsterlab, out: str, stdout_claim: tuple[str, str]) -> tuple[dict, int, set]:
    """Re-read and re-verify a certificate directory; return its meta, n and edges."""
    base = Path(out)
    meta = json.loads((base / "meta.json").read_text())
    _require((meta["construction"], meta["claim"]) == stdout_claim,
             "printed construction does not match meta.json")
    n, edges = parse_edges((base / "graph.edges").read_text())
    kind, critical, labels = parse_labeling(_lines((base / "labeling.txt").read_text()))
    claim = meta["claim"]
    bound = int(meta["details"]["max_label"]) if "max_label" in meta["details"] else None
    alpha = claim in ALPHA_CLAIMS
    if alpha:
        _require(critical == meta["critical"], "labeling critical differs from meta.json")
    _check_labeling(lobsterlab, n, edges, kind, critical, labels, alpha, bound)
    matrix = _lines((base / "matrix.txt").read_text())
    head = matrix[0].split()
    rows, cols = int(head[1]), int(head[2])
    grid = matrix[3:]
    _require(len(grid) == rows and all(len(row) == cols for row in grid),
             "matrix.txt dimensions do not match its header")
    ones = sum(row.count("1") for row in grid)
    _require(ones == len(edges) * (2 if head[0] == "adjacency" else 1),
             "matrix.txt does not hold one cell per edge")
    result_edges = {(min(u, v), max(u, v)) for u, v in edges}
    return meta, n, result_edges


def _claim_line(stdout: str, prefix: str) -> tuple[str, str]:
    line = stdout.strip()
    _require(line.startswith(prefix) and line.endswith(")") and "\n" not in line,
             f"unexpected output {line[:60]!r}")
    construction, claim = line[len(prefix):-1].split(" (")
    return construction, claim


def _check(op, rc: int, stdout: str, lobsterlab, reference: dict) -> tuple[bool, bool]:
    """Raise CheckFailed on a wrong output; else return (covered, decided)."""
    if op.kind == "label":
        if rc == 1:
            _require(stdout.startswith("not-covered"), "exit 1 without a coverage report")
            return False, "search: exhausted-none" in stdout
        meta, n, result_edges = check_certificate(
            lobsterlab, op.out, _claim_line(stdout, "labeled via "))
        _require(n == op.n, "certificate has another vertex count than the input")
        _carries(meta["vertex_maps"][0], op.edges, result_edges, op.n)
        return True, True
    if op.kind == "construct":
        if rc == 1:
            return False, False
        meta, _, result_edges = check_certificate(
            lobsterlab, op.out, _claim_line(stdout, "built "))
        _require(len(meta["vertex_maps"]) == len(op.parts), "one vertex map per part expected")
        for vmap, edges in zip(meta["vertex_maps"], op.parts):
            _carries(vmap, edges, result_edges)
        return True, True
    ref = reference.get(op.ref_key) if op.ref_key else None
    if op.kind == "count":
        _require(stdout.startswith("count "), "count printed no count")
        _require(int(stdout.split()[1]) == ref["count"], "count differs from the reference")
        return True, True
    status = {0: "found", 1: "exhausted-none", 3: "budget-exceeded"}[rc]
    lines = _lines(stdout)
    _require(lines[0] == status, f"exit {rc} printed {lines[0]!r}")
    if ref is not None:
        _require(status == ref["alpha" if op.alpha else "search"],
                 "search answer differs from the reference")
    if rc == 0:
        kind, critical, labels = parse_labeling(lines[1:])
        _check_labeling(lobsterlab, op.n, op.edges, kind, critical, labels, op.alpha)
    return rc == 0, rc in (0, 1)


def check(op, rc, stdout: str, exc, lobsterlab, reference: dict):
    """(failure or None, covered, decided) for one finished operation."""
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}", False, False
    if rc not in op.expected:
        return f"exit code {rc} not in {sorted(op.expected)}", False, False
    try:
        covered, decided = _check(op, rc, stdout, lobsterlab, reference)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as err:
        return f"{type(err).__name__}: {err}", False, False
    return None, covered, decided
