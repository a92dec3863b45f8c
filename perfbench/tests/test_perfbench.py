"""Tests of the benchmark itself: inputs, metric names, statistics, tracing, oracle.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def package():
    return run.load_package()


def _digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path, package):
    lobsterlab, _ = package
    first = workloads.build(name, 7, tmp_path / "a", lobsterlab)
    again = workloads.build(name, 7, tmp_path / "b", lobsterlab)
    other = workloads.build(name, 8, tmp_path / "c", lobsterlab)
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")

    def argvs(wl, directory):
        return [[a.replace(str(directory), "") for a in op.argv] for op in wl.ops]

    assert argvs(first, tmp_path / "a") == argvs(again, tmp_path / "b")
    assert len(first.ops) == len(other.ops)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == run.END_TO_END
    assert per_layer == tracing.per_layer_names()
    names = [n for n, _ in end_to_end + per_layer] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_p90_omitted_below_ten_samples_beyond_it():
    assert run.p90_with_support([float(x) for x in range(50)]) == (None, 5)
    p90, beyond = run.p90_with_support([float(x) for x in range(120)])
    assert p90 is not None and beyond >= 10
    assert run.p90_with_support([1.0]) == (None, 0)


@pytest.mark.parametrize("name,count", [("lobster-mix", 40), ("compose", 30), ("search-oracle", 60)])
def test_self_times_never_negative_and_bounded_by_wall(name, count, tmp_path, package):
    lobsterlab, cli = package
    ops = workloads.build(name, 3, tmp_path, lobsterlab).ops[:count]
    tracer = tracing.Tracer()
    assert tracer.install() == []
    walls = {}
    try:
        for idx, op in enumerate(ops):
            tracer.op = idx
            walls[idx], rc, _, exc = run.run_op(cli, op)
            tracer.op = None
            assert exc is None and rc in op.expected
    finally:
        tracer.op = None
        tracer.uninstall()
    _, self_ns = tracer.busy_and_self()
    assert tracer.spans and min(self_ns) >= 0
    per_op: dict[int, int] = {}
    for span, own in zip(tracer.spans, self_ns):
        per_op[span[4]] = per_op.get(span[4], 0) + own
    for op, total in per_op.items():
        assert total <= walls[op]
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.busy_s"] > 0
    assert set(metrics) | {"trace.op_p50_ms", "trace.overhead_ms"} == {
        n for n, _ in tracing.per_layer_names()}


def test_uninstall_restores_every_binding(package):
    lobsterlab, cli = package
    before = (cli.main, cli.CONSTRUCTIONS["double"], cli.label_lobster_auto,
              lobsterlab.matrices.LabeledMatrix.__dict__["__post_init__"],
              lobsterlab.lobster_labeling.search_graceful_with_fixed)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.main is not before[0] and cli.CONSTRUCTIONS["double"] is not before[1]
    assert lobsterlab.lobster_labeling.search_graceful_with_fixed is not before[4]
    tracer.uninstall()
    after = (cli.main, cli.CONSTRUCTIONS["double"], cli.label_lobster_auto,
             lobsterlab.matrices.LabeledMatrix.__dict__["__post_init__"],
             lobsterlab.lobster_labeling.search_graceful_with_fixed)
    assert all(a is b for a, b in zip(before, after))


def permutation_count(n: int, edges) -> int:
    """Graceful labelings of a tree counted as functions, by trying every bijection."""
    return sum(len({abs(p[u] - p[v]) for u, v in edges}) == len(edges)
               for p in itertools.permutations(range(n)))


def test_search_count_matches_permutation_oracle(tmp_path, package):
    lobsterlab, cli = package
    reference = workloads.load_reference()
    for code, n, edges in workloads.small_trees(lobsterlab, max_n=7):
        path = tmp_path / "t.edges"
        path.write_text(workloads.edges_text(n, edges))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["search", str(path), "--count", "--budget-nodes", "5000000",
                           "--budget-secs", "1000000"])
        expected = permutation_count(n, edges)
        assert rc == 0 and out.getvalue() == f"count {expected}\n", edges
        assert reference[code]["count"] == expected


def test_checks_reject_a_corrupted_certificate(tmp_path, package):
    lobsterlab, cli = package
    op = workloads.build("certify-large", 5, tmp_path, lobsterlab).ops[0]
    _, rc, stdout, exc = run.run_op(cli, op)
    reference = {}
    assert checks.check(op, rc, stdout, exc, lobsterlab, reference) == (None, True, True)
    labeling = Path(op.out) / "labeling.txt"
    lines = labeling.read_text().splitlines()
    vertex, _ = lines[2].split()
    lines[2] = f"{vertex} {lines[3].split()[1]}"  # two vertices now share a label
    labeling.write_text("\n".join(lines) + "\n")
    failure, covered, _ = checks.check(op, rc, stdout, exc, lobsterlab, reference)
    assert failure is not None and not covered
