"""The benchmark's tracer still finds every function it wraps.

perfbench/tracing.py wraps public functions by module and name, including
the dispatcher's routes, which label_lobster_auto walks in its ROUTES table
(the tracer swaps functions inside a module-level dict of tuples).  A
rename, a call that bypasses the module global or a table of another shape
would silently drop a per-layer metric, so the tracer's own target list is
checked here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES, make_lobster
import lobsterlab.cli as cli
import lobsterlab.lobster_labeling as lobster_labeling
from lobsterlab.formats import parse_matrix
from lobsterlab.matrices import matrix_to_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_sees_the_routes():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    main = cli.main
    try:
        assert tracer.install() == []
        g, _ = matrix_to_graph(parse_matrix((FIXTURES / "lobster26_biadj.txt").read_text()))
        tracer.op = 0
        # through the module, as the CLI calls it, so the wrapper is seen
        assert lobster_labeling.label_lobster_auto(g).construction == "pairwise-balanced"
    finally:
        tracer.op = None
        tracer.uninstall()
    assert cli.main is main
    metrics = tracer.layer_metrics()
    assert metrics["route.pairwise-balanced.attempts"] == 1
    assert metrics["route.pairwise-balanced.wins"] == 1


def test_tracer_sees_every_route_of_the_table_and_one_decomposition():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    # unbalanced, not linked and not similar: every route fails before search
    t = make_lobster([([1, 2], 0), ([1, 1], 0)])
    try:
        assert tracer.install() == []
        tracer.op = 0
        assert lobster_labeling.label_lobster_auto(t).construction == "search"
    finally:
        tracer.op = None
        tracer.uninstall()
    assert lobster_labeling.ROUTES["linked"][1] is lobster_labeling.label_pairwise_linked
    metrics = tracer.layer_metrics()
    for route in ("pairwise-balanced", "pairwise-linked", "pairwise-similar", "search"):
        assert metrics[f"route.{route}.attempts"] == 1
    assert metrics["route.search.wins"] == 1
    assert metrics["lobsters.lobster_decompose.calls"] == 1
