"""The benchmark's tracer still finds every function it wraps.

perfbench/tracing.py wraps public functions by module and name, including
the dispatcher's routes, which label_lobster_auto must call by name.  A
rename or a call that bypasses the module global would silently drop a
per-layer metric, so the tracer's own target list is checked here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES
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
