"""Spans around the package's public functions, recorded from outside `src/`.

`install` replaces each target function in every `lobsterlab` module
namespace that binds it (a `from`-import binds its own copy of the name),
inside module-level dispatch tables such as `cli.CONSTRUCTIONS`, and
`LabeledMatrix.__post_init__` on its class.  `uninstall` puts the originals
back.  Spans are kept in memory as
`[name, start_ns, end_ns, parent, op, excluded_ns, error, extra]`
and written out at the end of the run.

A hook that reads a counter off a call's result runs after the span ends;
its time is charged to no span, so counters do not inflate busy time.
busy = end - start - excluded; self = busy - busy of the direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

CALLS, BUSY, SELF = "calls", "busy_s", "self_s"
ALL = (CALLS, BUSY, SELF)
NO_SELF = (CALLS, BUSY)  # functions that call no other target: self == busy
TOP = (BUSY, SELF)  # entry points whose call count the workload fixes


def _search_hook(args, result):
    return (result.nodes, result.status) if hasattr(result, "nodes") else None


def _matrix_hook(args, result):
    grid = args[0].grid
    return len(grid) * len(args[0].col_slots), sum(map(sum, grid))


def _auto_hook(args, result):
    return getattr(result, "construction", None)


# (module, function, stats reported, hook)
TARGETS = [
    ("cli", "main", TOP, None),
    ("formats", "parse_edges", ALL, None),
    ("formats", "parse_labeling", NO_SELF, None),
    ("formats", "print_matrix", NO_SELF, None),
    ("formats", "print_labeling", NO_SELF, None),
    ("graphs", "build_graph", NO_SELF, None),
    ("graphs", "classify_tree", NO_SELF, None),
    ("lobsters", "lobster_decompose", ALL, None),
    ("canonical", "free_code", NO_SELF, None),
    ("labelings", "verify_beta", NO_SELF, None),
    ("labelings", "verify_alpha", ALL, None),
    ("matrices", "LabeledMatrix.__post_init__", NO_SELF, _matrix_hook),
    ("matrices", "canonical_adjacency", ALL, None),
    ("matrices", "canonical_biadjacency", ALL, None),
    ("matrices", "matrix_to_graph", ALL, None),
    ("matrices", "is_completely_graceful", NO_SELF, None),
    ("matrices", "is_graceful_grid", NO_SELF, None),
    ("constructions", "verify_certificate", ALL, None),
    ("constructions", "chain_km_matrix", ALL, None),
    ("constructions", "merge_chain_matrix", ALL, None),
    ("constructions", "double_matrix", ALL, None),
    ("constructions", "insert_pendant_row", ALL, None),
    ("constructions", "insert_pendant_column", ALL, None),
    ("constructions", "insert_pendant_pair", ALL, None),
    ("constructions", "double", TOP, None),
    ("constructions", "disjoint_union_alpha", TOP, None),
    ("constructions", "chain_join_km", TOP, None),
    ("constructions", "chain_join_mm", TOP, None),
    ("constructions", "chain_with_copies", TOP, None),
    ("constructions", "star_join", TOP, None),
    ("constructions", "attach_at_vertices", TOP, None),
    ("constructions", "merge_join_chain", TOP, None),
    ("lobster_labeling", "label_lobster_auto", TOP, _auto_hook),
    ("lobster_labeling", "classify_lobster", ALL, None),
    ("lobster_labeling", "label_caterpillar", ALL, None),
    ("lobster_labeling", "label_pairwise_balanced", ALL, None),
    ("lobster_labeling", "label_pairwise_linked", ALL, None),
    ("lobster_labeling", "label_pairwise_similar", ALL, None),
    ("search", "brute_force_graceful", NO_SELF, _search_hook),
    ("search", "brute_force_alpha", NO_SELF, _search_hook),
    ("search", "count_graceful_labelings", NO_SELF, None),
    ("search", "search_graceful_with_fixed", NO_SELF, _search_hook),
]

AUTO = "lobster_labeling.label_lobster_auto"
# the dispatcher's routes, by the span that runs each and the name it certifies under
ROUTES = {
    "lobster_labeling.label_caterpillar": "caterpillar-sweep",
    "lobster_labeling.label_pairwise_balanced": "pairwise-balanced",
    "lobster_labeling.label_pairwise_linked": "pairwise-linked",
    "lobster_labeling.label_pairwise_similar": "pairwise-similar",
    "search.brute_force_graceful": "search",
}
STATUS = {"found": "found", "exhausted-none": "exhausted", "budget-exceeded": "budget"}
SETUP_OP = -1

UNITS = {CALLS: "count", BUSY: "s", SELF: "s"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    names = [(f"{m}.{f}.{stat}", UNITS[stat]) for m, f, stats, _ in TARGETS for stat in stats]
    names += [("matrices.cells", "count"), ("matrices.ones", "count"),
              ("matrices.fill_ratio", "ratio")]
    for route in ROUTES.values():
        names += [(f"route.{route}.attempts", "count"), (f"route.{route}.wins", "count")]
    names += [("lobster_labeling.failed_route_s", "s"), ("search.nodes", "count"),
              ("search.nodes_per_s", "1/s")]
    names += [(f"search.status.{s}", "count") for s in STATUS.values()]
    names += [("setup.canonical.free_code.calls", "count"),
              ("setup.canonical.free_code.busy_s", "s"),
              ("trace.op_p50_ms", "ms"), ("trace.overhead_ms", "ms")]
    return names


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None  # None: calls pass straight through
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [idx, 0, 0, stack[-1] if stack else -1, self.op, 0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter_ns()
                stack.pop()
                span[6] = type(exc).__name__
                raise
            span[2] = perf_counter_ns()
            stack.pop()
            if hook is not None:
                start = perf_counter_ns()
                span[7] = hook(args, result)
                spent = perf_counter_ns() - start
                for open_span in stack:
                    spans[open_span][5] += spent
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the names of targets this version lacks."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "lobsterlab" or name.startswith("lobsterlab."))]
        missing = []
        for module, func, _, hook in TARGETS:
            name = f"{module}.{func}"
            owner = sys.modules.get(f"lobsterlab.{module}")
            if "." in func:
                cls_name, attr = func.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(attr)
                if original is None:
                    missing.append(name)
                    continue
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, hook))
                continue
            original = getattr(owner, func, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, entry in list(value.items()):
                            if isinstance(entry, tuple) and any(x is original for x in entry):
                                self._patches.append((value, k, entry))
                                value[k] = tuple(wrapper if x is original else x for x in entry)
        return missing

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, excluded, error, _ in self.spans:
                fh.write(json.dumps([self.names[name], start, end, parent, op, excluded, error]))
                fh.write("\n")

    # -- aggregation ---------------------------------------------------------------

    def busy_and_self(self) -> tuple[list[int], list[int]]:
        busy = [end - start - excl for _, start, end, _, _, excl, _, _ in self.spans]
        self_ns = list(busy)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                self_ns[span[3]] -= busy[i]
        return busy, self_ns

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the two trace.* ones, which need op times."""
        busy, self_ns = self.busy_and_self()
        out: dict[str, float] = {}
        for module, func, stats, _ in TARGETS:
            for stat in stats:
                out[f"{module}.{func}.{stat}"] = 0
        counts = {"cells": 0, "ones": 0, "nodes": 0, "node_ns": 0, "failed_ns": 0,
                  "setup_calls": 0, "setup_ns": 0}
        routes = {f"route.{r}.{k}": 0 for r in ROUTES.values() for k in ("attempts", "wins")}
        status = {f"search.status.{s}": 0 for s in STATUS.values()}
        for i, (idx, _, _, parent, op, _, error, extra) in enumerate(self.spans):
            name = self.names[idx]
            if op == SETUP_OP:
                if name == "canonical.free_code":
                    counts["setup_calls"] += 1
                    counts["setup_ns"] += busy[i]
                continue
            for stat, value in ((CALLS, 1), (BUSY, busy[i] / 1e9), (SELF, self_ns[i] / 1e9)):
                key = f"{name}.{stat}"
                if key in out:
                    out[key] += value
            if name == "matrices.LabeledMatrix.__post_init__" and extra:
                counts["cells"] += extra[0]
                counts["ones"] += extra[1]
            elif name == AUTO and extra:
                key = f"route.{extra}.wins"
                routes[key] = routes.get(key, 0) + 1
            if name in ROUTES and parent >= 0 and self.names[self.spans[parent][0]] == AUTO:
                routes[f"route.{ROUTES[name]}.attempts"] += 1
                if error == "ConstructionError":
                    counts["failed_ns"] += busy[i]
            if isinstance(extra, tuple) and name.startswith("search."):
                counts["nodes"] += extra[0]
                counts["node_ns"] += busy[i]
                key = f"search.status.{STATUS.get(extra[1], extra[1])}"
                status[key] = status.get(key, 0) + 1
        out["matrices.cells"] = counts["cells"]
        out["matrices.ones"] = counts["ones"]
        out["matrices.fill_ratio"] = counts["ones"] / counts["cells"] if counts["cells"] else 0
        out.update(routes)
        out["lobster_labeling.failed_route_s"] = counts["failed_ns"] / 1e9
        out["search.nodes"] = counts["nodes"]
        out["search.nodes_per_s"] = (counts["nodes"] / (counts["node_ns"] / 1e9)
                                     if counts["node_ns"] else 0)
        out.update(status)
        out["setup.canonical.free_code.calls"] = counts["setup_calls"]
        out["setup.canonical.free_code.busy_s"] = counts["setup_ns"] / 1e9
        return out
