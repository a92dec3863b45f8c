"""Command-line interface.

Exit codes: 0 success, 1 negative answer (verification failed, nothing
found, not coverable), 2 usage or parse error (including a search budget
that is not a positive number, from the --budget-* options or
GRACEFUL_BUDGET_SECS, or a --budget-vertices above the search's ceiling
of 500), 3 verification-level failure of an input that was expected to
verify (or an exhausted search budget).
Output is stable across runs; --format json switches the machine-readable
subcommands to JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import FormatError, GraphStructureError, LobsterLabError
from . import formats
from .graphs import DEEPER, classify_tree
from .labelings import verify_alpha, verify_beta
from .lobsters import lobster_decompose
from .lobster_labeling import (
    ROUTES,
    CoverageReport,
    LobsterClassification,
    classify_lobster,
    label_by_search,
    label_lobster_auto,
)
from .matrices import canonical_adjacency, canonical_biadjacency, matrix_to_graph, shift_ones, transform
from .search import (
    EXHAUSTED,
    FOUND,
    VERTEX_CEILING,
    SearchBudget,
    SearchResult,
    brute_force_alpha,
    brute_force_graceful,
    count_graceful_labelings,
)
from .constructions import (
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

OK, NEGATIVE, USAGE, VERIFICATION = 0, 1, 2, 3

CONSTRUCTIONS = {
    "double": (double, 1, 1),
    "disjoint-union": (disjoint_union_alpha, 1, None),
    "chain-km": (chain_join_km, 1, None),
    "chain-mm": (chain_join_mm, 1, None),
    "copy-chain": (chain_with_copies, 2, None),
    "star-join": (star_join, 1, None),
    "attach": (attach_at_vertices, 2, None),
    "merge-chain": (merge_join_chain, 2, None),
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _budget_from(args: argparse.Namespace) -> SearchBudget:
    """The search budget of a subcommand's --budget-* options.

    Seconds default to GRACEFUL_BUDGET_SECS, else SearchBudget's time
    limit; nodes and vertices to SearchBudget's.  Every value must be a
    positive number, and vertices at most VERTEX_CEILING.
    """
    default = SearchBudget()
    secs, secs_name = args.budget_secs, "--budget-secs"
    if secs is None:
        secs_name = "GRACEFUL_BUDGET_SECS"
        env = os.environ.get(secs_name, str(default.time_limit))
        try:
            secs = float(env)
        except ValueError:
            raise FormatError(f"GRACEFUL_BUDGET_SECS is not a number: {env!r}") from None
    nodes = default.max_nodes if args.budget_nodes is None else args.budget_nodes
    vertices = default.max_vertices if args.budget_vertices is None else args.budget_vertices
    for name, value in (
        (secs_name, secs),
        ("--budget-nodes", nodes),
        ("--budget-vertices", vertices),
    ):
        if not value > 0:
            raise FormatError(f"{name} must be positive, got {value}")
    if vertices > VERTEX_CEILING:
        raise FormatError(f"--budget-vertices must be at most {VERTEX_CEILING}, got {vertices}")
    return SearchBudget(max_vertices=vertices, max_nodes=nodes, time_limit=secs)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_verify(args) -> int:
    g = formats.parse_edges(_read(args.graph))
    f = formats.parse_labeling(_read(args.labeling))
    verdict = verify_alpha(g, f) if args.alpha else verify_beta(g, f)
    payload = {"ok": verdict.ok, "reason": verdict.reason}
    if verdict.ok and args.alpha:
        payload["critical"] = verdict.critical
        _emit(args, payload, f"ok critical {verdict.critical}")
    elif verdict.ok:
        _emit(args, payload, "ok")
    else:
        _emit(args, payload, f"fail {verdict.reason}")
    return OK if verdict.ok else NEGATIVE


def _lobster_flags(cls: LobsterClassification) -> dict[str, bool]:
    """The five class flags, by their output names, in output order."""
    return {
        "pairwise-isomorphic": cls.pairwise_isomorphic,
        "pairwise-similar": cls.pairwise_similar,
        "pairwise-linked": cls.pairwise_linked,
        "pairwise-balanced": cls.pairwise_balanced,
        "pairwise-trivially-balanced": cls.pairwise_trivially_balanced,
    }


def _tree_class(g, budget: SearchBudget) -> tuple[str | None, LobsterClassification | None]:
    """g's tree class (None for a non-tree) and, up to lobsters, its flags."""
    try:
        kind = classify_tree(g)
    except GraphStructureError:
        return None, None
    if kind == DEEPER:
        return kind, None
    return kind, classify_lobster(lobster_decompose(g), budget)


def cmd_classify(args) -> int:
    g = formats.parse_edges(_read(args.graph))
    kind, cls = _tree_class(g, args.budget)
    if kind is None:
        _emit(args, {"class": "not-a-tree"}, "not-a-tree")
        return NEGATIVE
    payload: dict = {"class": kind}
    lines = [f"class {kind}"]
    if cls is not None:
        flags = _lobster_flags(cls)
        payload["flags"] = flags
        payload["spinal-parity"] = list(cls.spinal_parity)
        for name, value in flags.items():
            lines.append(f"{name} {'yes' if value else 'no'}")
        lines.append("spinal-parity " + " ".join(cls.spinal_parity))
    _emit(args, payload, "\n".join(lines))
    return OK


def _write_certificate(cert: Certificate, out_dir: str) -> None:
    """Write the certificate files into out_dir; a path that cannot be a
    directory (an existing file, or a path under one) is a usage error."""
    out = Path(out_dir)
    meta = {
        "construction": cert.construction,
        "claim": cert.claim,
        "critical": cert.critical,
        "details": {k: str(v) for k, v in cert.details.items()},
        "vertex_maps": [
            {str(k): v for k, v in vmap.items()} for vmap in cert.vertex_maps
        ],
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "graph.edges").write_text(formats.print_edges(cert.result_graph))
        (out / "labeling.txt").write_text(formats.print_labeling(cert.result_labeling))
        (out / "matrix.txt").write_text(formats.print_matrix(cert.result_matrix))
        (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise FormatError(f"cannot write {out_dir}: {exc}") from exc


def cmd_label(args) -> int:
    g = formats.parse_edges(_read(args.graph))
    budget = args.budget
    strategy = args.strategy
    try:
        if strategy == "auto":
            result = label_lobster_auto(g, budget)
        elif strategy == "search":
            result = label_by_search(g, budget)
            if isinstance(result, SearchResult):
                _emit(args, {"status": result.status}, result.status)
                return NEGATIVE if result.status == EXHAUSTED else VERIFICATION
        else:
            _, route = ROUTES[strategy]
            result = route(g, budget)
    except LobsterLabError as exc:
        _emit(args, {"error": str(exc)}, f"error {exc}")
        return NEGATIVE
    if isinstance(result, CoverageReport):
        lines = ["not-covered"] + [f"{name}: {why}" for name, why in result.reasons]
        _emit(
            args,
            {"covered": False, "reasons": dict(result.reasons)},
            "\n".join(lines),
        )
        return NEGATIVE
    if args.out:
        _write_certificate(result, args.out)
    _emit(
        args,
        {"covered": True, "construction": result.construction, "claim": result.claim},
        f"labeled via {result.construction} ({result.claim})",
    )
    return OK


def _parse_part(token: str):
    if ":" not in token:
        raise FormatError(f"part {token!r} must be graph.edges:labeling.txt")
    graph_path, labeling_path = token.split(":", 1)
    return (
        formats.parse_edges(_read(graph_path)),
        formats.parse_labeling(_read(labeling_path)),
    )


def cmd_construct(args) -> int:
    if args.proposition not in CONSTRUCTIONS:
        print(f"unknown construction {args.proposition!r}", file=sys.stderr)
        return USAGE
    op, min_parts, max_parts = CONSTRUCTIONS[args.proposition]
    parts = [_parse_part(tok) for tok in args.inputs]
    if len(parts) < min_parts or (max_parts is not None and len(parts) > max_parts):
        print("wrong number of inputs", file=sys.stderr)
        return USAGE
    if args.proposition == "double":
        if args.at is None:
            print("double needs --at", file=sys.stderr)
            return USAGE
        cert = op(parts[0], args.at)
    elif args.proposition == "chain-mm":
        cert = op(parts, args.mode or "alternating")
    elif args.proposition == "attach":
        cert = op(parts[0], parts[1:], relaxed=args.relaxed)
    else:
        cert = op(parts)
    if args.out:
        _write_certificate(cert, args.out)
    _emit(
        args,
        {"construction": cert.construction, "claim": cert.claim, "critical": cert.critical},
        f"built {cert.construction} ({cert.claim})",
    )
    return OK


def cmd_matrix(args) -> int:
    g = formats.parse_edges(_read(args.graph))
    f = formats.parse_labeling(_read(args.labeling))
    if args.biadjacency:
        verdict = verify_alpha(g, f)
        if not verdict:
            print(f"fail {verdict.reason}", file=sys.stderr)
            return VERIFICATION
        matrix = canonical_biadjacency(g, f)
        if args.transform:
            matrix = transform(matrix, args.transform)
    else:
        verdict = verify_beta(g, f)
        if not verdict:
            print(f"fail {verdict.reason}", file=sys.stderr)
            return VERIFICATION
        if args.transform:
            print("transforms need --biadjacency", file=sys.stderr)
            return USAGE
        matrix = canonical_adjacency(g, f)
    sys.stdout.write(formats.print_matrix(matrix))
    return OK


def cmd_shift(args) -> int:
    matrix = formats.parse_matrix(_read(args.matrix))
    moves = formats.parse_moves(_read(args.moves))
    try:
        shifted = shift_ones(matrix, moves)
    except LobsterLabError as exc:
        print(f"fail {exc}", file=sys.stderr)
        return NEGATIVE
    sys.stdout.write(formats.print_matrix(shifted))
    kind, cls = _tree_class(matrix_to_graph(shifted)[0], args.budget)
    if kind is None:
        print("class: not-a-tree")
        return OK
    flags = [name for name, value in _lobster_flags(cls).items() if value] if cls else []
    print(f"class: {kind}; flags: {', '.join(flags) if flags else 'none'}")
    return OK


def cmd_search(args) -> int:
    g = formats.parse_edges(_read(args.graph))
    budget = args.budget
    if args.count:
        try:
            n = count_graceful_labelings(g, budget)
        except LobsterLabError as exc:
            print(f"fail {exc}", file=sys.stderr)
            return VERIFICATION
        _emit(args, {"count": n}, f"count {n}")
        return OK
    res = brute_force_alpha(g, budget) if args.alpha else brute_force_graceful(g, budget)
    payload = {"status": res.status, "nodes": res.nodes}
    if res.status == FOUND:
        payload["labeling"] = dict(res.labeling.items())
        text = "found\n" + formats.print_labeling(res.labeling).rstrip("\n")
        _emit(args, payload, text)
        return OK
    _emit(args, payload, res.status)
    return NEGATIVE if res.status == EXHAUSTED else VERIFICATION


def cmd_export_dot(args) -> int:
    g = formats.parse_edges(_read(args.graph))
    f = formats.parse_labeling(_read(args.labeling)) if args.labeling else None
    if f is not None:
        verdict = verify_beta(g, f)
        if not verdict:
            print(f"fail {verdict.reason}", file=sys.stderr)
            return VERIFICATION
    sys.stdout.write(formats.export_dot(g, f))
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; main reuses it."""
    parser = argparse.ArgumentParser(
        prog="lobsterlab",
        description="graceful and alpha labelings of trees and lobsters",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a labeling against a graph")
    p.add_argument("graph")
    p.add_argument("labeling")
    p.add_argument("--alpha", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="tree class and lobster flags")
    p.add_argument("graph")
    _add_budget_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("label", help="find a certified labeling of a lobster")
    p.add_argument("graph")
    p.add_argument(
        "--strategy",
        choices=["auto", *ROUTES, "search"],
        default="auto",
    )
    p.add_argument("--out")
    _add_budget_args(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("construct", help="compose labeled graphs")
    p.add_argument("proposition", help="|".join(sorted(CONSTRUCTIONS)))
    p.add_argument("--inputs", nargs="+", required=True, metavar="G.edges:F.labels")
    p.add_argument("--at", type=int, help="label joining the double")
    p.add_argument("--mode", choices=["alternating", "all_m"])
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("matrix", help="print the canonical matrix")
    p.add_argument("graph")
    p.add_argument("labeling")
    p.add_argument("--biadjacency", action="store_true")
    p.add_argument("--transform", choices=["R", "T", "RT"])
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("shift", help="move 1s between diagonals")
    p.add_argument("matrix")
    p.add_argument("moves")
    _add_budget_args(p)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("search", help="exhaustive labeling search")
    p.add_argument("graph")
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--count", action="store_true")
    _add_budget_args(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export-dot", help="DOT with label captions")
    p.add_argument("graph")
    p.add_argument("labeling", nargs="?")
    p.set_defaults(func=cmd_export_dot)

    return parser


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget-nodes", type=int, dest="budget_nodes")
    parser.add_argument("--budget-secs", type=float, dest="budget_secs")
    parser.add_argument("--budget-vertices", type=int, dest="budget_vertices")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "budget_nodes"):
            args.budget = _budget_from(args)
        return args.func(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE
    except LobsterLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
