from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, fixture_text
import lobsterlab
from lobsterlab import formats
from lobsterlab.cli import main
from lobsterlab.errors import FormatError
from lobsterlab.graphs import build_graph
from lobsterlab.labelings import alpha_labeling, beta_labeling
from lobsterlab.search import (
    SearchBudget,
    brute_force_alpha,
    brute_force_graceful,
    enumerate_trees,
)


class TestEdgeCodec:
    def test_round_trip_fixture(self):
        text = fixture_text("tree9.edges")
        assert formats.print_edges(formats.parse_edges(text)) == text

    def test_comments_ignored(self):
        g = formats.parse_edges("# a comment\n2 1\n0 1\n")
        assert g.num_edges == 1

    def test_bad_counts_rejected(self):
        with pytest.raises(FormatError):
            formats.parse_edges("2 2\n0 1\n")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.randoms())
    def test_round_trip_random_trees(self, n, rnd):
        trees = list(enumerate_trees(n))
        t = trees[rnd.randrange(len(trees))]
        assert formats.parse_edges(formats.print_edges(t)) == t


class TestLabelingCodec:
    def test_round_trip_beta(self):
        text = fixture_text("tree9.labels")
        assert formats.print_labeling(formats.parse_labeling(text)) == text

    def test_round_trip_alpha(self):
        f = alpha_labeling({0: 0, 1: 2, 2: 1}, critical=1)
        text = formats.print_labeling(f)
        assert "critical 1" in text
        assert formats.parse_labeling(text) == f

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(FormatError):
            formats.parse_labeling("kind beta\n0 0\n0 1\n")

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 500), st.integers(0, 1000), max_size=40),
        st.none() | st.integers(0, 1000),
    )
    def test_round_trip_random(self, assignment, critical):
        if critical is None:
            f = beta_labeling(assignment)
        else:
            f = alpha_labeling(assignment, critical)
        assert formats.parse_labeling(formats.print_labeling(f)) == f


class TestMatrixCodec:
    def test_round_trip_fixtures(self):
        for name in (
            "tree9_adjacency.txt",
            "tree9_double.txt",
            "lobster28_biadj.txt",
            "lobster26_biadj.txt",
            "lobster26_shifted.txt",
        ):
            text = fixture_text(name)
            assert formats.print_matrix(formats.parse_matrix(text)) == text

    def test_bad_grid_line_rejected(self):
        with pytest.raises(FormatError):
            formats.parse_matrix("biadjacency 1 1 0\n0\n1\n2\n")


CELL = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))


class TestMovesCodec:
    def test_round_trip(self):
        text = fixture_text("lobster26.moves")
        assert formats.print_moves(formats.parse_moves(text)) == text

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(CELL, CELL)))
    def test_round_trip_random(self, moves):
        assert formats.parse_moves(formats.print_moves(moves)) == moves


class TestDotExport:
    def test_k2_labeled(self):
        g = build_graph(2, [(0, 1)])
        f = beta_labeling({0: 0, 1: 1})
        dot = formats.export_dot(g, f)
        assert 'v0 [label="0"]' in dot and 'v1 [label="1"]' in dot
        assert 'v0 -- v1 [label="1"]' in dot

    def test_unlabeled(self):
        g = build_graph(2, [(0, 1)])
        dot = formats.export_dot(g)
        assert "label" not in dot

    def test_stable_across_runs(self, lobster28_matrix):
        from lobsterlab.matrices import matrix_to_graph

        g, f = matrix_to_graph(lobster28_matrix)
        assert formats.export_dot(g, f) == formats.export_dot(g, f)


@pytest.fixture()
def workdir(tmp_path):
    for name in (
        "tree9.edges",
        "tree9.labels",
        "lobster26_biadj.txt",
        "lobster26.moves",
    ):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    return tmp_path


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_verify_ok(self, workdir, capsys):
        code = self.run("verify", str(workdir / "tree9.edges"), str(workdir / "tree9.labels"))
        assert code == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_verify_tampered(self, workdir, capsys):
        bad = workdir / "bad.labels"
        text = (workdir / "tree9.labels").read_text()
        bad.write_text(text.replace("1 1", "1 2").replace("2 2", "2 1"))
        code = self.run("verify", str(workdir / "tree9.edges"), str(bad))
        assert code == 1
        assert "duplicate-edge-label" in capsys.readouterr().out

    def test_verify_missing_file(self, workdir, capsys):
        code = self.run("verify", str(workdir / "nope.edges"), str(workdir / "tree9.labels"))
        assert code == 2

    def test_matrix_byte_exact(self, workdir, capsys):
        code = self.run("matrix", str(workdir / "tree9.edges"), str(workdir / "tree9.labels"))
        assert code == 0
        assert capsys.readouterr().out == fixture_text("tree9_adjacency.txt")

    def test_matrix_biadjacency_requires_alpha(self, workdir, capsys):
        # the identity labeling of the fixture tree is graceful but the
        # tree is not alpha-straddled by any value... it actually is; use a
        # beta-but-not-alpha labeling instead
        bad = workdir / "beta_only.labels"
        bad.write_text("kind beta\n0 0\n1 2\n2 4\n3 3\n4 1\n")
        graph = workdir / "p5.edges"
        graph.write_text("5 4\n0 1\n0 2\n1 3\n2 4\n")
        code = self.run("matrix", str(graph), str(bad), "--biadjacency")
        assert code == 3

    def test_shift_reproduces_fixture(self, workdir, capsys):
        code = self.run(
            "shift", str(workdir / "lobster26_biadj.txt"), str(workdir / "lobster26.moves")
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(fixture_text("lobster26_shifted.txt"))
        assert "class: lobster; flags: none" in out

    def test_shift_empty_moves_echoes(self, workdir, capsys):
        moves = workdir / "none.moves"
        moves.write_text("")
        code = self.run("shift", str(workdir / "lobster26_biadj.txt"), str(moves))
        assert code == 0
        assert capsys.readouterr().out.startswith(fixture_text("lobster26_biadj.txt"))

    @pytest.mark.parametrize("which", ["R", "T", "RT"])
    def test_shift_reads_every_orientation(self, tmp_path, capsys, which):
        inputs = FIXTURES / "golden" / "inputs"
        moves = tmp_path / "none.moves"
        moves.write_text("")
        class_lines = []
        for extra in ([], ["--transform", which]):
            argv = ["matrix", str(inputs / "cat6.edges"), str(inputs / "cat6.alpha")]
            assert main(argv + ["--biadjacency", *extra]) == 0
            matrix = tmp_path / "matrix.txt"
            matrix.write_text(capsys.readouterr().out)
            assert main(["shift", str(matrix), str(moves)]) == 0
            class_lines.append(capsys.readouterr().out.splitlines()[-1])
        assert class_lines[0].startswith("class: caterpillar")
        assert class_lines[1] == class_lines[0]

    def test_shift_colliding_move(self, workdir, capsys):
        moves = workdir / "bad.moves"
        moves.write_text("1 21 -> 1 17\n")
        code = self.run("shift", str(workdir / "lobster26_biadj.txt"), str(moves))
        assert code == 1

    def test_search_found(self, workdir, capsys):
        code = self.run("search", str(workdir / "tree9.edges"))
        assert code == 0
        assert capsys.readouterr().out.startswith("found")

    def test_search_exhausted_on_odd_cycle(self, tmp_path, capsys):
        c5 = tmp_path / "c5.edges"
        c5.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code = self.run("search", str(c5))
        assert code == 1
        assert capsys.readouterr().out.strip() == "exhausted-none"

    def test_search_count(self, tmp_path, capsys):
        p3 = tmp_path / "p3.edges"
        p3.write_text("3 2\n0 1\n1 2\n")
        code = self.run("search", str(p3), "--count")
        assert code == 0
        assert capsys.readouterr().out.strip() == "count 4"

    def test_search_count_budget_exceeded(self, tmp_path, capsys):
        p3 = tmp_path / "p3.edges"
        p3.write_text("3 2\n0 1\n1 2\n")
        code = self.run("search", str(p3), "--count", "--budget-nodes", "2")
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fail search budget exceeded\n"

    @pytest.mark.parametrize("alpha", [False, True])
    @pytest.mark.parametrize("graph, budget", [
        ("tree9.edges", []),
        ("tree9.edges", ["--budget-nodes", "5"]),
        ("c5.edges", []),
    ])
    def test_search_json_reports_nodes(self, workdir, capsys, graph, budget, alpha):
        (workdir / "c5.edges").write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        path = str(workdir / graph)
        flags = ["--alpha"] if alpha else []
        self.run("--format", "json", "search", path, *flags, *budget)
        payload = json.loads(capsys.readouterr().out)
        g = formats.parse_edges((workdir / graph).read_text())
        search = brute_force_alpha if alpha else brute_force_graceful
        res = search(g, SearchBudget(max_nodes=int(budget[1])) if budget else None)
        assert (payload["status"], payload["nodes"]) == (res.status, res.nodes)

    def test_classify_text(self, workdir, capsys):
        code = self.run("classify", str(workdir / "tree9.edges"))
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "class caterpillar"

    def test_classify_json(self, workdir, capsys):
        code = self.run("--format", "json", "classify", str(workdir / "tree9.edges"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "caterpillar"

    def test_label_writes_certificate(self, workdir, capsys, tmp_path):
        out = tmp_path / "cert"
        code = self.run("label", str(workdir / "tree9.edges"), "--out", str(out))
        assert code == 0
        assert (out / "graph.edges").exists()
        assert (out / "labeling.txt").exists()
        assert (out / "matrix.txt").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["construction"] == "caterpillar-sweep"
        # certificate files re-verify through the CLI
        code = self.run(
            "verify", str(out / "graph.edges"), str(out / "labeling.txt"), "--alpha"
        )
        assert code == 0

    def test_construct_double(self, workdir, capsys, tmp_path):
        out = tmp_path / "cert"
        code = self.run(
            "construct",
            "double",
            "--inputs",
            f"{workdir / 'tree9.edges'}:{workdir / 'tree9.labels'}",
            "--at",
            "8",
            "--out",
            str(out),
        )
        assert code == 0
        assert (out / "matrix.txt").read_text() == fixture_text("tree9_double.txt")

    def test_construct_unknown(self, workdir, capsys):
        code = self.run("construct", "nonsense", "--inputs", "a:b")
        assert code == 2

    def test_export_dot(self, workdir, capsys):
        code = self.run("export-dot", str(workdir / "tree9.edges"), str(workdir / "tree9.labels"))
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("graph G {") and out.endswith("}\n")

    def test_outputs_stable(self, workdir, capsys):
        self.run("classify", str(workdir / "tree9.edges"))
        first = capsys.readouterr().out
        self.run("classify", str(workdir / "tree9.edges"))
        assert capsys.readouterr().out == first


def _run_and_report(argv: list[str], out: Path, fresh: bool, capsys) -> tuple:
    """Exit code, stdout and whether out was written, of one CLI run: in a
    fresh interpreter, or by main in this process."""
    shutil.rmtree(out, ignore_errors=True)
    if fresh:
        env = {**os.environ, "PYTHONPATH": str(Path(lobsterlab.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "lobsterlab.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        code, stdout = done.returncode, done.stdout
    else:
        code, stdout = main(argv), capsys.readouterr().out
    return code, stdout, out.exists()


def test_main_calls_in_one_process_match_fresh_runs(workdir, capsys):
    """main reuses one parser; no option of an earlier call leaks into a later one."""
    edges = str(workdir / "tree9.edges")
    out = workdir / "cert"
    for argv in (
        ["--format", "json", "classify", edges],
        ["classify", edges],
        ["label", edges, "--out", str(out)],
        ["label", edges],
    ):
        fresh = _run_and_report(argv, out, True, capsys)
        assert _run_and_report(argv, out, False, capsys) == fresh, argv


@pytest.mark.parametrize("strategy", ["auto", "balanced", "linked", "similar", "search"])
@pytest.mark.parametrize(
    "edges", ["4 4\n0 1\n1 2\n2 3\n3 0\n", "3 1\n0 1\n"], ids=["C4", "forest"]
)
def test_label_refuses_a_non_tree(tmp_path, capsys, strategy, edges):
    path = tmp_path / "g.edges"
    path.write_text(edges)
    assert main(["label", str(path), "--strategy", strategy]) == 1
    assert capsys.readouterr().out == "error input is not a tree\n"


class TestCliBoundary:
    """Bad budgets and malformed files exit 2 (or 3) with one line, no traceback."""

    @pytest.mark.parametrize(
        "env, options",
        [
            ("abc", []),
            ("0", []),
            (None, ["--budget-secs", "0"]),
            (None, ["--budget-secs", "-1.5"]),
            (None, ["--budget-secs", "nan"]),
            (None, ["--budget-nodes", "0"]),
            (None, ["--budget-nodes", "-3"]),
            (None, ["--budget-vertices", "0"]),
            (None, ["--budget-vertices", "-1"]),
        ],
    )
    def test_bad_budget_exits_2(self, workdir, capsys, monkeypatch, env, options):
        if env is None:
            monkeypatch.delenv("GRACEFUL_BUDGET_SECS", raising=False)
        else:
            monkeypatch.setenv("GRACEFUL_BUDGET_SECS", env)
        code = main(["label", str(workdir / "tree9.edges"), *options])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "budget" in captured.err.lower()

    def test_vertex_budget_above_the_ceiling_exits_2(self, tmp_path, capsys):
        # the kernel recurses once per vertex: a 1000-vertex search would
        # overflow Python's stack, so the budget refuses it up front
        path = tmp_path / "p1000.edges"
        path.write_text("1000 999\n" + "".join(f"{i} {i + 1}\n" for i in range(999)))
        code = main(["search", str(path), "--alpha", "--budget-vertices", "2000",
                     "--budget-nodes", "100000"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: --budget-vertices must be at most 500, got 2000\n"

    def test_wide_balanced_lobster_is_labeled(self, tmp_path, capsys):
        # two spinal vertices with 8 191 one-leaf branches each: 1 180 tie
        # cycles in the balanced slot solver, above the recursion limit
        edges = [(0, 1)]
        for spinal in (0, 1):
            for _ in range(8191):
                center = len(edges) + 1
                edges += [(spinal, center), (center, center + 1)]
        path = tmp_path / "wide.edges"
        path.write_text(f"{len(edges) + 1} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges))
        assert len(edges) + 1 == 32766
        assert main(["label", str(path)]) == 0
        assert capsys.readouterr().out == "labeled via pairwise-balanced (complete-alpha)\n"

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["label", "construct"])
    def test_out_that_cannot_be_a_directory_exits_2(self, workdir, capsys, command, under):
        blocker = workdir / "taken"
        blocker.write_text("")
        out = blocker / "cert" if under else blocker
        edges, labels = workdir / "tree9.edges", workdir / "tree9.labels"
        argv = ["label", str(edges)] if command == "label" else [
            "construct", "double", "--inputs", f"{edges}:{labels}", "--at", "8"
        ]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: cannot write {out}:")
        assert len(captured.err.splitlines()) == 1
        assert blocker.read_text() == ""

    def test_explicit_budget_secs_overrides_env(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("GRACEFUL_BUDGET_SECS", "abc")
        assert main(["search", str(workdir / "tree9.edges"), "--budget-secs", "5"]) == 0

    @pytest.mark.parametrize(
        "header",
        ["adjacency x 3", "biadjacency 2 2 k", "biadjacency 2 2", "adjacency 2"],
    )
    def test_shift_bad_matrix_header(self, workdir, capsys, header):
        matrix = workdir / "bad.txt"
        matrix.write_text(f"{header}\n0 1\n0 1\n01\n10\n")
        code = main(["shift", str(matrix), str(workdir / "lobster26.moves")])
        assert code == 2
        assert capsys.readouterr().err.startswith("parse error: bad matrix header")

    def test_shift_non_integer_labels(self, workdir, capsys):
        matrix = workdir / "bad.txt"
        matrix.write_text("adjacency 2 2\n0 a\n0 1\n01\n10\n")
        assert main(["shift", str(matrix), str(workdir / "lobster26.moves")]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("shift", "adjacency 2 2\n0 1\n0 1\n11\n10\n", "principal diagonal"),
            ("shift", "adjacency 2 2\n0 1\n0 1\n01\n00\n", "not symmetric"),
            ("search", "2 1\n0 5\n", "endpoint out of range"),
            ("search", "2 1\n1 1\n", "self-loop"),
            ("search", "3 2\n0 1\n1 0\n", "duplicate edge"),
        ],
    )
    def test_invalid_structure_is_a_parse_error(
        self, workdir, capsys, command, text, message
    ):
        path = workdir / "bad.txt"
        path.write_text(text)
        extra = [str(workdir / "lobster26.moves")] if command == "shift" else []
        assert main([command, str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error:")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_beta_labeling_with_critical_line(self, workdir, capsys):
        labels = workdir / "bad.labels"
        labels.write_text("kind beta\ncritical 1\n0 0\n1 1\n")
        graph = workdir / "k2.edges"
        graph.write_text("2 1\n0 1\n")
        with pytest.raises(FormatError):
            formats.parse_labeling(labels.read_text())
        assert main(["verify", str(graph), str(labels)]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    def test_export_dot_partial_labeling(self, workdir, capsys):
        partial = workdir / "partial.labels"
        partial.write_text("kind beta\n0 0\n1 1\n")
        code = main(["export-dot", str(workdir / "tree9.edges"), str(partial)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fail unlabeled-vertex")


# -- mutated input files ----------------------------------------------------------

SMALL_BUDGET = ["--budget-nodes", "2000", "--budget-vertices", "10", "--budget-secs", "10"]
SUBCOMMANDS = {
    "verify": ["verify", "tree9.edges", "tree9.labels"],
    "classify": ["classify", "tree9.edges", *SMALL_BUDGET],
    "label": ["label", "tree9.edges", *SMALL_BUDGET],
    "matrix": ["matrix", "tree9.edges", "tree9.labels"],
    "shift": ["shift", "lobster26_biadj.txt", "lobster26.moves", *SMALL_BUDGET],
    "search": ["search", "tree9.edges", *SMALL_BUDGET],
    "export-dot": ["export-dot", "tree9.edges", "tree9.labels"],
}
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace", "dup-line", "drop-line"]),
        st.integers(0, 10**6),
        st.sampled_from("0123456789 -#>\nakx"),
    ),
    min_size=1,
    max_size=4,
)


def mutate(text: str, mutations) -> str:
    """Apply character and line edits at positions taken modulo the text size."""
    for op, at, ch in mutations:
        if op in ("dup-line", "drop-line"):
            lines = text.splitlines(keepends=True)
            if lines:
                j = at % len(lines)
                lines[j : j + 1] = [lines[j]] * (2 if op == "dup-line" else 0)
                text = "".join(lines)
            continue
        i = at % (len(text) + 1)
        rest = text[i:] if op == "insert" else text[i + 1 :]
        text = text[:i] + ("" if op == "delete" else ch) + rest
    return text


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_fixture_never_escapes_main(command, data):
    """Every subcommand answers a mutated input file with an exit code 0-3,
    and a parse or usage error (exit 2) with one line on stderr only."""
    argv = SUBCOMMANDS[command]
    name = data.draw(st.sampled_from([a for a in argv if (FIXTURES / a).is_file()]))
    text = mutate(fixture_text(name), data.draw(MUTATIONS))
    with tempfile.TemporaryDirectory() as tmp:
        for a in argv:
            if (FIXTURES / a).is_file():
                Path(tmp, a).write_text(text if a == name else fixture_text(a))
        paths = [str(Path(tmp, a)) if (FIXTURES / a).is_file() else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(paths)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
