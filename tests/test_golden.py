"""Byte-exact certificates written by `label --out` and `construct --out`.

Each case runs the CLI on inputs under fixtures/golden/inputs and compares
the four certificate files with the copies recorded under
fixtures/golden/<case>/.  To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from lobsterlab.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
INPUTS = GOLDEN / "inputs"
FILES = ("graph.edges", "labeling.txt", "matrix.txt", "meta.json")


def _part(name: str, kind: str) -> str:
    return f"{INPUTS / name}.edges:{INPUTS / name}.{kind}"


def _label(graph: str, strategy: str) -> list[str]:
    return ["label", str(INPUTS / graph), "--strategy", strategy]


def _construct(proposition: str, parts: list[str], kind: str, *extra: str) -> list[str]:
    inputs = [_part(name, kind) for name in parts]
    return ["construct", proposition, "--inputs", *inputs, *extra]


CASES = {
    "label-caterpillar-sweep": _label("tree9.edges", "auto"),
    "label-pairwise-balanced": _label("balanced.edges", "balanced"),
    "label-pairwise-linked": _label("linked.edges", "linked"),
    "label-pairwise-similar-even": _label("similar-even.edges", "similar"),
    "label-pairwise-similar-odd": _label("similar-odd.edges", "similar"),
    "label-search": _label("search.edges", "search"),
    "label-auto-search": _label("search.edges", "auto"),
    "construct-double": _construct("double", ["tree9"], "beta", "--at", "3"),
    "construct-disjoint-union": _construct("disjoint-union", ["p4", "star3"], "alpha"),
    "construct-chain-km": _construct("chain-km", ["p4", "star3", "cat6"], "alpha"),
    "construct-chain-mm": _construct("chain-mm", ["p4", "star3", "cat6"], "alpha"),
    "construct-copy-chain": _construct("copy-chain", ["p4", "star3", "cat6"], "beta"),
    "construct-star-join": _construct("star-join", ["p4", "star3", "p4"], "beta"),
    "construct-attach": _construct("attach", ["k2", "p4", "p4"], "beta"),
    "construct-merge-chain": _construct("merge-chain", ["p4", "star3", "cat6"], "beta"),
}


def _run(argv: list[str], out: Path) -> int:
    return main(argv + ["--out", str(out)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificate_files_match_recording(case, tmp_path, capsys):
    assert _run(CASES[case], tmp_path) == 0
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


def _record() -> None:
    for case, argv in CASES.items():
        if _run(argv, GOLDEN / case) != 0:
            raise SystemExit(f"{case}: the CLI did not succeed")


if __name__ == "__main__":
    sys.exit(_record())
