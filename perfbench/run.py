"""lobsterlab benchmark: label, search and construct timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each operation is one in-process `lobsterlab.cli.main(argv)` call with
stdout captured, so a timing covers parse, dispatch, construction or
search, certification and output, as `lobsterlab label|search|construct`
does.  A single caller runs the operations in a closed loop; every output
is re-verified after its timing ends.

--trace 0 reports the end-to-end metrics of a timed phase that repeats
the workload's pass of operations until --seconds have elapsed, and runs
at least one whole pass.  --trace 1 runs one pass with spans around the
package's public functions and reports the per-layer metrics; the pass's
first quarter also runs untraced, for the tracing overhead.  Both print a
metric table and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--workload all` runs every workload, untraced and traced, each in its own
process.  `--write-reference` records the n <= 10 search answers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import checks  # noqa: E402  (sibling modules; run.py's directory is on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up runs 3 times before the timed phase and once more at each of 4-10
# moments spread over it, as many as fit in a fifth of the phase.  A shared
# machine's speed can swing by half between states that last seconds, and
# set-ups taken at one moment would measure that state rather than the code.
SETUP_REPEATS = 3
SETUPS_DURING_PHASE = (4, 10)
SETUP_SHARE = 0.2
WARMUP_OPS = 20
WARMUP_SECONDS = 1.0

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("covered_frac", "ratio"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == "lobsterlab" or k.startswith("lobsterlab.")}


def load_package():
    """Import lobsterlab afresh from this checkout's src/ (never an installed copy)."""
    for name in _package_modules():
        del sys.modules[name]
    lobsterlab = importlib.import_module("lobsterlab")
    cli = importlib.import_module("lobsterlab.cli")
    if Path(lobsterlab.__file__).resolve().parent != (SRC / "lobsterlab").resolve():
        raise RuntimeError(f"imported lobsterlab from {lobsterlab.__file__}, not {SRC}")
    return lobsterlab, cli


def set_up(name: str, seed: int, inputs: Path):
    """Import the package and write the workload's inputs; return (seconds, package, cli, pass)."""
    shutil.rmtree(inputs, ignore_errors=True)
    start = perf_counter()
    lobsterlab, cli = load_package()
    workload = workloads.build(name, seed, inputs, lobsterlab)
    return perf_counter() - start, lobsterlab, cli, workload


def set_up_batch(name: str, seed: int, inputs: Path, setups: list[float]):
    """Repeat the set-up, appending each time to setups; return the last package and pass."""
    for _ in range(SETUP_REPEATS):
        secs, lobsterlab, cli, workload = set_up(name, seed, inputs)
        setups.append(secs)
        gc.collect()  # drop the previous import before the next one
    return lobsterlab, cli, workload


def set_up_aside(name: str, seed: int, inputs: Path) -> float:
    """Time one more set-up, leaving the imported package that the ops use in place.

    The objects the run holds are frozen out of the collector meanwhile, so
    this set-up's garbage collections cost what they cost in a fresh process.
    """
    in_use = _package_modules()
    gc.collect()
    gc.freeze()
    try:
        return set_up(name, seed, inputs)[0]
    finally:
        gc.unfreeze()
        for key in _package_modules():
            del sys.modules[key]
        sys.modules.update(in_use)
        gc.collect()


def run_op(cli, op) -> tuple[int, int | None, str, Exception | None]:
    """One timed CLI call: (wall ns, exit code, stdout, escaped exception)."""
    if op.out:
        shutil.rmtree(op.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except Exception as raised:  # anything escaping cli.main is a failed op
        exc = raised
    return perf_counter_ns() - start, rc, out.getvalue(), exc


class Phase:
    """Outcomes of the operations of one measured phase.

    Coverage counts each operation of the pass once, so it does not depend
    on how far a timed phase got into its last pass.  A repeated operation
    must print what it printed the first time.
    """

    def __init__(self) -> None:
        self.walls_ns: list[int] = []
        self.first: dict[int, tuple[str, bool, bool]] = {}
        self.failures: list[str] = []

    def record(self, wall_ns: int, index: int, stdout: str, outcome) -> None:
        failure, covered, decided = outcome
        self.walls_ns.append(wall_ns)
        if index not in self.first:
            self.first[index] = (stdout, covered, decided)
        elif failure is None and stdout != self.first[index][0]:
            failure = f"op {index} printed other output than in its first pass"
        if failure is not None:
            self.failures.append(failure)

    @property
    def covered_frac(self) -> float:
        return sum(c for _, c, _ in self.first.values()) / len(self.first)

    @property
    def decided_frac(self) -> float:
        return sum(d for _, _, d in self.first.values()) / len(self.first)

    @property
    def attempted(self) -> int:
        return len(self.walls_ns)


def p90_with_support(times: list[float]) -> tuple[float | None, int]:
    """90th percentile, or None when fewer than 10 samples lie beyond it."""
    if len(times) < 2:
        return None, 0
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(t > p90 for t in times)
    return (p90 if beyond >= 10 else None), beyond


def run_ops(cli, ops, phase: Phase, check, seconds: float = float("inf")) -> None:
    start = perf_counter()
    for index, op in enumerate(ops):
        wall, rc, stdout, exc = run_op(cli, op)
        phase.record(wall, index, stdout, check(op, rc, stdout, exc))
        if perf_counter() - start >= seconds:
            break


def timed_phase(cli, ops, seconds: float, check, set_up_once, setup_s: float
                ) -> tuple[Phase, list[float]]:
    """Passes in a closed loop for `seconds`, at least one whole pass.

    At evenly spaced moments the loop pauses for one set-up, whose time
    the phase's clock leaves out.
    """
    phase = Phase()
    low, high = SETUPS_DURING_PHASE
    count = min(high, max(low, int(SETUP_SHARE * seconds / setup_s)))
    marks = [seconds * (k + 0.5) / count for k in range(count)]
    setups: list[float] = []
    start, paused = perf_counter(), 0.0
    i = 0
    while i < len(ops) or perf_counter() - start - paused < seconds:
        if marks and perf_counter() - start - paused >= marks[0]:
            marks.pop(0)
            pause = perf_counter()
            setups.append(set_up_once())
            paused += perf_counter() - pause
        op = ops[i % len(ops)]
        wall, rc, stdout, exc = run_op(cli, op)
        phase.record(wall, i % len(ops), stdout, check(op, rc, stdout, exc))
        i += 1
    setups += [set_up_once() for _ in marks]
    return phase, setups


def end_to_end(phase: Phase, setups: list[float]) -> tuple[dict, list[str]]:
    times = [w / 1e6 for w in phase.walls_ns]
    p90, beyond = p90_with_support(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(times),
        "op_p90_ms": p90,
        "ops_per_s": len(times) / (sum(phase.walls_ns) / 1e9),
        "covered_frac": phase.covered_frac,
        "decided_frac": phase.decided_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"op_p90_ms samples {len(times)}, beyond p90 {beyond}"
        + ("" if p90 is not None else " (fewer than 10: not reported)"),
        f"fail_frac {len(phase.failures) / phase.attempted:.6f} ratio",
        "setup_s runs " + " ".join(f"{s:.4f}" for s in setups),
    ]
    return {k: v for k, v in metrics.items() if v is not None}, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        setups: list[float] = []
        lobsterlab, cli, workload = set_up_batch(name, seed, inputs, setups)
        reference = workloads.load_reference()

        def check(op, rc, stdout, exc):
            return checks.check(op, rc, stdout, exc, lobsterlab, reference)

        ops = workload.ops
        run_ops(cli, ops[:WARMUP_OPS], Phase(), check, WARMUP_SECONDS)
        if not trace:
            phase, more = timed_phase(cli, ops, seconds, check,
                                      lambda: set_up_aside(name, seed, work / "aside"),
                                      statistics.median(setups))
            metrics, notes = end_to_end(phase, setups + more)
            units = dict(END_TO_END)
            failures = phase.failures
            attempted = phase.attempted
        else:
            metrics, notes, failures, attempted = traced_run(
                name, seed, cli, lobsterlab, ops, work, check)
            units = dict(tracing.per_layer_names())
        notes.append("inputs " + json.dumps(workload.properties, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "notes": notes,
        "failures": failures,
        "attempted": attempted,
    }


def traced_run(name, seed, cli, lobsterlab, ops, work, check):
    """One traced pass; the first quarter of its ops also runs untraced just before.

    Pairing each baseline call with its traced twin keeps drift in machine
    speed out of the overhead estimate.  With tracing off the wrappers only
    test one attribute and call through.
    """
    tracer = tracing.Tracer()
    missing = tracer.install()
    untraced, traced = Phase(), Phase()
    try:
        tracer.op = tracing.SETUP_OP
        workloads.build(name, seed, work / "traced-setup", lobsterlab)
        tracer.op = None
        for idx, op in enumerate(ops):
            if idx < max(1, len(ops) // 4):
                wall, rc, stdout, exc = run_op(cli, op)
                untraced.record(wall, idx, stdout, check(op, rc, stdout, exc))
            tracer.op = idx
            wall, rc, stdout, exc = run_op(cli, op)
            tracer.op = None
            traced.record(wall, idx, stdout, check(op, rc, stdout, exc))
    finally:
        tracer.op = None
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl")
    metrics = tracer.layer_metrics()
    traced_ms = [w / 1e6 for w in traced.walls_ns]
    metrics["trace.op_p50_ms"] = statistics.median(traced_ms)
    metrics["trace.overhead_ms"] = (statistics.median(traced_ms[: untraced.attempted])
                                    - statistics.median(w / 1e6 for w in untraced.walls_ns))
    notes = [f"traced ops {traced.attempted}, untraced baseline ops {untraced.attempted}"]
    if missing:
        notes.append("targets absent from this version: " + ", ".join(missing))
    return (metrics, notes, untraced.failures + traced.failures,
            untraced.attempted + traced.attempted)


def report(result: dict) -> dict:
    for key, entry in result["metrics"].items():
        print(f"{key:<48} {entry['value']:>16.6f} {entry['unit']}")
    for note in result["notes"]:
        print(f"# {note}")
    for failure in result["failures"][:20]:
        print(f"# FAILED {failure}")
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": result["metrics"],
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"## {name} --trace {trace}", flush=True)
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            child = subprocess.run(argv, capture_output=True, text=True, check=False)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0 or not lines:
                sys.stderr.write(child.stderr)
                return child.returncode or 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for key, entry in result["metrics"].items():
                summary["metrics"][f"{name}/{key}"] = entry
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "lobsterlab" / "__init__.py").is_file():
        print(f"perfbench: no lobsterlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # budgets come from the command line only
    os.environ.pop("GRACEFUL_BUDGET_SECS", None)
    if args.write_reference:
        workloads.write_reference(load_package()[0])
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
