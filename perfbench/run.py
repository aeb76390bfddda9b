#!/usr/bin/env python3
"""hive-vqe benchmark: closed-loop workloads, end-to-end and per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload swarm --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in BENCHMARK.json one after another.
BENCHMARK.json (repository root) lists the workloads, metrics and units.

Each workload is a fixed list of cells.  A round runs every cell once, each
as a fresh ``hive-vqe`` process (``perfbench/child.py`` calling
``hive_vqe.cli.main``), one after another: a closed loop with one client.
Rounds repeat until ``--seconds`` would be exceeded.  Every process starts
cold, so caches, lazily built tables and the norm-repair counter start
empty and set-up is paid as a command-line user pays it.  Seeds and
parameter files come from ``--seed``; the program sees only the generated
config and theta files.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every round runs twice with the same seeds, once with markers
only and once with every layer wrapped, and the run reports the per-layer
metrics of the traced copy plus the tracing overhead (traced minus untraced
``wall_s``).  Every operation's outputs are checked; a failed check, a
crash, an unexpected exit code or a missed target counts the operation as
failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import ReferenceChain, check_diagnose, check_run
from stats import (
    equal_weight_samples,
    failed_ratio,
    step_deltas_ms,
    summed_layer_totals,
    weighted_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"

FIELD = 1.1
# An operation takes seconds; one still running after this has hung.  The
# whole run must end within 180 s.
OPERATION_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0
# At 10x22 the swarm needs 90-170 cycles (18-34 s) to reach the target, which
# does not fit a run; that cell runs a fixed cycle budget and is measured for
# throughput, step latency and set-up only.
CAPPED_CYCLES = 8
# configs/adam_baseline.cfg asks for 30 restarts (about 44 s); three keep an
# operation near 4 s so that a run holds several cold-process repetitions.
ADAM_RESTARTS = 3


@dataclass(frozen=True)
class Cell:
    """One operation kind: a ``hive-vqe`` command on one chain size."""

    label: str
    command: str
    qubits: int
    depth: int
    optimizer: str = ""
    max_iterations: int = 300
    needs_target: bool = False

    def config_text(self, seed: int) -> str:
        lines = [
            f"qubits = {self.qubits}", f"depth = {self.depth}", f"h = {FIELD}",
            "boundary = closed", f"seed = {seed}",
        ]
        if self.command == "run":
            lines += [
                f"optimizer = {self.optimizer}", f"max_iterations = {self.max_iterations}",
                "target = 1e-6",
            ]
        if self.optimizer == "adam":
            lines += ["optimizer.adam.learning_rate = 0.01", f"optimizer.adam.restarts = {ADAM_RESTARTS}"]
        return "\n".join(lines) + "\n"

    @property
    def restarts(self) -> int:
        return ADAM_RESTARTS if self.optimizer == "adam" else 1


WORKLOADS = {
    "swarm": (
        Cell("6x10", "run", 6, 10, "boa", needs_target=True),
        Cell("8x14", "run", 8, 14, "boa", needs_target=True),
        Cell("10x22", "run", 10, 22, "boa", max_iterations=CAPPED_CYCLES),
    ),
    "adam": (Cell("8x14", "run", 8, 14, "adam", needs_target=True),),
    "diagnose": (Cell("12x26", "diagnose", 12, 26),),
}


@dataclass
class Operation:
    """Figures and checks of one cold-process command."""

    cell: Cell
    errors: list[str] = field(default_factory=list)
    wall_s: float = float("nan")
    setup_s: float = float("nan")
    target_s: float | None = None
    evaluations: int = 0
    work_s: float = float("nan")
    steps_ms: list[float] = field(default_factory=list)
    rss_mb: float = float("nan")
    import_s: float = float("nan")
    norm_repairs: int = 0
    spans: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def _derive_seed(*words: int) -> int:
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def _ground_energy(qubits: int) -> float:
    from hive_vqe.hamiltonian import Boundary, TfimSpec, exact_ground_energy

    return exact_ground_energy(TfimSpec(n=qubits, h=FIELD, boundary=Boundary.CLOSED))


class Runner:
    """Runs operations for one workload run and checks their outputs.

    Reference values (ground energies, the diagnostic reference) are
    computed here, before any operation is timed.
    """

    def __init__(self, workload: str, seed: int, work: Path):
        self.cells = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.count = 0
        self.ground = {cell.qubits: _ground_energy(cell.qubits) for cell in self.cells
                       if cell.command == "run"}
        self.theta = self.theta_file = self.reference = None
        self.reference_outputs: dict[str, bytes] | None = None
        for cell in self.cells:
            if cell.command == "diagnose":
                self.theta = np.random.default_rng(np.random.SeedSequence([seed])).uniform(
                    -np.pi, np.pi, 2 * cell.depth
                )
                self.theta_file = work / "theta.txt"
                self.theta_file.write_text("\n".join(f"{x:.17g}" for x in self.theta) + "\n")
                self.reference = ReferenceChain(cell.qubits, FIELD).qfim_and_hessian_diagonal(self.theta)

    def round(self, index: int, traced: bool) -> list[Operation]:
        return [
            self.operation(cell, _derive_seed(self.seed, index, position), traced)
            for position, cell in enumerate(self.cells)
        ]

    def operation(self, cell: Cell, seed: int, traced: bool) -> Operation:
        self.count += 1
        op_dir = self.work / f"op{self.count}"
        out = op_dir / "out"
        op_dir.mkdir(parents=True)
        config = op_dir / "cell.cfg"
        config.write_text(cell.config_text(seed))
        argv = [cell.command, "--config", str(config), "--out", str(out)]
        if cell.command == "diagnose":
            argv += ["--theta", str(self.theta_file)]
        spec = op_dir / "spec.json"
        result = op_dir / "child.json"
        spec.write_text(json.dumps(
            {"src": str(SRC), "argv": argv, "trace": traced, "result": str(result)}
        ))
        op = Operation(cell)
        timeout = min(OPERATION_TIMEOUT_S, max(1.0, self.deadline - time.perf_counter()))
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(spec)],
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            op.errors.append(f"{cell.label}: no result within {timeout:.0f} s")
            return op
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            op.errors.append(f"{cell.label}: exit {proc.returncode}: {tail[0]}")
            return op
        child = json.loads(result.read_text())
        try:
            op.errors += [f"{cell.label}: {e}" for e in self._check(cell, out, child)]
            if not op.errors:
                self._measure(op, child, spawned)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            op.errors.append(f"{cell.label}: unreadable output: {type(exc).__name__}: {exc}")
        shutil.rmtree(op_dir, ignore_errors=True)
        return op

    def _measure(self, op: Operation, child: dict, spawned: float) -> None:
        spans = child["spans"]
        op.wall_s = child["done"] - spawned
        op.rss_mb = child["maxrss_kb"] / 1024.0
        op.import_s = child["import_s"]
        op.norm_repairs = child["norm_repairs"]
        op.spans = spans
        op.traces = child["traces"]
        op.counters = child["counters"]
        if op.cell.command == "run":
            runs = [s for s in spans if s[2] == "optimizers.run_optimization"]
            work_start, work_end = runs[0][3], runs[-1][4]
            op.work_s = sum(s[4] - s[3] for s in runs)
            op.evaluations = sum(t["records"][-1][3] for t in op.traces if t["records"])
            for trace in op.traces:
                op.steps_ms += step_deltas_ms([r[4] for r in trace["records"]])
        else:
            work_start = next(s[3] for s in spans if s[2] == "diagnostics.qfim")
            work_end = next(s[3] for s in spans if s[2] == "harness.write_matrix_csv")
            gradients = [s for s in spans if s[2] == "diagnostics.energy_gradient"]
            op.work_s = work_end - work_start
            # Each energy-and-gradient call counts two evaluations, the
            # package's own convention for value_and_grad.
            op.evaluations = 2 * len(gradients)
            op.steps_ms = [(s[4] - s[3]) * 1e3 for s in gradients]
        op.setup_s = work_start - spawned
        if op.cell.needs_target or op.cell.command == "diagnose":
            op.target_s = work_end - work_start

    def _check(self, cell: Cell, out: Path, child: dict) -> list[str]:
        if cell.command == "run":
            return check_run(
                out, child, self.ground[cell.qubits], cell.optimizer,
                cell.restarts, cell.needs_target,
            )
        if child["exit_code"] != 0:
            return [f"exit code {child['exit_code']}, expected 0"]
        outputs = {
            name: (out / name).read_bytes()
            for name in ("qfim.csv", "hessian.csv", "spectrum.txt", "theta.txt")
        }
        if self.reference_outputs is None:
            errors = check_diagnose(out, self.theta, cell.qubits, cell.depth, self.reference)
            if not errors:
                self.reference_outputs = outputs
            return errors
        return [
            f"{name} differs from the checked first run with the same theta"
            for name, data in outputs.items() if data != self.reference_outputs[name]
        ]


Round = tuple[list[Operation], list[Operation] | None]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> tuple[list[Round], float]:
    """Closed loop of rounds until the next round would overrun ``seconds``.

    Each round is the untraced operations and, with ``trace``, the traced
    copies run with the same seeds.
    """
    work = work / workload
    work.mkdir()
    runner = Runner(workload, seed, work)
    start = time.perf_counter()
    rounds: list[Round] = []
    durations = []
    while True:
        began = time.perf_counter()
        plain = runner.round(len(rounds), traced=False)
        traced = runner.round(len(rounds), traced=True) if trace else None
        rounds.append((plain, traced))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        # Half the hard limit leaves room for one slow round past the target.
        if elapsed + statistics.median(durations) > min(seconds, RUN_LIMIT_S / 2):
            break
    return rounds, time.perf_counter() - start


def end_to_end(rounds: list[list[Operation]]) -> dict[str, tuple[float, int, str]]:
    """Medians over passing rounds of each round's figures.

    Step percentiles are taken within a round, every operation weighing the
    same, so a burst of host contention in one round moves one sample of
    the median rather than the tail of a run-wide pool.
    """
    good = [ops for ops in rounds if not any(op.errors for op in ops)]
    if not good:
        return {}
    per_round = {
        "wall_s": [sum(op.wall_s for op in ops) for ops in good],
        "setup_s": [sum(op.setup_s for op in ops) for ops in good],
        "time_to_target_s": [
            sum(op.target_s for op in ops if op.target_s is not None) for ops in good
        ],
        "evals_per_s": [
            sum(op.evaluations for op in ops) / sum(op.work_s for op in ops) for ops in good
        ],
        "peak_rss_mb": [max(op.rss_mb for op in ops) for ops in good],
    }
    samples = [equal_weight_samples([op.steps_ms for op in ops]) for ops in good]
    for q in (50, 90):
        per_round[f"step_ms_p{q}"] = [weighted_percentile(s, q) for s in samples]
    steps = sum(len(s) for s in samples)
    return {
        name: (statistics.median(values), steps if name.startswith("step_") else len(values),
               "steps" if name.startswith("step_") else "rounds")
        for name, values in per_round.items()
    }


def per_layer(rounds: list[Round]) -> dict[str, float]:
    """Per-round means over the traced copies, plus the tracing overhead."""
    traced_ops = [op for _, traced in rounds for op in traced]
    count = len(rounds)
    totals = summed_layer_totals(op.spans for op in traced_ops)
    figures: dict[str, float] = {}
    for name, entry in totals.items():
        for key in ("calls", "rows", "s", "self_s"):
            figures[f"{name}.{key}"] = entry[key] / count
        if entry["amps"]:
            figures[f"{name}.ns_per_amp"] = entry["s"] * 1e9 / entry["amps"]

    def counter(name: str) -> float:
        return sum(op.counters.get(name, 0) for op in traced_ops)

    traces = [t for op in traced_ops for t in op.traces]
    batch_rows = [s[5] for op in traced_ops for s in op.spans if s[2] == "loss.batch_values"]
    gradient_calls = totals.get("loss.value_and_grad", {}).get("calls", 0)
    cycles = counter("optimizers.cycles")
    figures.update({
        "statevector.norm_repairs": sum(op.norm_repairs for op in traced_ops) / count,
        "loss.evaluations": (sum(batch_rows) + 2 * gradient_calls) / count,
        "loss.batch_rows_max": max(batch_rows, default=0),
        "optimizers.iterations": sum(t["records"][-1][0] for t in traces if t["records"]) / count,
        "optimizers.abandonments": counter("optimizers.abandonments") / count,
        "optimizers.improving_cycle_ratio": counter("optimizers.improving_cycles") / cycles if cycles else 0.0,
        "optimizers.restarts_reached_ratio": (
            sum(t["terminated_by"] == "target_reached" for t in traces) / len(traces) if traces else 0.0
        ),
        "diagnostics.hessian.gradient_calls": figures.get("diagnostics.energy_gradient.calls", 0.0),
        "harness.save_run.bytes": counter("harness.save_run.bytes") / count,
        "cli.import_s": sum(op.import_s for op in traced_ops) / count,
        "trace.overhead_s": statistics.median(
            sum(op.wall_s for op in traced) - sum(op.wall_s for op in plain)
            for plain, traced in rounds
        ),
    })
    return figures


def cell_breakdown(rounds: list[Round]) -> list[str]:
    """Where each cell's work time went, from the traced copies."""
    lines = []
    for position, first in enumerate(rounds[0][1]):
        totals = summed_layer_totals(traced[position].spans for _, traced in rounds)

        def busy(prefix: str, key: str = "s") -> float:
            return sum(e[key] for n, e in totals.items() if n.startswith(prefix))

        work = busy("optimizers.run_optimization") or busy("harness.run_diagnose")
        if not work:
            continue
        parts = [
            ("statevector", busy("statevector.")),
            ("hamiltonian", busy("hamiltonian.PauliSum")),
            ("optimizers self", busy("optimizers.", "self_s")),
            ("X layer", busy("statevector.apply_x_layer")),
            ("ZZ layer", busy("statevector.apply_zz_layer")),
            ("batched energy", busy("loss.batch_values")),
        ]
        shares = ", ".join(f"{label} {value / work:.1%}" for label, value in parts if value)
        lines.append(f"  {first.cell.label}: work {work:.3f} s; of it {shares}")
    return lines


def environment() -> dict[str, object]:
    """The machine and settings a result was measured with, as found."""
    info: dict[str, object] = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "HIVE_VQE_THREADS": os.environ.get("HIVE_VQE_THREADS"),
        "commit": _commit(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True, help="workload seed, 0 or more")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be 0 or more")

    if not (SRC / "hive_vqe" / "__init__.py").is_file():
        print(f"error: no hive_vqe sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    selected = names if args.workload == "all" else [args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("env " + json.dumps(environment(), sort_keys=True))
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    attempted = failed = 0
    metrics: dict[str, dict[str, object]] = {}
    try:
        for workload in selected:
            rounds, elapsed = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
            ops = [op for plain, traced in rounds for op in plain + (traced or [])]
            bad = [op for op in ops if op.errors]
            attempted += len(ops)
            failed += len(bad)
            print(
                f"workload {workload}: {len(rounds)} rounds of "
                f"{'+'.join(c.label for c in WORKLOADS[workload])} in {elapsed:.1f} s; "
                f"failed_ratio {failed_ratio(len(bad), len(ops)):.3g} ({len(bad)}/{len(ops)} operations)"
            )
            for op in bad:
                print(f"  FAILED {'; '.join(op.errors)}")
            if args.trace:
                figures = {
                    name: (value, len(rounds), "traced rounds")
                    for name, value in per_layer(rounds).items()
                }
                for line in cell_breakdown(rounds):
                    print(line)
            else:
                figures = end_to_end([plain for plain, _ in rounds])
            for metric in listed:
                # A layer the workload never calls reads zero.
                default = (0.0, 0, "absent") if args.trace else (float("nan"), 0, "no passing round")
                value, samples, basis = figures.get(metric["name"], default)
                print(f"  {metric['name']:<44} {value:>12.6g} {metric['unit']:<6} n={samples} {basis}")
                if math.isfinite(value):
                    key = f"{workload}.{metric['name']}" if args.workload == "all" else metric["name"]
                    metrics[key] = {"value": value, "unit": metric["unit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
