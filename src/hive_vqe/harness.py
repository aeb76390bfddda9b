"""Run execution, artifact files, parallel sweeps, and curvature reports.

A run produces two files in its output directory: ``trace.csv`` with the
pinned header ``iteration,best_energy,abs_error,evaluations,wall_ms`` and
``run.json`` with the config snapshot and outcome summary.  Floats in CSV
artifacts are printed with 15 significant digits, which round-trips the
recorded (pre-quantized) values exactly.

``wall_ms`` is the only nondeterministic trace column; comparisons between
repeated runs should go through :func:`trace_without_wall_ms`.
"""

from __future__ import annotations

import datetime
import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from hive_vqe.ansatz import HvaCircuit
from hive_vqe.config import SCHEMA_VERSION, ConfigError, ExperimentConfig, config_mapping
from hive_vqe.diagnostics import hessian, qfim, spectrum_report
from hive_vqe.hamiltonian import PauliSum, TfimSpec, build_tfim, exact_ground_energy
from hive_vqe.loss import VqeObjective
from hive_vqe.optimizers import (
    ConvergenceTrace,
    DivergenceError,
    TraceRecord,
    run_optimization,
)

TRACE_HEADER = "iteration,best_energy,abs_error,evaluations,wall_ms"

THREADS_ENV_VAR = "HIVE_VQE_THREADS"


def _fmt(value: float) -> str:
    return f"{float(value):.15g}"


def _derived_seed(seed: int, index: int) -> int:
    """Deterministic child seed for restart ``index`` of a base seed."""
    words = np.random.SeedSequence([seed, index]).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


@dataclass(frozen=True)
class RestartSummary:
    """Outcome of one gradient-descent restart inside a best-of-k run."""

    index: int
    seed: int
    reached_target: bool
    diverged: bool
    iterations: int
    final_abs_error: float


@dataclass
class RunArtifact:
    """Everything a single optimization run produced."""

    config: ExperimentConfig
    seed: int
    ground_energy: float
    trace: ConvergenceTrace
    restarts: tuple[RestartSummary, ...] | None
    started_at: str
    duration_ms: float


def build_problem(config: ExperimentConfig) -> tuple[HvaCircuit, PauliSum, float]:
    """Circuit, Hamiltonian and exact ground energy for a config."""
    spec = TfimSpec(n=config.qubits, h=config.h, boundary=config.boundary)
    circuit = HvaCircuit(n=config.qubits, layers=config.depth, boundary=config.boundary)
    return circuit, build_tfim(spec), exact_ground_energy(spec)


def _restart_sort_key(item: tuple[RestartSummary, ConvergenceTrace]) -> tuple:
    summary = item[0]
    if summary.diverged:
        return (2, float("inf"), summary.index)
    if summary.reached_target:
        return (0, summary.iterations, summary.index)
    error = summary.final_abs_error
    return (1, error if np.isfinite(error) else float("inf"), summary.index)


def execute_run(config: ExperimentConfig) -> RunArtifact:
    """Run the configured optimizer on the configured chain.

    The swarm runs once with the config seed.  Gradient descent runs
    ``adam_restarts`` times from independent uniform starts (restart ``r``
    seeds its stream from the pair ``(seed, r)``) and keeps the best run:
    fastest to reach the target, else lowest final error.  If every restart
    diverges the last divergence is re-raised.  The problem is built once;
    each restart counts its evaluations on its own objective.
    """
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    start = time.perf_counter()
    circuit, hamiltonian, ground = build_problem(config)

    if config.optimizer == "boa":
        trace = run_optimization(
            VqeObjective(circuit, hamiltonian, reference=ground), config.boa, config.seed,
            max_iterations=config.max_iterations, target=config.target,
        )
        restarts = None
        seed = config.seed
    elif config.optimizer == "adam":
        completed: list[tuple[RestartSummary, ConvergenceTrace]] = []
        last_divergence: DivergenceError | None = None
        for index in range(config.adam_restarts):
            restart_seed = _derived_seed(config.seed, index)
            try:
                trace = run_optimization(
                    VqeObjective(circuit, hamiltonian, reference=ground),
                    config.adam, restart_seed,
                    max_iterations=config.max_iterations, target=config.target,
                )
                diverged = False
            except DivergenceError as exc:
                trace = exc.trace
                diverged = True
                last_divergence = exc
            completed.append((
                RestartSummary(
                    index=index,
                    seed=restart_seed,
                    reached_target=trace.reached_target,
                    diverged=diverged,
                    iterations=trace.iterations,
                    final_abs_error=trace.final_abs_error,
                ),
                trace,
            ))
        if all(summary.diverged for summary, _ in completed):
            assert last_divergence is not None
            raise last_divergence
        best_summary, trace = min(completed, key=_restart_sort_key)
        restarts = tuple(summary for summary, _ in completed)
        seed = best_summary.seed
    else:
        raise ConfigError(f"optimizer: unsupported optimizer {config.optimizer!r}")

    return RunArtifact(
        config=config,
        seed=seed,
        ground_energy=ground,
        trace=trace,
        restarts=restarts,
        started_at=started_at,
        duration_ms=(time.perf_counter() - start) * 1e3,
    )


def _write_atomically(path: Path, text: str) -> None:
    """Replace ``path`` by ``text`` whole or not at all.

    The text goes to a temp file in the same directory, which is renamed
    over ``path`` only once complete; a failed write removes it.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_trace_csv(records: list[TraceRecord], path: str | Path) -> None:
    """Write trace rows with the pinned header and 15-significant-digit floats."""
    lines = [TRACE_HEADER]
    for r in records:
        lines.append(
            f"{r.iteration},{_fmt(r.best_energy)},{_fmt(r.abs_error)},"
            f"{r.evaluations},{_fmt(r.wall_ms)}"
        )
    _write_atomically(Path(path), "\n".join(lines) + "\n")


def read_trace_csv(path: str | Path) -> list[TraceRecord]:
    """Parse a trace file back into records, validating the exact header."""
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: expected header {TRACE_HEADER!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        records.append(
            TraceRecord(
                iteration=int(parts[0]),
                best_energy=float(parts[1]),
                abs_error=float(parts[2]),
                evaluations=int(parts[3]),
                wall_ms=float(parts[4]),
            )
        )
    return records


def trace_without_wall_ms(text: str) -> str:
    """Trace CSV text with the timing column removed, for determinism checks."""
    kept = []
    for line in text.splitlines():
        if line:
            kept.append(line.rsplit(",", 1)[0])
    return "\n".join(kept) + "\n"


def save_run(artifact: RunArtifact, out_dir: str | Path) -> dict[str, Path]:
    """Write trace.csv and run.json into ``out_dir``; returns the paths.

    Each file is written atomically, so a failed save leaves no partial
    file that looks like a complete artifact.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.csv"
    json_path = out_dir / "run.json"
    write_trace_csv(artifact.trace.records, trace_path)

    records = artifact.trace.records
    best = artifact.trace.best_parameters
    payload = {
        "schema_version": SCHEMA_VERSION,
        "optimizer": artifact.config.optimizer,
        "seed": artifact.seed,
        "config": config_mapping(artifact.config),
        "ground_energy": artifact.ground_energy,
        "terminated_by": artifact.trace.terminated_by.value,
        "reached_target": artifact.trace.reached_target,
        "iterations": artifact.trace.iterations,
        "final_energy": records[-1].best_energy if records else None,
        "final_abs_error": artifact.trace.final_abs_error,
        "evaluations": records[-1].evaluations if records else 0,
        "best_parameters": None if best is None else [float(x) for x in best],
        "started_at": artifact.started_at,
        "duration_ms": artifact.duration_ms,
        "restarts": None if artifact.restarts is None else [
            {
                "index": s.index,
                "seed": s.seed,
                "reached_target": s.reached_target,
                "diverged": s.diverged,
                "iterations": s.iterations,
                "final_abs_error": s.final_abs_error,
            }
            for s in artifact.restarts
        ],
    }
    _write_atomically(
        json_path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
    )
    return {"trace": trace_path, "run": json_path}


def cell_name(qubits: int, depth: int, optimizer: str, seed: int) -> str:
    return f"n{qubits}_L{depth}_{optimizer}_seed{seed}"


def worker_count(jobs: int) -> int:
    """Pool size for sweeps: CPU count capped by the threads env var."""
    limit = os.cpu_count() or 1
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV_VAR}: expected a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise ConfigError(f"{THREADS_ENV_VAR}: expected a positive integer, got {value}")
        limit = min(limit, value)
    return max(1, min(limit, jobs))


_SweepJob = tuple[ExperimentConfig, int, int, str, int, str]


def _cell(job: _SweepJob) -> tuple[dict[str, object], Path]:
    """A cell's summary row before it has run, and its artifact directory."""
    _, qubits, depth, optimizer, seed, out_root = job
    name = cell_name(qubits, depth, optimizer, seed)
    row: dict[str, object] = {
        "cell": name, "qubits": qubits, "depth": depth,
        "optimizer": optimizer, "seed": seed,
        "reached_target": False, "iterations": 0,
        "final_abs_error": float("nan"), "error": "",
    }
    return row, Path(out_root) / name


def _record_failure(row: dict[str, object], cell_dir: Path, exc: Exception) -> dict[str, object]:
    """Replace the cell's run.json and trace.csv with error.txt and mark its row failed."""
    cell_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("run.json", "trace.csv"):
        (cell_dir / stale).unlink(missing_ok=True)
    message = f"{type(exc).__name__}: {exc}"
    _write_atomically(cell_dir / "error.txt", message + "\n")
    row["error"] = message
    return row


def _sweep_job(job: _SweepJob) -> dict[str, object]:
    base, qubits, depth, optimizer, seed, _ = job
    row, cell_dir = _cell(job)
    try:
        cfg = replace(base, seed=seed, qubits=qubits, depth=depth, optimizer=optimizer)
        artifact = execute_run(cfg)
        save_run(artifact, cell_dir)
        (cell_dir / "error.txt").unlink(missing_ok=True)
        row["reached_target"] = artifact.trace.reached_target
        row["iterations"] = artifact.trace.iterations
        row["final_abs_error"] = artifact.trace.final_abs_error
    except Exception as exc:  # noqa: BLE001  record the failure, keep sweeping
        _record_failure(row, cell_dir, exc)
    return row


def _pool_rows(jobs: list[_SweepJob], workers: int) -> list[dict[str, object]]:
    """Run the jobs on a process pool, one future per job.

    A crashed worker breaks the pool, which fails every job it left
    unfinished with ``BrokenProcessPool``.  Each such job runs once more,
    alone, in a fresh one-worker pool, so only a job that crashes again is
    lost.  A job that still raises becomes a failed row; the others keep
    their results.
    """
    # Imported here: at module level it adds about 25 ms to every command.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def finished(batch: list[_SweepJob], size: int) -> list:
        with ProcessPoolExecutor(max_workers=size) as pool:
            return [pool.submit(_sweep_job, job) for job in batch]

    rows = []
    for job, future in zip(jobs, finished(jobs, workers)):
        if isinstance(future.exception(), BrokenProcessPool):
            (future,) = finished([job], 1)
        try:
            rows.append(future.result())
        except Exception as exc:  # noqa: BLE001  a failed job fails its own cell only
            rows.append(_record_failure(*_cell(job), exc))
    return rows


SUMMARY_HEADER = (
    "qubits,depth,optimizer,runs,successes,success_rate,"
    "median_iterations_to_target,median_final_abs_error,errors"
)


@dataclass
class SweepResult:
    """Per-run rows plus the aggregated summary table."""

    rows: list[dict[str, object]]
    summary_rows: list[dict[str, object]]
    summary_path: Path
    error_count: int


def run_sweep(config: ExperimentConfig, out_dir: str | Path) -> SweepResult:
    """Run the configured grid x optimizer x seed product and aggregate.

    Jobs are independent processes (pool size capped by HIVE_VQE_THREADS);
    each writes its own artifact directory, so per-run outputs are identical
    for any pool size.  A failed run, or one lost with a crashed worker,
    leaves error.txt in its cell directory and an ``error`` entry in its
    summary row; the sweep continues and still writes summary.csv.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (config, qubits, depth, optimizer, seed, str(out_dir))
        for qubits, depth in config.sweep_grid
        for optimizer in config.sweep_optimizers
        for seed in config.sweep_seeds
    ]
    workers = worker_count(len(jobs))
    rows = [_sweep_job(job) for job in jobs] if workers == 1 else _pool_rows(jobs, workers)

    import statistics  # only the roll-up needs it, so a run does not import it

    summary_rows = []
    for qubits, depth in config.sweep_grid:
        for optimizer in config.sweep_optimizers:
            group = [
                row for row in rows
                if row["qubits"] == qubits and row["depth"] == depth
                and row["optimizer"] == optimizer
            ]
            completed = [row for row in group if not row["error"]]
            successes = [row for row in completed if row["reached_target"]]
            summary_rows.append({
                "qubits": qubits,
                "depth": depth,
                "optimizer": optimizer,
                "runs": len(group),
                "successes": len(successes),
                "success_rate": len(successes) / len(group) if group else 0.0,
                "median_iterations_to_target": (
                    statistics.median(row["iterations"] for row in successes)
                    if successes else None
                ),
                "median_final_abs_error": (
                    statistics.median(row["final_abs_error"] for row in completed)
                    if completed else None
                ),
                "errors": len(group) - len(completed),
            })

    lines = [SUMMARY_HEADER]
    for row in summary_rows:
        med_iters = row["median_iterations_to_target"]
        med_err = row["median_final_abs_error"]
        lines.append(
            f"{row['qubits']},{row['depth']},{row['optimizer']},{row['runs']},"
            f"{row['successes']},{_fmt(row['success_rate'])},"
            f"{'' if med_iters is None else _fmt(med_iters)},"
            f"{'' if med_err is None else _fmt(med_err)},{row['errors']}"
        )
    summary_path = out_dir / "summary.csv"
    _write_atomically(summary_path, "\n".join(lines) + "\n")
    error_count = sum(1 for row in rows if row["error"])
    return SweepResult(rows, summary_rows, summary_path, error_count)


def resolve_theta(config: ExperimentConfig, source: str) -> tuple[np.ndarray, str]:
    """Parameter vector for diagnostics: ``zeros``, ``best``, or a file path.

    ``zeros`` probes the uniform-superposition point.  ``best`` runs the
    configured optimizer and takes the lowest-energy parameters it found.
    Anything else is read as a text file of whitespace-separated floats.
    """
    dim = 2 * config.depth
    if source == "zeros":
        return np.zeros(dim), "zeros"
    if source == "best":
        artifact = execute_run(config)
        theta = artifact.trace.best_parameters
        if theta is None:
            raise ConfigError("theta: optimizer run produced no parameters")
        return np.asarray(theta, dtype=np.float64), f"best-of-run (seed {artifact.seed})"
    path = Path(source)
    try:
        tokens = path.read_text().split()
    except OSError as exc:
        raise ConfigError(f"theta: cannot read {path}: {exc}") from None
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"theta: {path} must contain only numbers") from None
    if len(values) != dim:
        raise ConfigError(f"theta: expected {dim} values for depth {config.depth}, got {len(values)}")
    if not all(np.isfinite(v) for v in values):
        raise ConfigError(f"theta: {path} contains non-finite values")
    return np.asarray(values, dtype=np.float64), f"file {path}"


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a dense matrix as bare comma-separated rows, 15 digits."""
    matrix = np.asarray(matrix, dtype=np.float64)
    lines = [",".join(_fmt(x) for x in row) for row in matrix]
    _write_atomically(Path(path), "\n".join(lines) + "\n")


def run_diagnose(config: ExperimentConfig, theta_source: str, out_dir: str | Path) -> dict[str, object]:
    """Write qfim.csv, hessian.csv, theta.txt, and spectrum.txt for one point."""
    theta, origin = resolve_theta(config, theta_source)
    circuit, hamiltonian, _ = build_problem(config)

    info = qfim(circuit, theta)
    curvature = hessian(circuit, theta, hamiltonian)
    info_report = spectrum_report(info)
    curvature_report = spectrum_report(curvature)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(info.entries, out_dir / "qfim.csv")
    write_matrix_csv(curvature.entries, out_dir / "hessian.csv")
    _write_atomically(out_dir / "theta.txt", "\n".join(f"{x:.17g}" for x in theta) + "\n")

    lines = [
        f"theta_source: {origin}",
        f"qubits: {config.qubits}",
        f"depth: {config.depth}",
        f"boundary: {config.boundary.value}",
        f"h: {_fmt(config.h)}",
    ]
    for name, report in (("qfim", info_report), ("hessian", curvature_report)):
        lines.append("")
        lines.append(f"[{name}]")
        lines.append(f"rank: {report.rank}")
        lines.append(f"zero_count: {report.zero_count}")
        lines.append(f"threshold: {_fmt(report.threshold)}")
        lines.append("eigenvalues:")
        for value in report.eigenvalues:
            lines.append(f"  {_fmt(value)}")
    _write_atomically(out_dir / "spectrum.txt", "\n".join(lines) + "\n")

    return {
        "theta_source": origin,
        "qfim_rank": info_report.rank,
        "qfim_zero_count": info_report.zero_count,
        "hessian_rank": curvature_report.rank,
        "out_dir": out_dir,
    }
