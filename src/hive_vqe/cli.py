"""Command-line interface.

Subcommands: ``oracle`` (exact ground energy), ``run`` (one optimization),
``sweep`` (grid of runs with a process pool), ``diagnose`` (curvature
reports), ``plot`` (SVG convergence chart).

Exit codes: 0 success (run: target reached), 1 usage error, 2 invalid input
or config, 3 numeric failure, 4 run finished without reaching the target.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from hive_vqe import __version__
from hive_vqe.config import ConfigError, load_config
from hive_vqe.hamiltonian import MAX_QUBITS, MIN_QUBITS, Boundary, TfimSpec, exact_ground_energy
from hive_vqe.harness import (
    _write_atomically,
    execute_run,
    read_trace_csv,
    run_diagnose,
    run_sweep,
    save_run,
)
from hive_vqe.optimizers import DivergenceError

USAGE_ERROR = 1
CONFIG_ERROR = 2
NUMERIC_ERROR = 3
TARGET_NOT_REACHED = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _finite_float(text: str) -> float:
    """Argument type for a finite number: ``inf`` and ``nan`` are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hive-vqe",
        description="Swarm-optimized variational ground-state search for the "
        "transverse-field Ising chain.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    oracle = sub.add_parser("oracle", help="print the exact ground-state energy")
    oracle.add_argument("qubits", type=int, help=f"chain length ({MIN_QUBITS}..{MAX_QUBITS})")
    oracle.add_argument("h", type=float, help="transverse field strength")
    oracle.add_argument("boundary", help="open or closed")
    oracle.set_defaults(func=_cmd_oracle)

    run = sub.add_parser("run", help="run one optimization and save artifacts")
    run.add_argument("--config", required=True, help="config file path")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default="runs", help="output directory (default: runs)")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run the configured grid of experiments")
    sweep.add_argument("--config", required=True, help="config file path")
    sweep.add_argument("--out", default="sweep", help="output directory (default: sweep)")
    sweep.set_defaults(func=_cmd_sweep)

    diagnose = sub.add_parser("diagnose", help="write curvature and spectrum reports")
    diagnose.add_argument("--config", required=True, help="config file path")
    diagnose.add_argument(
        "--theta",
        default="zeros",
        help="parameter source: zeros, best, or a file of numbers (default: zeros)",
    )
    diagnose.add_argument("--seed", type=int, default=None, help="override the config seed")
    diagnose.add_argument("--out", default="diagnose", help="output directory")
    diagnose.set_defaults(func=_cmd_diagnose)

    plot = sub.add_parser("plot", help="render convergence traces to SVG")
    plot.add_argument(
        "traces", nargs="+",
        help="trace.csv files or run directories containing trace.csv",
    )
    plot.add_argument("--out", default="plot.svg", help="output SVG path")
    plot.add_argument("--target", type=_finite_float, default=1e-6, help="dashed target line")
    plot.add_argument("--title", default="convergence", help="chart title")
    plot.set_defaults(func=_cmd_plot)

    return parser


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = TfimSpec(n=args.qubits, h=args.h, boundary=Boundary.parse(args.boundary))
    energy = exact_ground_energy(spec)
    print(f"{energy:.12g}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    artifact = execute_run(config)
    paths = save_run(artifact, args.out)
    trace = artifact.trace
    print(
        f"{trace.terminated_by.value} optimizer={artifact.config.optimizer} "
        f"seed={artifact.seed} iterations={trace.iterations} "
        f"final_abs_error={trace.final_abs_error:.6g} "
        f"trace={paths['trace']}"
    )
    return 0 if trace.reached_target else TARGET_NOT_REACHED


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    result = run_sweep(config, args.out)
    for row in result.summary_rows:
        med = row["median_iterations_to_target"]
        print(
            f"n={row['qubits']} L={row['depth']} {row['optimizer']}: "
            f"{row['successes']}/{row['runs']} reached target"
            + (f", median {med:g} iterations" if med is not None else "")
            + (f", {row['errors']} failed" if row["errors"] else "")
        )
    print(f"summary={result.summary_path}")
    return 0 if result.error_count == 0 else NUMERIC_ERROR


def _cmd_diagnose(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    summary = run_diagnose(config, args.theta, args.out)
    print(
        f"theta={summary['theta_source']} qfim_rank={summary['qfim_rank']} "
        f"qfim_zero_count={summary['qfim_zero_count']} "
        f"hessian_rank={summary['hessian_rank']} out={summary['out_dir']}"
    )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    # Imported here: no other command draws, and plotting pulls in html.
    from hive_vqe.plotting import render_convergence_svg, series_from_records

    series = []
    for raw in args.traces:
        path = Path(raw)
        if path.is_dir():
            path = path / "trace.csv"
        if not path.is_file():
            raise ConfigError(f"trace not found: {path}")
        label = path.parent.name if path.name == "trace.csv" and path.parent.name else path.stem
        series.append(series_from_records(label, read_trace_csv(path)))
    svg = render_convergence_svg(series, target=args.target, title=args.title)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    _write_atomically(out, svg)
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (DivergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
