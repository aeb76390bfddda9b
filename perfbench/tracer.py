"""Outside-in tracer for one hive-vqe process.

Each public function is wrapped at the name its caller looks up (for
example ``hive_vqe.ansatz.apply_x_layer``, which the circuit code calls, not
``hive_vqe.statevector.apply_x_layer``), so the package itself is unchanged.
Every call becomes a span ``(id, parent, name, start, end, rows, amps)``
kept in memory; the child process writes them out when the command ends.

With ``full=False`` only the marker points are wrapped: the optimizer entry
(which also hands back every ``ConvergenceTrace``, Adam restarts included),
the first diagnostic kernel, the per-parameter gradient calls of the Hessian
and the first matrix write.  That is a handful of spans per run, which is
how the untraced (end-to-end) runs find where set-up ends and work begins.
"""

from __future__ import annotations

import importlib
import math
import time
from pathlib import Path


class Tracer:
    """Span recorder; spans of one process share the process as trace id."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int, int]] = []
        self.traces: list[dict[str, object]] = []
        self.counters: dict[str, float] = {}
        self._stack = [0]
        self._next_id = 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, size=None, hook=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span per call.

        ``size(args)`` returns ``(rows, amplitudes)`` processed by the call;
        ``hook(tracer, args, result)`` derives counters from a returned value.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            rows, amps = size(args) if size else (0, 0)
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, rows, amps))
            if hook:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)


def _last_axis(index: int):
    def size(args):
        amps = args[index]
        return amps.size // amps.shape[-1], amps.size
    return size


def _param_rows(args):
    circuit, thetas = args[0], args[1]
    return len(thetas), len(thetas) << circuit.n


def _objective_rows(args):
    objective, thetas = args[0], args[1]
    return len(thetas), len(thetas) << objective.circuit.n


def _keep_trace(tracer: Tracer, args, trace) -> None:
    tracer.traces.append({
        "terminated_by": trace.terminated_by.value,
        "records": [
            [r.iteration, r.best_energy, r.abs_error, r.evaluations, r.wall_ms]
            for r in trace.records
        ],
    })


def _boa_outcome(tracer: Tracer, args, state) -> None:
    tracer.count("optimizers.cycles")
    tracer.count("optimizers.abandonments", sum(math.isinf(s.fitness) for s in state.sites))
    if state.best_fitness < args[0].best_fitness:
        tracer.count("optimizers.improving_cycles")


def _saved_bytes(tracer: Tracer, args, paths) -> None:
    tracer.count("harness.save_run.bytes", sum(Path(p).stat().st_size for p in paths.values()))


# (module, class or None, attribute, span name, size, hook, marker)
WRAP_POINTS = (
    ("hive_vqe.harness", None, "run_optimization", "optimizers.run_optimization", None, _keep_trace, True),
    ("hive_vqe.harness", None, "qfim", "diagnostics.qfim", None, None, True),
    ("hive_vqe.diagnostics", None, "energy_gradient", "diagnostics.energy_gradient", None, None, True),
    ("hive_vqe.harness", None, "write_matrix_csv", "harness.write_matrix_csv", None, None, True),
    ("hive_vqe.ansatz", None, "apply_x_layer", "statevector.apply_x_layer", _last_axis(0), None, False),
    ("hive_vqe.ansatz", None, "apply_zz_layer", "statevector.apply_zz_layer", _last_axis(0), None, False),
    ("hive_vqe.ansatz", None, "apply_coupling_generator", "statevector.apply_coupling_generator",
     _last_axis(0), None, False),
    ("hive_vqe.ansatz", None, "apply_field_generator", "statevector.apply_field_generator",
     _last_axis(0), None, False),
    ("hive_vqe.ansatz", None, "ensure_normalized", "statevector.ensure_normalized", _last_axis(0), None, False),
    ("hive_vqe.hamiltonian", "PauliSum", "apply", "hamiltonian.PauliSum.apply", _last_axis(1), None, False),
    ("hive_vqe.harness", None, "exact_ground_energy", "hamiltonian.exact_ground_energy", None, None, False),
    ("hive_vqe.harness", None, "build_tfim", "hamiltonian.build_tfim", None, None, False),
    ("hive_vqe.hamiltonian", None, "build_tfim", "hamiltonian.build_tfim", None, None, False),
    ("hive_vqe.loss", None, "prepare_amplitudes", "ansatz.prepare_amplitudes", _param_rows, None, False),
    ("hive_vqe.loss", None, "energy_and_gradient", "ansatz.energy_and_gradient", None, None, False),
    ("hive_vqe.ansatz", None, "energy_and_gradient", "ansatz.energy_and_gradient", None, None, False),
    ("hive_vqe.diagnostics", None, "derivative_stack", "ansatz.derivative_stack", None, None, False),
    ("hive_vqe.loss", "Objective", "batch_values", "loss.batch_values", _objective_rows, None, False),
    ("hive_vqe.loss", "Objective", "value_and_grad", "loss.value_and_grad", None, None, False),
    ("hive_vqe.optimizers", None, "boa_init", "optimizers.boa_init", None, None, False),
    ("hive_vqe.optimizers", None, "boa_cycle", "optimizers.boa_cycle", None, _boa_outcome, False),
    ("hive_vqe.optimizers", None, "adam_step", "optimizers.adam_step", None, None, False),
    ("hive_vqe.harness", None, "hessian", "diagnostics.hessian", None, None, False),
    ("hive_vqe.harness", None, "spectrum_report", "diagnostics.spectrum_report", None, None, False),
    ("hive_vqe.harness", None, "build_problem", "harness.build_problem", None, None, False),
    ("hive_vqe.cli", None, "execute_run", "harness.execute_run", None, None, False),
    ("hive_vqe.cli", None, "save_run", "harness.save_run", None, _saved_bytes, False),
    ("hive_vqe.cli", None, "run_diagnose", "harness.run_diagnose", None, None, False),
    ("hive_vqe.cli", None, "load_config", "config.load_config", None, None, False),
)


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the marker points, and with ``full`` every traced layer boundary."""
    for module_name, class_name, attr, name, size, hook, marker in WRAP_POINTS:
        if not (marker or full):
            continue
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name, size, hook)
