"""Swarm-trained variational eigensolver workbench for transverse-field Ising chains.

The names below are re-exported lazily (PEP 562): a module is imported the
first time one of its names is read, so a command imports only what it runs.
"""

import importlib

_EXPORTS = {
    "hamiltonian": "Boundary PauliSum TfimSpec build_tfim exact_ground_energy",
    "statevector": "StateVector renormalization_count",
    "ansatz": "HvaCircuit energy_and_gradient energy_gradient prepare_state",
    "loss": "Objective VqeObjective vqe_energy vqe_energy_batch",
    "optimizers": "AdamConfig BoaConfig BoaState ConvergenceTrace DivergenceError Site "
    "Termination TraceRecord adam_step boa_cycle boa_init run_optimization",
    "diagnostics": "HessianMatrix QfimMatrix SpectrumReport fubini_study_distance hessian qfim "
    "spectrum_report",
    "config": "DEFAULT_GRID ConfigError ExperimentConfig config_mapping load_config "
    "parse_config_text",
    "harness": "RunArtifact SweepResult execute_run read_trace_csv run_diagnose run_sweep "
    "save_run trace_without_wall_ms write_trace_csv",
    "plotting": "PlotSeries render_convergence_svg series_from_records",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
