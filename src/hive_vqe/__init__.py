"""Swarm-trained variational eigensolver workbench for transverse-field Ising chains."""

from hive_vqe.hamiltonian import (
    Boundary,
    PauliString,
    PauliSum,
    TfimSpec,
    build_tfim,
    exact_ground_energy,
)
from hive_vqe.statevector import (
    StateVector,
    expectation,
    plus_state,
    renormalization_count,
)
from hive_vqe.ansatz import (
    HvaCircuit,
    apply_circuit,
    energy_and_gradient,
    energy_gradient,
    prepare_state,
    state_derivative,
)
from hive_vqe.loss import (
    Objective,
    VqeObjective,
    vqe_energy,
    vqe_energy_batch,
)
from hive_vqe.optimizers import (
    AdamConfig,
    BoaConfig,
    BoaState,
    ConvergenceTrace,
    DivergenceError,
    Site,
    Termination,
    TraceRecord,
    adam_step,
    boa_cycle,
    boa_init,
    run_optimization,
)
from hive_vqe.diagnostics import (
    HessianMatrix,
    QfimMatrix,
    SpectrumReport,
    fubini_study_distance,
    hessian,
    qfim,
    spectrum_report,
)
from hive_vqe.config import (
    DEFAULT_GRID,
    ConfigError,
    ExperimentConfig,
    config_mapping,
    load_config,
    parse_config_text,
    with_overrides,
)
from hive_vqe.harness import (
    RunArtifact,
    SweepResult,
    execute_run,
    read_trace_csv,
    run_diagnose,
    run_sweep,
    save_run,
    trace_without_wall_ms,
    write_trace_csv,
)
from hive_vqe.plotting import PlotSeries, render_convergence_svg, series_from_records

__version__ = "0.1.0"
