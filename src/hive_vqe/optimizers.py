"""Swarm and gradient optimizers with replayable counter-based random streams.

Every random draw comes from a child stream keyed by (run seed, cycle, site),
so traces are reproducible bit for bit no matter how candidate evaluations are
scheduled: all candidate positions for a cycle are drawn before any of them is
evaluated, and the batched evaluation is a pure function of the positions.

The swarm driver follows the classic bees division of labour.  Scouts seed
random sites; the best sites recruit foragers that sample a shrinking
hypercube patch; a site that fails to improve for ``stagnation_limit``
consecutive cycles is abandoned and recycled.  An abandoned site's fresh
random position is deliberately not evaluated in the abandonment cycle (it
carries an infinite placeholder fitness, so it sorts last and is recycled
through the scout pool next cycle); this keeps the evaluation budget of every
cycle exactly constant, which the accounting contract requires.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

from hive_vqe.loss import PARAMETER_BOUNDS, Objective


class Termination(enum.Enum):
    TARGET_REACHED = "target_reached"
    MAX_ITERATIONS = "max_iterations"
    DIVERGED = "diverged"


def quantize15(value: float) -> float:
    """Round to 15 significant digits, the trace serialization precision.

    Applying this at record time makes CSV round trips reproduce trace fields
    exactly: the printed form parses back to the identical float.
    """
    return float(f"{float(value):.15g}")


@dataclass(frozen=True)
class TraceRecord:
    """One optimizer iteration: energy, error, and cumulative work."""

    iteration: int
    best_energy: float
    abs_error: float
    evaluations: int
    wall_ms: float


@dataclass
class ConvergenceTrace:
    """Iteration records plus the reason the run stopped.

    ``best_parameters`` holds the lowest-energy point the run visited; it is
    kept out of the CSV trace and surfaced through run artifacts instead.
    """

    records: list[TraceRecord]
    terminated_by: Termination
    best_parameters: np.ndarray | None = None

    @property
    def reached_target(self) -> bool:
        return self.terminated_by is Termination.TARGET_REACHED

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0

    @property
    def final_abs_error(self) -> float:
        return self.records[-1].abs_error if self.records else float("nan")


class DivergenceError(RuntimeError):
    """A gradient run produced non-finite values; carries the partial trace."""

    def __init__(self, message: str, trace: ConvergenceTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class BoaConfig:
    """Population shape and patch heuristics for the bees search.

    ``initial_patch`` is the half-width (radians) of the hypercube foragers
    sample around a site.  A cycle that fails to improve a site multiplies
    its patch by ``shrink``, focusing the local search; an improving cycle
    keeps the patch, so productive sites retain their reach.  A site whose
    patch has shrunk through ``stagnation_limit`` consecutive failures is
    abandoned and recycled.
    """

    scouts: int = 10
    selected_sites: int = 5
    elite_sites: int = 1
    elite_foragers: int = 15
    site_foragers: int = 10
    stagnation_limit: int = 10
    initial_patch: float = 0.5
    shrink: float = 0.8
    keep_nonselected: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.elite_sites <= self.selected_sites <= self.scouts:
            raise ValueError(
                "need 1 <= elite_sites <= selected_sites <= scouts, got "
                f"{self.elite_sites}/{self.selected_sites}/{self.scouts}"
            )
        if not 1 <= self.site_foragers <= self.elite_foragers:
            raise ValueError(
                "need 1 <= site_foragers <= elite_foragers, got "
                f"{self.site_foragers}/{self.elite_foragers}"
            )
        if self.stagnation_limit < 1:
            raise ValueError(f"stagnation_limit must be positive, got {self.stagnation_limit}")
        if not 0.0 < self.initial_patch <= np.pi:
            raise ValueError(f"initial_patch must lie in (0, pi], got {self.initial_patch}")
        if not 0.0 < self.shrink <= 1.0:
            raise ValueError(f"shrink must lie in (0, 1], got {self.shrink}")

    @property
    def evaluations_per_cycle(self) -> int:
        foragers = (
            self.elite_sites * self.elite_foragers
            + (self.selected_sites - self.elite_sites) * self.site_foragers
        )
        if self.keep_nonselected:
            return foragers
        return foragers + (self.scouts - self.selected_sites)


@dataclass(frozen=True)
class Site:
    """One remembered search location with its stagnation bookkeeping.

    ``fitness`` is the cached loss at ``position``; a just-abandoned site
    carries ``inf`` until its recycled position is evaluated next cycle.
    """

    position: np.ndarray
    fitness: float
    stagnation: int
    patch_width: float


@dataclass(frozen=True)
class BoaState:
    """Full swarm state after a cycle; sites are sorted best first."""

    sites: tuple[Site, ...]
    cycle: int
    seed: int
    best_position: np.ndarray
    best_fitness: float


@dataclass(frozen=True)
class AdamConfig:
    """Bias-corrected adaptive-moment gradient descent settings."""

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


def _site_stream(seed: int, cycle: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, cycle, index]))


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def boa_init(config: BoaConfig, objective: Objective, seed: int) -> BoaState:
    """Scatter the initial scout population and rank it."""
    seed = _check_seed(seed)
    low, high = PARAMETER_BOUNDS
    positions = np.stack(
        [
            _site_stream(seed, 0, i).uniform(low, high, objective.dim)
            for i in range(config.scouts)
        ]
    )
    fits = objective.batch_values(positions)
    order = np.argsort(fits, kind="stable")
    sites = tuple(
        Site(positions[i], float(fits[i]), 0, config.initial_patch) for i in order
    )
    return BoaState(
        sites=sites,
        cycle=0,
        seed=seed,
        best_position=sites[0].position.copy(),
        best_fitness=sites[0].fitness,
    )


def boa_cycle(state: BoaState, config: BoaConfig, objective: Objective) -> BoaState:
    """Run one full cycle: forage, update sites, recycle, re-rank.

    All candidate positions are drawn from per-site streams before the single
    batched evaluation, so evaluation order cannot influence the result.
    """
    if len(state.sites) != config.scouts:
        raise ValueError(
            f"state holds {len(state.sites)} sites, config expects {config.scouts}"
        )
    low, high = PARAMETER_BOUNDS
    cycle = state.cycle + 1
    streams = [_site_stream(state.seed, cycle, i) for i in range(config.scouts)]

    candidate_blocks: list[np.ndarray] = []
    block_owner: list[int] = []
    scout_positions: dict[int, np.ndarray] = {}
    for rank, site in enumerate(state.sites):
        if rank < config.elite_sites:
            recruits = config.elite_foragers
        elif rank < config.selected_sites:
            recruits = config.site_foragers
        else:
            if not config.keep_nonselected:
                scout_positions[rank] = streams[rank].uniform(low, high, objective.dim)
            continue
        box_low = np.maximum(low, site.position - site.patch_width)
        box_high = np.minimum(high, site.position + site.patch_width)
        candidate_blocks.append(
            streams[rank].uniform(box_low, box_high, (recruits, objective.dim))
        )
        block_owner.append(rank)

    stacked = np.vstack(candidate_blocks + [p[None, :] for _, p in sorted(scout_positions.items())])
    values = objective.batch_values(stacked)

    new_sites: list[Site] = []
    offset = 0
    pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for rank, block in zip(block_owner, candidate_blocks):
        pending[rank] = (block, values[offset : offset + block.shape[0]])
        offset += block.shape[0]
    scout_values: dict[int, float] = {}
    for rank in sorted(scout_positions):
        scout_values[rank] = float(values[offset])
        offset += 1

    for rank, site in enumerate(state.sites):
        if rank in pending:
            block, block_values = pending[rank]
            j = int(np.argmin(block_values))
            if block_values[j] < site.fitness:
                new_sites.append(
                    Site(block[j].copy(), float(block_values[j]), 0, site.patch_width)
                )
            else:
                stagnation = site.stagnation + 1
                if stagnation >= config.stagnation_limit:
                    new_sites.append(
                        Site(
                            streams[rank].uniform(low, high, objective.dim),
                            float("inf"),
                            0,
                            config.initial_patch,
                        )
                    )
                else:
                    new_sites.append(
                        Site(
                            site.position,
                            site.fitness,
                            stagnation,
                            site.patch_width * config.shrink,
                        )
                    )
        elif rank in scout_positions:
            new_sites.append(
                Site(scout_positions[rank], scout_values[rank], 0, config.initial_patch)
            )
        else:
            new_sites.append(site)

    best_position = state.best_position
    best_fitness = state.best_fitness
    j = int(np.argmin(values))
    if values[j] < best_fitness:
        best_fitness = float(values[j])
        best_position = stacked[j].copy()

    fits = np.array([s.fitness for s in new_sites])
    order = np.argsort(fits, kind="stable")
    return BoaState(
        sites=tuple(new_sites[i] for i in order),
        cycle=cycle,
        seed=state.seed,
        best_position=best_position,
        best_fitness=best_fitness,
    )


def adam_step(
    theta: np.ndarray,
    gradient: np.ndarray,
    moments: tuple[np.ndarray, np.ndarray],
    config: AdamConfig,
    t: int,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """One bias-corrected moment update; the step counter ``t`` starts at 1."""
    if t < 1:
        raise ValueError(f"step counter starts at 1, got {t}")
    theta = np.asarray(theta, dtype=np.float64)
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != theta.shape:
        raise ValueError(f"gradient shape {gradient.shape} does not match {theta.shape}")
    if not np.all(np.isfinite(gradient)):
        raise ValueError("non-finite gradient")
    m, v = moments
    m = config.beta1 * m + (1.0 - config.beta1) * gradient
    v = config.beta2 * v + (1.0 - config.beta2) * gradient * gradient
    m_hat = m / (1.0 - config.beta1**t)
    v_hat = v / (1.0 - config.beta2**t)
    theta = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
    return theta, (m, v)


def run_optimization(
    objective: Objective,
    method: BoaConfig | AdamConfig,
    seed: int,
    max_iterations: int = 300,
    target: float = 1e-6,
) -> ConvergenceTrace:
    """Drive one optimizer until the error target or the iteration budget.

    The trace records the best-so-far energy for the swarm and the current
    iterate's energy for the gradient method.  ``abs_error`` compares against
    ``objective.reference`` when one is set, else stays NaN and the target
    can never fire.
    """
    seed = _check_seed(seed)
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    if not target > 0:
        raise ValueError(f"target must be positive, got {target}")
    if isinstance(method, BoaConfig):
        return _run_boa(objective, method, seed, max_iterations, target)
    if isinstance(method, AdamConfig):
        return _run_adam(objective, method, seed, max_iterations, target)
    raise TypeError(f"unsupported optimizer config {type(method).__name__}")


def _abs_error(energy: float, reference: float | None) -> float:
    return abs(energy - reference) if reference is not None else float("nan")


def _run_boa(
    objective: Objective,
    config: BoaConfig,
    seed: int,
    max_iterations: int,
    target: float,
) -> ConvergenceTrace:
    start = time.perf_counter()
    records: list[TraceRecord] = []
    state = boa_init(config, objective, seed)
    termination = Termination.MAX_ITERATIONS
    for iteration in range(1, max_iterations + 1):
        state = boa_cycle(state, config, objective)
        error = _abs_error(state.best_fitness, objective.reference)
        records.append(
            TraceRecord(
                iteration=iteration,
                best_energy=quantize15(state.best_fitness),
                abs_error=quantize15(error),
                evaluations=objective.evaluations,
                wall_ms=quantize15((time.perf_counter() - start) * 1e3),
            )
        )
        if error <= target:
            termination = Termination.TARGET_REACHED
            break
    return ConvergenceTrace(records, termination, state.best_position.copy())


def _run_adam(
    objective: Objective,
    config: AdamConfig,
    seed: int,
    max_iterations: int,
    target: float,
) -> ConvergenceTrace:
    start = time.perf_counter()
    records: list[TraceRecord] = []
    low, high = PARAMETER_BOUNDS
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    theta = rng.uniform(low, high, objective.dim)
    moments = (np.zeros(objective.dim), np.zeros(objective.dim))
    termination = Termination.MAX_ITERATIONS
    best_energy = float("inf")
    best_theta = theta.copy()
    for iteration in range(1, max_iterations + 1):
        energy, gradient = objective.value_and_grad(theta)
        if not np.isfinite(energy) or not np.all(np.isfinite(gradient)):
            trace = ConvergenceTrace(records, Termination.DIVERGED, best_theta)
            raise DivergenceError(
                f"non-finite loss or gradient at iteration {iteration}", trace
            )
        if energy < best_energy:
            best_energy = energy
            best_theta = theta.copy()
        error = _abs_error(energy, objective.reference)
        records.append(
            TraceRecord(
                iteration=iteration,
                best_energy=quantize15(energy),
                abs_error=quantize15(error),
                evaluations=objective.evaluations,
                wall_ms=quantize15((time.perf_counter() - start) * 1e3),
            )
        )
        if error <= target:
            termination = Termination.TARGET_REACHED
            break
        theta, moments = adam_step(theta, gradient, moments, config, iteration)
    return ConvergenceTrace(records, termination, best_theta)
