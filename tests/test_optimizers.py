"""Swarm search mechanics, gradient stepping, traces, and determinism."""

import math

import numpy as np
import pytest

from hive_vqe.loss import PARAMETER_BOUNDS, Objective
from hive_vqe.optimizers import (
    SEED_LIMIT,
    AdamConfig,
    BoaConfig,
    Termination,
    adam_step,
    boa_cycle,
    boa_init,
    quantize15,
    run_optimization,
)
from hive_vqe.optimizers import _draw, _site_streams


class Quadratic(Objective):
    """Convex bowl with optimum zero at the origin."""

    def __init__(self, dim=1):
        super().__init__(dim, reference=0.0)

    def _value(self, theta):
        return float(np.sum(theta**2))

    def _batch_values(self, thetas):
        return np.sum(thetas**2, axis=1)

    def _value_and_grad(self, theta):
        return float(np.sum(theta**2)), 2.0 * theta


class Constant(Objective):
    """Flat landscape: no candidate ever improves a site."""

    def __init__(self, dim=2):
        super().__init__(dim, reference=0.0)

    def _value(self, theta):
        return 1.0

    def _batch_values(self, thetas):
        return np.ones(thetas.shape[0])


class Explosive(Objective):
    """Bowl whose gradient turns non-finite after ``finite_steps`` gradient calls."""

    def __init__(self, finite_steps):
        super().__init__(1, reference=0.0)
        self.finite_steps = finite_steps
        self.gradient_calls = 0

    def _value(self, theta):
        return float(theta[0] ** 2)

    def _value_and_grad(self, theta):
        self.gradient_calls += 1
        finite = self.gradient_calls <= self.finite_steps
        return self._value(theta), 2.0 * theta if finite else np.array([np.inf])


def test_quantize15_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        q = quantize15(x)
        assert float(f"{q:.15g}") == q
        assert quantize15(q) == q
        assert abs(q - x) <= abs(x) * 1e-13


def test_adam_first_step_frozen_value():
    config = AdamConfig()
    theta, moments = adam_step(
        np.array([0.5]), np.array([2.0]),
        (np.zeros(1), np.zeros(1)), config, t=1,
    )
    # Bias correction at t=1 cancels, so the step is lr * g / (|g| + eps).
    expected = 0.5 - 0.01 * 2.0 / (2.0 + 1e-8)
    assert abs(theta[0] - expected) < 1e-15
    assert moments[0][0] == pytest.approx(0.2, abs=1e-15)
    assert moments[1][0] == pytest.approx(0.004, abs=1e-15)


def test_adam_matches_reference_loop():
    rng = np.random.default_rng(42)
    config = AdamConfig(learning_rate=0.05, beta1=0.8, beta2=0.95, eps=1e-9)
    dim = 3
    grads = [rng.normal(size=dim) for _ in range(20)]

    theta_ref = np.zeros(dim)
    m = np.zeros(dim)
    v = np.zeros(dim)
    for t, g in enumerate(grads, start=1):
        m = config.beta1 * m + (1 - config.beta1) * g
        v = config.beta2 * v + (1 - config.beta2) * g * g
        m_hat = m / (1 - config.beta1**t)
        v_hat = v / (1 - config.beta2**t)
        theta_ref = theta_ref - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)

    theta = np.zeros(dim)
    moments = (np.zeros(dim), np.zeros(dim))
    for t, g in enumerate(grads, start=1):
        theta, moments = adam_step(theta, g, moments, config, t)
    np.testing.assert_allclose(theta, theta_ref, atol=1e-14)


def test_adam_step_rejects_bad_input():
    config = AdamConfig()
    with pytest.raises(ValueError):
        adam_step(np.zeros(1), np.array([np.nan]), (np.zeros(1), np.zeros(1)), config, 1)
    with pytest.raises(ValueError):
        adam_step(np.zeros(1), np.zeros(1), (np.zeros(1), np.zeros(1)), config, 0)


def test_adam_config_validation():
    with pytest.raises(ValueError):
        AdamConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AdamConfig(beta1=1.0)
    with pytest.raises(ValueError):
        AdamConfig(eps=0.0)


def test_boa_config_defaults_and_accounting():
    config = BoaConfig()
    assert (config.scouts, config.selected_sites, config.elite_sites) == (10, 5, 1)
    assert (config.elite_foragers, config.site_foragers) == (15, 10)
    assert config.stagnation_limit == 10
    assert config.evaluations_per_cycle == 60
    assert BoaConfig(keep_nonselected=True).evaluations_per_cycle == 55


def test_boa_config_validation():
    with pytest.raises(ValueError):
        BoaConfig(elite_sites=6)
    with pytest.raises(ValueError):
        BoaConfig(site_foragers=20)
    with pytest.raises(ValueError):
        BoaConfig(stagnation_limit=0)
    with pytest.raises(ValueError):
        BoaConfig(initial_patch=0.0)
    with pytest.raises(ValueError):
        BoaConfig(shrink=1.5)


def test_boa_init_is_deterministic_and_sorted():
    config = BoaConfig()
    a = boa_init(config, Quadratic(dim=3), seed=9)
    b = boa_init(config, Quadratic(dim=3), seed=9)
    assert len(a.sites) == config.scouts
    fitness = [site.fitness for site in a.sites]
    assert fitness == sorted(fitness)
    for sa, sb in zip(a.sites, b.sites):
        np.testing.assert_array_equal(sa.position, sb.position)
        assert sa.fitness == sb.fitness
    assert a.best_fitness == a.sites[0].fitness


def test_boa_cycle_accounting_and_monotonicity():
    config = BoaConfig()
    objective = Quadratic(dim=2)
    state = boa_init(config, objective, seed=5)
    best_values = [state.best_fitness]
    for _ in range(15):
        before = objective.evaluations
        state = boa_cycle(state, config, objective)
        assert objective.evaluations - before == 60
        assert len(state.sites) == config.scouts
        best_values.append(state.best_fitness)
    assert all(b <= a + 1e-15 for a, b in zip(best_values, best_values[1:]))
    assert state.best_fitness < best_values[0]


def test_boa_abandonment_on_flat_landscape():
    config = BoaConfig(stagnation_limit=3)
    objective = Constant()
    state = boa_init(config, objective, seed=2)
    initial_best = state.best_fitness
    positions = [site.position.copy() for site in state.sites[: config.selected_sites]]
    for cycle in range(1, 8):
        before = objective.evaluations
        state = boa_cycle(state, config, objective)
        assert objective.evaluations - before == 60
        assert state.best_fitness == initial_best
    # After exceeding the stagnation limit every originally selected site has
    # been recycled away from its starting position.
    current = [site.position for site in state.sites]
    for old in positions:
        assert all(not np.array_equal(old, new) for new in current)


def test_boa_patch_shrinks_on_failure():
    config = BoaConfig(stagnation_limit=10)
    objective = Constant()
    state = boa_init(config, objective, seed=3)
    state = boa_cycle(state, config, objective)
    for site in state.sites[: config.selected_sites]:
        assert site.patch_width == pytest.approx(config.initial_patch * config.shrink)
        assert site.stagnation == 1


def test_boa_cycle_keeps_nonselected_sites():
    config = BoaConfig(keep_nonselected=True, stagnation_limit=2)
    objective = Quadratic(dim=3)
    state = boa_init(config, objective, seed=11)
    waited = 0
    for _ in range(12):
        kept = state.sites[config.selected_sites :]
        waiting = sum(math.isinf(site.fitness) for site in kept)
        waited += waiting
        before = objective.evaluations
        after = boa_cycle(state, config, objective)
        assert objective.evaluations - before == 55 + waiting
        for site in kept:
            fitness = objective._value(site.position) if math.isinf(site.fitness) else site.fitness
            assert any(
                np.array_equal(new.position, site.position)
                and (new.fitness, new.stagnation, new.patch_width)
                == (fitness, site.stagnation, site.patch_width)
                for new in after.sites
            )
        state = after
    assert waited > 0


def test_kept_sites_evaluate_their_recycled_position_next_cycle():
    config = BoaConfig(keep_nonselected=True, stagnation_limit=3)
    objective = Quadratic(dim=3)
    state = boa_init(config, objective, seed=17)
    abandoned = 0
    for _ in range(40):
        waiting = [site.position for site in state.sites if math.isinf(site.fitness)]
        state = boa_cycle(state, config, objective)
        now = [site.position for site in state.sites if math.isinf(site.fitness)]
        abandoned += len(now)
        assert not any(np.array_equal(a, b) for a in waiting for b in now)
    assert abandoned > 0


@pytest.mark.parametrize(
    "keep, energy, evaluations",
    [(False, 0.000224494680969457, 2410), (True, 0.00101453011614621, 2221)],
)
def test_boa_trajectory_is_pinned(keep, energy, evaluations):
    config = BoaConfig(keep_nonselected=keep, stagnation_limit=3)
    trace = run_optimization(Quadratic(3), config, seed=17, max_iterations=40, target=1e-12)
    assert trace.records[-1].best_energy == energy
    assert trace.records[-1].evaluations == evaluations


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 7, SEED_LIMIT - 1])
@pytest.mark.parametrize("cycle", [0, 1, 2**32 - 1, 2**32, 2**33 + 5])
def test_site_streams_match_seed_sequence_streams(seed, cycle):
    streams = _site_streams(seed, cycle, 12)
    assert len(streams) == 12
    for index, stream in enumerate(streams):
        reference = np.random.default_rng(np.random.SeedSequence([seed, cycle, index]))
        assert stream.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("width", [0.05, 0.5, np.pi])
def test_draw_matches_uniform_bit_for_bit(width):
    low, high = PARAMETER_BOUNDS
    center = np.array([-3.1, -1.0, 0.0, 0.3, 3.05, high, low])
    box_low = np.maximum(low, center - width)
    box_high = np.minimum(high, center + width)
    [drawn], [reference] = _site_streams(5, 9, 1), _site_streams(5, 9, 1)
    block = np.empty((15, center.size))
    _draw(drawn, block, box_low, box_high)
    expected = reference.uniform(box_low, box_high, block.shape)
    assert block.tobytes() == expected.tobytes()
    _draw(drawn, block[:1], low, high)
    assert block[:1].tobytes() == reference.uniform(low, high, (1, center.size)).tobytes()


def test_run_optimization_boa_quadratic():
    trace = run_optimization(Quadratic(dim=1), BoaConfig(), seed=1, max_iterations=50, target=1e-3)
    assert trace.reached_target
    assert trace.terminated_by is Termination.TARGET_REACHED
    assert trace.records[-1].abs_error <= 1e-3
    iterations = [r.iteration for r in trace.records]
    assert iterations == list(range(1, len(iterations) + 1))
    evaluations = [r.evaluations for r in trace.records]
    assert all(b > a for a, b in zip(evaluations, evaluations[1:]))
    assert trace.best_parameters is not None
    assert abs(trace.best_parameters[0]) ** 2 <= 1e-3


def test_run_optimization_adam_quadratic():
    trace = run_optimization(
        Quadratic(dim=2), AdamConfig(learning_rate=0.1), seed=4,
        max_iterations=300, target=1e-6,
    )
    assert trace.reached_target
    assert trace.records[-1].abs_error <= 1e-6
    assert trace.best_parameters is not None


def test_run_optimization_validation():
    with pytest.raises(ValueError):
        run_optimization(Quadratic(), BoaConfig(), seed=-1)
    with pytest.raises(ValueError):
        run_optimization(Quadratic(), BoaConfig(), seed=1, max_iterations=0)
    with pytest.raises(ValueError):
        run_optimization(Quadratic(), BoaConfig(), seed=1, target=0.0)
    with pytest.raises(TypeError):
        run_optimization(Quadratic(), object(), seed=1)


def test_adam_divergence_carries_partial_trace():
    trace = run_optimization(Explosive(finite_steps=4), AdamConfig(), seed=1, max_iterations=10)
    assert trace.terminated_by is Termination.DIVERGED
    assert not trace.reached_target
    assert [r.iteration for r in trace.records] == [1, 2, 3, 4]
    assert trace.iterations == 4
    assert trace.best_parameters is not None
    best_energy = float(trace.best_parameters[0] ** 2)
    assert quantize15(best_energy) == min(r.best_energy for r in trace.records)


def test_traces_are_deterministic_per_seed():
    def strip(records):
        return [(r.iteration, r.best_energy, r.abs_error, r.evaluations) for r in records]

    a = run_optimization(Quadratic(dim=3), BoaConfig(), seed=17, max_iterations=25, target=1e-12)
    b = run_optimization(Quadratic(dim=3), BoaConfig(), seed=17, max_iterations=25, target=1e-12)
    c = run_optimization(Quadratic(dim=3), BoaConfig(), seed=18, max_iterations=25, target=1e-12)
    assert strip(a.records) == strip(b.records)
    assert strip(a.records) != strip(c.records)
