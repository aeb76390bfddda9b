"""Flat dotted-key experiment configuration with total defaulting.

A config file is plain text: one ``key = value`` per line, ``#`` comments,
keys dotted (``optimizer.boa.scouts = 10``).  Only ``qubits`` and ``depth``
are required; every other key has a documented default, so a two-line config
is runnable.  The full key table lives in docs/config_schema.md (schema
version 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hive_vqe.hamiltonian import MAX_QUBITS, MIN_QUBITS, Boundary
from hive_vqe.optimizers import AdamConfig, BoaConfig

SCHEMA_VERSION = 1

DEFAULT_GRID: tuple[tuple[int, int], ...] = ((4, 4), (6, 10), (8, 14), (10, 22))

OPTIMIZER_NAMES = ("boa", "adam")


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell plus optimizer settings and the sweep plan."""

    qubits: int
    depth: int
    h: float = 1.1
    boundary: Boundary = Boundary.CLOSED
    seed: int = 1
    max_iterations: int = 300
    target: float = 1e-6
    optimizer: str = "boa"
    boa: BoaConfig = field(default_factory=BoaConfig)
    adam: AdamConfig = field(default_factory=AdamConfig)
    adam_restarts: int = 30
    sweep_grid: tuple[tuple[int, int], ...] = DEFAULT_GRID
    sweep_optimizers: tuple[str, ...] = ("boa",)
    sweep_seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self) -> None:
        if not MIN_QUBITS <= self.qubits <= MAX_QUBITS:
            raise ConfigError(f"qubits: expected {MIN_QUBITS}..{MAX_QUBITS}, got {self.qubits}")
        if self.depth < 1:
            raise ConfigError(f"depth: expected a positive integer, got {self.depth}")
        if not np.isfinite(self.h):
            raise ConfigError(f"h: expected a finite number, got {self.h}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed: expected an unsigned 64-bit integer, got {self.seed}")
        if self.max_iterations < 1:
            raise ConfigError(
                f"max_iterations: expected a positive integer, got {self.max_iterations}"
            )
        if not self.target > 0:
            raise ConfigError(f"target: expected a positive number, got {self.target}")
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ConfigError(
                f"optimizer: expected one of {'/'.join(OPTIMIZER_NAMES)}, got {self.optimizer!r}"
            )
        if self.adam_restarts < 1:
            raise ConfigError(
                f"optimizer.adam.restarts: expected a positive integer, got {self.adam_restarts}"
            )
        if not self.sweep_grid:
            raise ConfigError("sweep.grid: expected at least one qubits:depth cell")
        for n, depth in self.sweep_grid:
            if not MIN_QUBITS <= n <= MAX_QUBITS or depth < 1:
                raise ConfigError(f"sweep.grid: invalid cell {n}:{depth}")
        if not self.sweep_optimizers:
            raise ConfigError("sweep.optimizers: expected at least one optimizer")
        for name in self.sweep_optimizers:
            if name not in OPTIMIZER_NAMES:
                raise ConfigError(
                    f"sweep.optimizers: expected one of {'/'.join(OPTIMIZER_NAMES)}, got {name!r}"
                )
        if not self.sweep_seeds:
            raise ConfigError("sweep.seeds: expected at least one seed")
        for s in self.sweep_seeds:
            if not 0 <= s < 2**64:
                raise ConfigError(f"sweep.seeds: expected unsigned 64-bit integers, got {s}")


def _parse_int(field_path: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{field_path}: expected an integer, got {value!r}") from None


def _parse_float(field_path: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{field_path}: expected a number, got {value!r}") from None


def _parse_bool(field_path: str, value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{field_path}: expected true or false, got {value!r}")


def _parse_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _parse_grid(field_path: str, value: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for item in _parse_list(value):
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(
                f"{field_path}: expected qubits:depth pairs like 4:4, got {item!r}"
            )
        cells.append((_parse_int(field_path, parts[0]), _parse_int(field_path, parts[1])))
    if not cells:
        raise ConfigError(f"{field_path}: expected at least one qubits:depth cell")
    return tuple(cells)


def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Split dotted-key lines into a raw string mapping, rejecting duplicates."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


_TOP_LEVEL_KEYS = {
    "qubits", "depth", "h", "boundary", "seed", "max_iterations", "target", "optimizer",
}
_BOA_KEYS = {
    "scouts", "selected_sites", "elite_sites", "elite_foragers", "site_foragers",
    "stagnation_limit", "initial_patch", "shrink", "keep_nonselected",
}
_ADAM_KEYS = {"learning_rate", "beta1", "beta2", "eps", "restarts"}
_SWEEP_KEYS = {"grid", "optimizers", "seeds"}


def experiment_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a validated config from a raw dotted-key mapping."""
    known = set(_TOP_LEVEL_KEYS)
    known |= {f"optimizer.boa.{k}" for k in _BOA_KEYS}
    known |= {f"optimizer.adam.{k}" for k in _ADAM_KEYS}
    known |= {f"sweep.{k}" for k in _SWEEP_KEYS}
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown key {key!r}")
    for required in ("qubits", "depth"):
        if required not in mapping:
            raise ConfigError(f"{required}: required key is missing")

    values: dict[str, object] = {
        "qubits": _parse_int("qubits", mapping["qubits"]),
        "depth": _parse_int("depth", mapping["depth"]),
    }
    if "h" in mapping:
        values["h"] = _parse_float("h", mapping["h"])
    if "boundary" in mapping:
        try:
            values["boundary"] = Boundary.parse(mapping["boundary"])
        except ValueError as exc:
            raise ConfigError(f"boundary: {exc}") from None
    if "seed" in mapping:
        values["seed"] = _parse_int("seed", mapping["seed"])
    if "max_iterations" in mapping:
        values["max_iterations"] = _parse_int("max_iterations", mapping["max_iterations"])
    if "target" in mapping:
        values["target"] = _parse_float("target", mapping["target"])
    if "optimizer" in mapping:
        values["optimizer"] = mapping["optimizer"].strip().lower()

    boa_kwargs: dict[str, object] = {}
    for key in sorted(_BOA_KEYS):
        path = f"optimizer.boa.{key}"
        if path not in mapping:
            continue
        if key in ("initial_patch", "shrink"):
            boa_kwargs[key] = _parse_float(path, mapping[path])
        elif key == "keep_nonselected":
            boa_kwargs[key] = _parse_bool(path, mapping[path])
        else:
            boa_kwargs[key] = _parse_int(path, mapping[path])
    try:
        values["boa"] = BoaConfig(**boa_kwargs)
    except ValueError as exc:
        raise ConfigError(f"optimizer.boa: {exc}") from None

    adam_kwargs: dict[str, object] = {}
    for key in ("learning_rate", "beta1", "beta2", "eps"):
        path = f"optimizer.adam.{key}"
        if path in mapping:
            adam_kwargs[key] = _parse_float(path, mapping[path])
    try:
        values["adam"] = AdamConfig(**adam_kwargs)
    except ValueError as exc:
        raise ConfigError(f"optimizer.adam: {exc}") from None
    if "optimizer.adam.restarts" in mapping:
        values["adam_restarts"] = _parse_int(
            "optimizer.adam.restarts", mapping["optimizer.adam.restarts"]
        )

    if "sweep.grid" in mapping:
        values["sweep_grid"] = _parse_grid("sweep.grid", mapping["sweep.grid"])
    if "sweep.optimizers" in mapping:
        names = tuple(name.lower() for name in _parse_list(mapping["sweep.optimizers"]))
        values["sweep_optimizers"] = names
    if "sweep.seeds" in mapping:
        values["sweep_seeds"] = tuple(
            _parse_int("sweep.seeds", item) for item in _parse_list(mapping["sweep.seeds"])
        )

    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return experiment_from_mapping(parse_config_text(text, source=str(path)))


def with_overrides(
    config: ExperimentConfig,
    seed: int | None = None,
    qubits: int | None = None,
    depth: int | None = None,
    optimizer: str | None = None,
) -> ExperimentConfig:
    """Copy a config with selected fields replaced (used by CLI flags and sweeps)."""
    changes: dict[str, object] = {}
    if seed is not None:
        changes["seed"] = seed
    if qubits is not None:
        changes["qubits"] = qubits
    if depth is not None:
        changes["depth"] = depth
    if optimizer is not None:
        changes["optimizer"] = optimizer
    return replace(config, **changes) if changes else config


def config_mapping(config: ExperimentConfig) -> dict[str, object]:
    """Flatten a config back to its dotted-key form (for artifacts)."""
    out: dict[str, object] = {
        "qubits": config.qubits,
        "depth": config.depth,
        "h": config.h,
        "boundary": config.boundary.value,
        "seed": config.seed,
        "max_iterations": config.max_iterations,
        "target": config.target,
        "optimizer": config.optimizer,
        "optimizer.adam.restarts": config.adam_restarts,
        "sweep.grid": ", ".join(f"{n}:{d}" for n, d in config.sweep_grid),
        "sweep.optimizers": ", ".join(config.sweep_optimizers),
        "sweep.seeds": ", ".join(str(s) for s in config.sweep_seeds),
    }
    for key in sorted(_BOA_KEYS):
        out[f"optimizer.boa.{key}"] = getattr(config.boa, key)
    for key in ("learning_rate", "beta1", "beta2", "eps"):
        out[f"optimizer.adam.{key}"] = getattr(config.adam, key)
    return out
