"""Flat dotted-key experiment configuration with total defaulting.

A config file is plain text: one ``key = value`` per line, ``#`` comments,
keys dotted (``optimizer.boa.scouts = 10``).  Only ``qubits`` and ``depth``
are required; every other key has a documented default, so a two-line config
is runnable.  The full key table lives in docs/config_schema.md (schema
version 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from hive_vqe.hamiltonian import MAX_QUBITS, MIN_QUBITS, Boundary
from hive_vqe.optimizers import SEED_LIMIT, AdamConfig, BoaConfig

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
        if not 0 <= self.seed < SEED_LIMIT:
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
        # A repeated entry would run one cell directory twice and count it twice.
        for i, (n, depth) in enumerate(self.sweep_grid):
            if not MIN_QUBITS <= n <= MAX_QUBITS or depth < 1:
                raise ConfigError(f"sweep.grid: invalid cell {n}:{depth}")
            if (n, depth) in self.sweep_grid[:i]:
                raise ConfigError(f"sweep.grid: repeated cell {n}:{depth}")
        if not self.sweep_optimizers:
            raise ConfigError("sweep.optimizers: expected at least one optimizer")
        for i, name in enumerate(self.sweep_optimizers):
            if name not in OPTIMIZER_NAMES:
                raise ConfigError(
                    f"sweep.optimizers: expected one of {'/'.join(OPTIMIZER_NAMES)}, got {name!r}"
                )
            if name in self.sweep_optimizers[:i]:
                raise ConfigError(f"sweep.optimizers: repeated optimizer {name!r}")
        if not self.sweep_seeds:
            raise ConfigError("sweep.seeds: expected at least one seed")
        for i, s in enumerate(self.sweep_seeds):
            if not 0 <= s < SEED_LIMIT:
                raise ConfigError(f"sweep.seeds: expected unsigned 64-bit integers, got {s}")
            if s in self.sweep_seeds[:i]:
                raise ConfigError(f"sweep.seeds: repeated seed {s}")


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


def _parse_boundary(field_path: str, value: str) -> Boundary:
    try:
        return Boundary.parse(value)
    except ValueError as exc:
        raise ConfigError(f"{field_path}: {exc}") from None


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


# Each key's dataclass, field, parser (called as ``parser(key, text)``) and
# run.json formatter (None: the value as is).  Key checks, parsing and
# config_mapping all read it.
CONFIG_KEYS: dict[str, tuple[type, str, Callable[[str, str], Any], Callable | None]] = {
    "qubits": (ExperimentConfig, "qubits", _parse_int, None),
    "depth": (ExperimentConfig, "depth", _parse_int, None),
    "h": (ExperimentConfig, "h", _parse_float, None),
    "boundary": (ExperimentConfig, "boundary", _parse_boundary, lambda b: b.value),
    "seed": (ExperimentConfig, "seed", _parse_int, None),
    "max_iterations": (ExperimentConfig, "max_iterations", _parse_int, None),
    "target": (ExperimentConfig, "target", _parse_float, None),
    "optimizer": (ExperimentConfig, "optimizer", lambda _, text: text.strip().lower(), None),
    "optimizer.boa.scouts": (BoaConfig, "scouts", _parse_int, None),
    "optimizer.boa.selected_sites": (BoaConfig, "selected_sites", _parse_int, None),
    "optimizer.boa.elite_sites": (BoaConfig, "elite_sites", _parse_int, None),
    "optimizer.boa.elite_foragers": (BoaConfig, "elite_foragers", _parse_int, None),
    "optimizer.boa.site_foragers": (BoaConfig, "site_foragers", _parse_int, None),
    "optimizer.boa.stagnation_limit": (BoaConfig, "stagnation_limit", _parse_int, None),
    "optimizer.boa.initial_patch": (BoaConfig, "initial_patch", _parse_float, None),
    "optimizer.boa.shrink": (BoaConfig, "shrink", _parse_float, None),
    "optimizer.boa.keep_nonselected": (BoaConfig, "keep_nonselected", _parse_bool, None),
    "optimizer.adam.learning_rate": (AdamConfig, "learning_rate", _parse_float, None),
    "optimizer.adam.beta1": (AdamConfig, "beta1", _parse_float, None),
    "optimizer.adam.beta2": (AdamConfig, "beta2", _parse_float, None),
    "optimizer.adam.eps": (AdamConfig, "eps", _parse_float, None),
    "optimizer.adam.restarts": (ExperimentConfig, "adam_restarts", _parse_int, None),
    "sweep.grid": (
        ExperimentConfig, "sweep_grid", _parse_grid,
        lambda grid: ", ".join(f"{n}:{d}" for n, d in grid),
    ),
    "sweep.optimizers": (
        ExperimentConfig, "sweep_optimizers",
        lambda _, text: tuple(name.lower() for name in _parse_list(text)), ", ".join,
    ),
    "sweep.seeds": (
        ExperimentConfig, "sweep_seeds",
        lambda key, text: tuple(_parse_int(key, item) for item in _parse_list(text)),
        lambda seeds: ", ".join(str(s) for s in seeds),
    ),
}

# The ExperimentConfig field that holds each optimizer's sub-config.
_SECTIONS = {BoaConfig: "boa", AdamConfig: "adam"}


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


def experiment_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a validated config from a raw dotted-key mapping."""
    for key in mapping:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    for required in ("qubits", "depth"):
        if required not in mapping:
            raise ConfigError(f"{required}: required key is missing")
    fields: dict[type, dict[str, Any]] = {ExperimentConfig: {}, BoaConfig: {}, AdamConfig: {}}
    for key, (owner, name, parse, _) in CONFIG_KEYS.items():
        if key in mapping:
            fields[owner][name] = parse(key, mapping[key])
    values = fields.pop(ExperimentConfig)
    for owner, kwargs in fields.items():
        section = _SECTIONS[owner]
        try:
            values[section] = owner(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"optimizer.{section}: {exc}") from None
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return experiment_from_mapping(parse_config_text(text, source=str(path)))


def config_mapping(config: ExperimentConfig) -> dict[str, object]:
    """Flatten a config back to its dotted-key form (for artifacts)."""
    out: dict[str, object] = {}
    for key, (owner, name, _, fmt) in CONFIG_KEYS.items():
        holder = getattr(config, _SECTIONS[owner]) if owner in _SECTIONS else config
        value = getattr(holder, name)
        out[key] = fmt(value) if fmt else value
    return out
