"""Dotted-key parsing, defaulting, validation messages, and round trips."""

import re
from pathlib import Path

import numpy as np
import pytest

from hive_vqe.config import (
    CONFIG_KEYS,
    DEFAULT_GRID,
    ConfigError,
    ExperimentConfig,
    config_mapping,
    experiment_from_mapping,
    load_config,
    parse_config_text,
)
from hive_vqe.hamiltonian import Boundary
from hive_vqe.optimizers import AdamConfig, BoaConfig

SCHEMA_DOC = Path(__file__).resolve().parents[1] / "docs" / "config_schema.md"


def build(text):
    return experiment_from_mapping(parse_config_text(text))


def test_two_line_config_gets_documented_defaults():
    config = build("qubits = 4\ndepth = 4\n")
    assert config.qubits == 4
    assert config.depth == 4
    assert config.h == 1.1
    assert config.boundary is Boundary.CLOSED
    assert config.seed == 1
    assert config.max_iterations == 300
    assert config.target == 1e-6
    assert config.optimizer == "boa"
    assert config.boa.scouts == 10
    assert config.boa.selected_sites == 5
    assert config.boa.elite_sites == 1
    assert config.boa.elite_foragers == 15
    assert config.boa.site_foragers == 10
    assert config.boa.stagnation_limit == 10
    assert config.adam.learning_rate == 0.01
    assert config.adam_restarts == 30
    assert config.sweep_grid == DEFAULT_GRID
    assert config.sweep_optimizers == ("boa",)
    assert config.sweep_seeds == (1, 2, 3, 4, 5)


def test_comments_blanks_and_spacing():
    config = build(
        """
        # experiment shape
        qubits = 6   # inline comment
        depth=10

        boundary = open
        """
    )
    assert (config.qubits, config.depth) == (6, 10)
    assert config.boundary is Boundary.OPEN


def test_dotted_keys_reach_nested_configs():
    config = build(
        "qubits = 4\ndepth = 4\n"
        "optimizer.boa.scouts = 12\n"
        "optimizer.boa.selected_sites = 6\n"
        "optimizer.boa.initial_patch = 0.25\n"
        "optimizer.boa.keep_nonselected = true\n"
        "optimizer.adam.learning_rate = 0.2\n"
        "optimizer.adam.restarts = 7\n"
        "sweep.grid = 4:4, 6:10\n"
        "sweep.optimizers = boa, adam\n"
        "sweep.seeds = 3, 5, 8\n"
    )
    assert config.boa.scouts == 12
    assert config.boa.selected_sites == 6
    assert config.boa.initial_patch == 0.25
    assert config.boa.keep_nonselected is True
    assert config.adam.learning_rate == 0.2
    assert config.adam_restarts == 7
    assert config.sweep_grid == ((4, 4), (6, 10))
    assert config.sweep_optimizers == ("boa", "adam")
    assert config.sweep_seeds == (3, 5, 8)


def test_error_messages_name_the_field():
    with pytest.raises(ConfigError, match="qubits"):
        build("depth = 4\n")
    with pytest.raises(ConfigError, match="depth: expected an integer"):
        build("qubits = 4\ndepth = deep\n")
    with pytest.raises(ConfigError, match="unknown key 'qubitz'"):
        build("qubitz = 4\ndepth = 4\n")
    with pytest.raises(ConfigError, match="boundary"):
        build("qubits = 4\ndepth = 4\nboundary = ring\n")
    with pytest.raises(ConfigError, match="optimizer.boa"):
        build("qubits = 4\ndepth = 4\noptimizer.boa.elite_sites = 9\n")
    with pytest.raises(ConfigError, match="sweep.grid"):
        build("qubits = 4\ndepth = 4\nsweep.grid = 4x4\n")
    with pytest.raises(ConfigError, match="optimizer.boa.keep_nonselected"):
        build("qubits = 4\ndepth = 4\noptimizer.boa.keep_nonselected = maybe\n")


def test_line_level_errors():
    with pytest.raises(ConfigError, match=":2:"):
        parse_config_text("qubits = 4\nnonsense line\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("qubits = 4\nqubits = 5\n")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="qubits"):
        build("qubits = 1\ndepth = 4\n")
    with pytest.raises(ConfigError, match="qubits"):
        build("qubits = 13\ndepth = 4\n")
    with pytest.raises(ConfigError, match="target"):
        build("qubits = 4\ndepth = 4\ntarget = 0\n")
    with pytest.raises(ConfigError, match="optimizer"):
        build("qubits = 4\ndepth = 4\noptimizer = lbfgs\n")
    with pytest.raises(ConfigError, match="sweep.grid"):
        build("qubits = 4\ndepth = 4\nsweep.grid = 44:1\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("sweep.grid = 4:4, 6:10, 4:4", "sweep.grid: repeated cell 4:4"),
        ("sweep.optimizers = boa, adam, BOA", "sweep.optimizers: repeated optimizer 'boa'"),
        ("sweep.seeds = 1, 2, 1", "sweep.seeds: repeated seed 1"),
    ],
)
def test_sweep_refuses_repeated_entries(line, message):
    with pytest.raises(ConfigError) as raised:
        build(f"qubits = 4\ndepth = 4\n{line}\n")
    assert str(raised.value) == message


def test_mapping_round_trip():
    config = build(
        "qubits = 6\ndepth = 10\nh = 0.5\nboundary = open\nseed = 42\n"
        "optimizer = adam\noptimizer.boa.shrink = 0.9\nsweep.seeds = 2, 4\n"
    )
    mapping = {key: str(value) for key, value in config_mapping(config).items()}
    rebuilt = experiment_from_mapping(mapping)
    assert rebuilt == config


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
    path = tmp_path / "ok.cfg"
    path.write_text("qubits = 4\ndepth = 4\n")
    assert load_config(path).qubits == 4


def test_direct_construction_validates():
    with pytest.raises(ConfigError):
        ExperimentConfig(qubits=4, depth=4, sweep_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(qubits=4, depth=4, sweep_optimizers=("genetic",))
    with pytest.raises(ConfigError):
        ExperimentConfig(qubits=4, depth=4, max_iterations=0)


def documented_defaults():
    """``{dotted key: default text}`` read from the tables of the schema doc."""
    documented, prefix = {}, ""
    for line in SCHEMA_DOC.read_text().splitlines():
        if line.startswith("## "):
            section = re.search(r"\(`([\w.]+)\*`\)", line)
            prefix = section.group(1) if section else ""
        row = re.match(r"\| `([\w.]+)` \|[^|]+\| ([^|]+) \|", line)
        if row:
            documented[prefix + row.group(1)] = row.group(2).strip().strip("`")
    return documented


def test_schema_doc_matches_the_key_table():
    documented = documented_defaults()
    assert set(documented) == set(CONFIG_KEYS)
    assert {key for key, text in documented.items() if text == "required"} == {"qubits", "depth"}
    config = ExperimentConfig(qubits=4, depth=4)
    holders = {ExperimentConfig: config, BoaConfig: config.boa, AdamConfig: config.adam}
    for key, text in documented.items():
        if text != "required":
            owner, name, parse, _ = CONFIG_KEYS[key]
            assert parse(key, text) == getattr(holders[owner], name), key
