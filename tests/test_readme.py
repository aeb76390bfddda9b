"""The README's examples run and print what the README says they print."""

import re
import shlex
import shutil
from pathlib import Path

from hive_vqe.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def documented_sessions():
    """Each ``$ hive-vqe ...`` line of a shell block, with the line printed after it."""
    sessions = []
    for block in fenced_blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ hive-vqe "):
                sessions.append((shlex.split(line[2:])[1:], lines[i + 1]))
    return sessions


def test_library_blocks_run():
    blocks = fenced_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_quick_start_prints_documented_output(tmp_path, monkeypatch, capsys):
    sessions = documented_sessions()
    assert [argv[0] for argv, _ in sessions] == ["oracle", "run"]
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv, expected in sessions:
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == expected


def test_diagnose_example_writes_its_files(tmp_path, monkeypatch):
    line = "hive-vqe diagnose --config configs/quickstart.cfg --theta zeros --out diagnose"
    assert any(line in block.splitlines() for block in fenced_blocks("sh"))
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    for name in ("qfim.csv", "hessian.csv", "theta.txt", "spectrum.txt"):
        assert (tmp_path / "diagnose" / name).is_file()
