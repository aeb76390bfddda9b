"""Every name the benchmark tracer wraps exists in the package.

``perfbench/tracer.py`` replaces each ``(module, class, attribute)`` of its
``WRAP_POINTS`` with a timing wrapper in every benchmark process, so a
renamed or deleted function there crashes the whole benchmark.  This only
looks the names up; nothing is wrapped or patched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrap_points_name_package_callables():
    points = load_tracer().WRAP_POINTS
    assert points
    for module_name, class_name, attr, *_ in points:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            # The tracer reads a class attribute from the class's own dict.
            assert attr in vars(owner), f"{module_name}.{class_name}.{attr}"
        assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"


def test_markers_stay_on_the_workload_paths(tmp_path, monkeypatch):
    """The marker points are hit by the commands the benchmark times.

    An untraced benchmark run finds where set-up ends and work begins from
    the marker spans alone, and diagnose builds ``step_ms`` and
    ``evals_per_s`` from the Hessian's gradient calls.  A refactor that moves
    one of these calls off its module global would leave the benchmark
    measuring nothing, so each marker is counted here on a 4x4 swarm run, a
    4x4 Adam run and a 4x4 diagnose.
    """
    from hive_vqe.cli import main

    calls = {}
    for module_name, class_name, attr, name, *_, marker in load_tracer().WRAP_POINTS:
        if not marker:
            continue
        assert class_name is None, name
        owner = importlib.import_module(module_name)

        def counted(*args, _original=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    def run(label, command, text):
        calls.clear()
        config = tmp_path / f"{label}.cfg"
        config.write_text("qubits = 4\ndepth = 4\nboundary = closed\n" + text)
        code = main([command, "--config", str(config), "--out", str(tmp_path / label)])
        assert code in (0, 4), label
        return dict(calls)

    for optimizer in ("boa", "adam"):
        counts = run(optimizer, "run", f"optimizer = {optimizer}\nmax_iterations = 20\n"
                     "optimizer.adam.restarts = 2\n")
        assert counts.get("optimizers.run_optimization", 0) >= 1, optimizer
    counts = run("diagnose", "diagnose", "")
    params = 8
    assert counts.get("diagnostics.qfim") == 1
    assert counts.get("diagnostics.energy_gradient") == 2 * params
    assert counts.get("harness.write_matrix_csv", 0) >= 1
