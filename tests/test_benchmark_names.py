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
