"""Every public name of the package is reached from outside its own module.

The scan parses ``src/hive_vqe/*.py`` and lists each public top-level
function and class, and each public method and property of a public class.
A name is reached when it is referenced from another package module (the
re-exports of ``__init__`` do not count), from ``perfbench/``, from the
acceptance gate, or from the README's library block.  A class also counts as
reached when a public signature or field of its own module names it, since
callers then receive its instances.  Anything else must be in ``TEST_ONLY``
with the reason a test needs it; otherwise it is dead surface to delete.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hive_vqe"

TEST_ONLY = {
    "ansatz.apply_circuit": "arbitrary input states stay on the statevector; test_ansatz checks them",
    "ansatz.state_derivative": "the one-parameter reference test_ansatz holds derivative_stack to",
    "hamiltonian.walsh_hadamard": "the Hadamard-basis reduction of PauliSum; checked against a dense transform",
    "hamiltonian.Boundary.coupling_count": "build_tfim's bond count; the dense test oracle counts bonds with it",
    "hamiltonian.TfimSpec.coupling_count": "build_tfim's bond count; test_hamiltonian pins it per boundary",
    "hamiltonian.PauliSum.to_dense": "the dense reference the operator and layer tests compare against",
    "harness.write_trace_csv": "save_run's trace writer; test_harness round-trips the pinned format",
    "harness.cell_name": "sweep cell directory names, which the sweep tests look up",
    "harness.worker_count": "HIVE_VQE_THREADS parsing, which test_harness pins",
    "harness.resolve_theta": "the diagnose --theta sources and their errors, which test_harness pins",
    "optimizers.quantize15": "the trace precision rule, which test_optimizers pins",
    "optimizers.BoaConfig.evaluations_per_cycle": "the evaluation accounting test_optimizers checks cycles against",
}


def identifiers(tree):
    """Names, attributes, imported names and string constants in a tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def is_public(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_names(tree):
    """``{qualified name: bare name}`` of the public definitions of a module."""
    names = {}
    for node in filter(is_public, tree.body):
        names[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for item in filter(is_public, node.body):
                names[f"{node.name}.{item.name}"] = item.name
    return names


def signature_names(tree):
    """Names used in the annotations of public functions, methods and fields."""
    annotations = []
    for node in filter(is_public, tree.body):
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *filter(is_public, members)]:
            if isinstance(item, ast.FunctionDef):
                args = item.args
                every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                annotations += [arg.annotation for arg in every if arg and arg.annotation]
                annotations.append(item.returns)
        annotations += [item.annotation for item in members if isinstance(item, ast.AnnAssign)]
    return {
        node.id for annotation in annotations if annotation
        for node in ast.walk(annotation) if isinstance(node, ast.Name)
    }


def outside_references():
    sources = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text())
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    return set().union(*(identifiers(ast.parse(source)) for source in sources))


def package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def unreached(sources):
    """Qualified public names that nothing outside their module references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    seen_by = {module: identifiers(tree) for module, tree in trees.items()}
    outside = outside_references()
    missing = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        reached = outside.union(
            *(seen for other, seen in seen_by.items() if other not in (module, "__init__"))
        )
        own_types = signature_names(tree)
        for qualified, name in public_names(tree).items():
            if name not in reached and qualified not in own_types:
                missing.append(f"{module}.{qualified}")
    return missing


def test_every_public_name_is_reached_or_listed():
    missing = [name for name in unreached(package_sources()) if name not in TEST_ONLY]
    assert missing == [], "public names nothing reaches; delete them or list them in TEST_ONLY"


def test_test_only_entries_name_live_code_that_tests_use():
    trees = {module: ast.parse(source) for module, source in package_sources().items()}
    test_refs = set().union(
        *(identifiers(ast.parse(path.read_text())) for path in (ROOT / "tests").glob("*.py"))
    )
    unreached_names = set(unreached(package_sources()))
    for entry in TEST_ONLY:
        module, qualified = entry.split(".", 1)
        name = public_names(trees[module]).get(qualified)
        assert name is not None, f"{entry} no longer exists"
        assert name in test_refs, f"no test references {entry}"
        assert entry in unreached_names, f"{entry} is reached outside the tests; drop it from TEST_ONLY"


def test_guard_flags_an_unreferenced_function():
    sources = package_sources()
    sources["statevector"] += (
        "\n\ndef inner_product(a, b):\n    return complex(np.vdot(a.amplitudes, b.amplitudes))\n"
    )
    assert "statevector.inner_product" in unreached(sources)
