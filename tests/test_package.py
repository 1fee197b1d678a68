"""Package layout: the production modules never reach the test oracles,
build transition kernels in one place and take the backward step in two,
the public API is one sorted list of names that resolve, and the names the
benchmark harness uses exist."""
import ast
from pathlib import Path

import pytest

import dvpsched
import dvpsched.cli  # the benchmark imports it by name, as here

PACKAGE = Path(dvpsched.__file__).resolve().parent
PRODUCTION = ("cli", "dvp", "mdp", "model", "semistatic", "sim")

# what bench/ reaches into, as dotted paths under the package
BENCH_NAMES = (
    "semistatic.solve_relaxed",
    "semistatic.round_nearest",
    "semistatic.neighbor_search",
    "semistatic.e_dvpub",
    "semistatic.opt",
    "semistatic.wtb_w",
    "mdp.value_iteration",
    "mdp.TransitionKernel",
    "mdp.baseline_actions",
    "cli.SweepSpec",
    "cli.run_sweep",
    "ScenarioConfig",
    "Schedule",
    "exact_dvp_enum",
)


def imported_names(tree: ast.Module):
    """Every module and name an import statement of tree names, relative
    modules without their dots (`from .oracles import wtb` gives "oracles"
    and "wtb")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_oracles(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for name in imported_names(tree):
        assert "oracles" not in name.split("."), f"{module}.py imports {name}"


def test_only_the_cache_builds_a_kernel():
    callers = []
    for module in PRODUCTION:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "TransitionKernel"
                ):
                    callers.append(f"{module}.{getattr(stmt, 'name', '<module>')}")
    assert callers == ["mdp.transition_kernel"]


def calls_by_function(attr: str):
    """module.function (or module.Class.method) of every call of a method
    named attr in the production modules."""
    for module in PRODUCTION:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == attr:
                    yield f"{module}.{node.name}"


def test_no_function_takes_a_kernel():
    # every evaluator gets its kernel from mdp.transition_kernel(config)
    for module in PRODUCTION:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                    annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                    assert arg.arg != "kernel", f"{module}.{node.name}"
                    assert "TransitionKernel" not in annotation, f"{module}.{node.name}"


def test_one_violation_recursion():
    # the backward step serves value iteration and the violation-to-go only
    assert sorted(set(calls_by_function("backward"))) == [
        "mdp.value_iteration", "mdp.violation_to_go"
    ]


def test_all_is_sorted_unique_and_resolves():
    names = dvpsched.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(dvpsched, name), name


def test_oracles_stay_out_of_the_public_api_but_one():
    from dvpsched import oracles

    own = {
        name
        for name, obj in vars(oracles).items()
        if getattr(obj, "__module__", None) == oracles.__name__
    }
    assert own & set(dvpsched.__all__) == {"exact_dvp_enum"}


@pytest.mark.parametrize("path", BENCH_NAMES)
def test_benchmark_names_resolve(path):
    obj = dvpsched
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_benchmark_reads_the_kernel_and_the_table():
    config = dvpsched.ScenarioConfig(N=2, p_e=0.5, w=2, y=1, x1=0, x2=0)
    # the tracer reads kernel.P.nbytes: the link-2 stack, (N + 1) x (q2_max + 1)^2
    assert dvpsched.mdp.TransitionKernel(config).P.shape == (3, 2, 2)
    assert dvpsched.mdp.value_iteration(config).action(0, 1, 0) in range(3)
