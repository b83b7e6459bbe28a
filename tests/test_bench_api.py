"""The benchmark drives encorsim through module attributes; every one it
names must exist, or its rounds fail at run time."""
import ast
import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "bench")


def encorsim_names(tree):
    """{local name: module} for each encorsim module the file imports, and
    [(module, attribute)] for every name it imports from one."""
    modules, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "encorsim":
            for alias in node.names:
                try:
                    module = importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    imported.append((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = module
    return modules, imported


def missing_attributes(name):
    """The encorsim attributes that bench/`name` names and that do not
    exist."""
    with open(os.path.join(BENCH, name), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    modules, imported = encorsim_names(tree)
    assert modules  # the file still imports encorsim modules
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in modules:
            module = modules[node.value.id]
            if not hasattr(module, node.attr):
                missing.append(f"{module.__name__}.{node.attr}")
    return sorted(set(missing))


def test_bench_workloads_reference_only_existing_attributes():
    missing = missing_attributes("workloads.py")
    assert not missing, f"bench/workloads.py references {missing}"


def test_bench_tracing_references_only_existing_attributes():
    # its targets are read when it is imported, by every bench run
    missing = missing_attributes("tracing.py")
    assert not missing, f"bench/tracing.py references {missing}"
