"""The package's lazy public namespace and the benchmark's hooks into it."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import rgg_spectra

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "rgg_spectra"
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    for name in rgg_spectra.__all__:
        assert getattr(rgg_spectra, name) is not None, name


def test_export_table_lists_every_public_function_and_class():
    # constants such as INF and DENSE_CAP are left out on both sides
    def is_api(obj):
        return inspect.isfunction(obj) or inspect.isclass(obj)

    for module_name, listed in rgg_spectra._EXPORTS.items():
        module = importlib.import_module(f"rgg_spectra.{module_name}")
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_") and is_api(obj)
                   and obj.__module__ == module.__name__}
        assert defined == {name for name in listed
                           if is_api(getattr(module, name))}, module_name


def test_benchmark_wrapped_functions_resolve():
    # the traced benchmark run patches each (module, function) of WRAPPED
    spans = load("perfbench_spans", SPANS)
    assert spans.WRAPPED
    for module, function, _, _ in spans.WRAPPED:
        mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"


def test_benchmark_graph_check_reads_the_graph_interface(tmp_path):
    # the graph_io_d2 output check reads degrees and per-node adjacency
    w = load("perfbench_workloads", WORKLOADS).GraphIoD2()
    p = {**w.params(1), "n": 2048}
    assert w.check(p, w.run(p, str(tmp_path)), 1) == []


def open_calls():
    """(module.function, mode) of every open() or x.open() call in the
    package; mode is the literal mode argument, "r" when it is left out."""
    calls = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        elif isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", getattr(f, "attr", None)) == "open":
                # builtin open(file, mode) or Path.open(mode)
                args = node.args[1:] if isinstance(f, ast.Name) else node.args
                mode = next((k.value for k in node.keywords if k.arg == "mode"),
                            args[0] if args else ast.Constant("r"))
                assert isinstance(mode, ast.Constant), f"{module}:{node.lineno}"
                calls.append((where, mode.value))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, f"{path.stem}.<module>")
    return calls


def test_csv_io_goes_through_one_writer_and_one_reader():
    # manifest.json and the SVGs are written by Path.write_text, not open
    calls = open_calls()
    writers = {where for where, mode in calls if set(mode) & set("wax+")}
    readers = {where for where, mode in calls if not set(mode) & set("wax+")}
    assert writers == {"torus._write_csv"}
    assert readers == {"torus._read_csv"}


def test_only_spectra_names_the_openblas_symbols():
    # one locator and one thread-count reader: other modules call
    # spectra._blas_threads or spectra's solvers, never the symbols
    private = {"_openblas", "_GET_NUM_THREADS", "_GET_CONFIG", "_DSYEVD_2STAGE"}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem == "spectra":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        assert not named & private, (path.stem, sorted(named & private))
