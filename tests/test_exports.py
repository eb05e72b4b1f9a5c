"""The package's lazy public namespace and the benchmark's hooks into it."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import rgg_spectra

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "rgg_spectra"
PERFBENCH = ROOT / "perfbench"
SCRIPTS = ROOT / "scripts"
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


def used_names(path):
    """Every name a module reads: loaded variables, attributes, imported
    names and string constants (the benchmark's WRAPPED table names the
    functions it patches as strings)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_exported_name_has_a_caller():
    # __init__.py holds the export table and the constants it defines, so
    # a name listed there and used nowhere else is dead public surface;
    # the other test modules do not count as callers
    callers = [path for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.name != "__init__.py"]
    callers += sorted(SCRIPTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(used_names, callers))
    assert sorted(set(rgg_spectra.__all__) - used) == []


def test_no_module_imports_a_name_it_never_uses():
    for path in sorted(PACKAGE_DIR.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, loaded = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # `import a.b` binds `a`
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        assert sorted(imported - loaded) == [], path.name


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


def named_calls(name):
    """(module.function, call node) of every call of a function or method
    called `name` in the package."""
    calls = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        elif isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", getattr(f, "attr", None)) == name:
                calls.append((where, node))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, f"{path.stem}.<module>")
    return calls


def function_imports(module):
    """(function, imported name, line) of every import inside a function of
    a package module, relative names with their dots: `from . import x`
    gives ".x"."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif where and isinstance(node, ast.Import):
            found.extend((where, a.name, node.lineno) for a in node.names)
        elif where and isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module + "." if node.module else "")
            found.extend((where, prefix + a.name, node.lineno) for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse((PACKAGE_DIR / f"{module}.py").read_text()), None)
    return found


def test_cli_imports_numeric_code_only_after_the_thread_pin():
    # `--threads` pins BLAS only if nothing numeric loads before
    # _apply_threads: main imports the handlers' module once, after the
    # pin, and that module imports everything at its top
    imports = function_imports("cli")
    assert [(where, name) for where, name, _ in imports] == [("main", "._commands")]
    pin = next(node.lineno for where, node in named_calls("_apply_threads")
               if where == "cli.main")
    assert pin < imports[0][2]
    assert function_imports("_commands") == []
    roots = set()
    for node in ast.parse((PACKAGE_DIR / "cli.py").read_text()).body:
        if isinstance(node, ast.Import):
            roots |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("." * node.level + (node.module or ""))
    assert sorted(roots - sys.stdlib_module_names) == [".", ".errors"]


def open_calls():
    """(module.function, mode) of every open() or x.open() call in the
    package; mode is the literal mode argument, "r" when it is left out."""
    calls = []
    for where, node in named_calls("open"):
        # builtin open(file, mode) or Path.open(mode)
        f = node.func
        args = node.args[1:] if isinstance(f, ast.Name) else node.args
        mode = next((k.value for k in node.keywords if k.arg == "mode"),
                    args[0] if args else ast.Constant("r"))
        assert isinstance(mode, ast.Constant), f"{where}:{node.lineno}"
        calls.append((where, mode.value))
    return calls


def test_csv_io_goes_through_one_writer_and_one_reader():
    # manifest.json and the SVGs are written by Path.write_text, not open
    calls = open_calls()
    writers = {where for where, mode in calls if set(mode) & set("wax+")}
    readers = {where for where, mode in calls if not set(mode) & set("wax+")}
    assert writers == {"torus._write_csv"}
    assert readers == {"torus._read_csv"}


def test_one_allocator_maps_the_dense_operators():
    # assembly and every triangle copy take their n x n array from
    # laplacian._mapped, whose pages stay untouched until written
    assert [where for where, _ in named_calls("mmap")] == ["laplacian._mapped"]


def test_one_call_parses_csv_text():
    # np.loadtxt allocates the whole body from _read_csv's line count
    assert [where for where, _ in named_calls("loadtxt")] == ["torus._read_csv"]


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


def test_only_laplacian_and_spectra_read_the_triangle():
    # an operator is the upper triangle it owns, whose diagonal tiles hold
    # scratch below the diagonal; only the module that writes it and the
    # one that solves it and sums it in trace_bound may read it
    readers = [path.stem for path in sorted(PACKAGE_DIR.glob("*.py"))
               if "_upper" in used_names(path)]
    assert readers == ["laplacian", "spectra"]
