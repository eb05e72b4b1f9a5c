"""The package's lazy public namespace and the benchmark's hooks into it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import rgg_spectra

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
