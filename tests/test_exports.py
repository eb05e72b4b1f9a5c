"""The package's lazy public namespace and the names the benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import rgg_spectra

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_exported_name_resolves():
    for name in rgg_spectra.__all__:
        assert getattr(rgg_spectra, name) is not None, name


def test_benchmark_wrapped_functions_resolve():
    # the traced benchmark run patches each (module, function) of WRAPPED
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, function, _, _ in spans.WRAPPED:
        mod = importlib.import_module(f"{spans.PACKAGE}.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
