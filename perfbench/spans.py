"""Spans around the public functions of each rgg_spectra module.

The traced run wraps layer functions from outside the package: every
module namespace that binds a wrapped function gets the wrapper, so a
call such as `spectra.build_rgg(...)` (bound by `from .graphs import
build_rgg`) is seen as well as `graphs.build_rgg(...)`.  Spans are kept
in memory and turned into per-layer metrics once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "start": 0.0, "end": 0.0, "counts": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def root(self, name: str, fn):
        """Run fn() inside a root span; returns (result, span)."""
        first = len(self.spans)
        return self.wrap(name, fn)(), self.spans[first]

    def wrap(self, name: str, fn, counts=None, peak_memory=False):
        """Wrapper recording a span; counts(args, kwargs, result) -> dict.

        With peak_memory, tracemalloc runs only for the duration of the call
        and the span records the peak bytes it traced.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            if peak_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                if peak_memory:
                    span["counts"]["traced_peak_bytes"] = \
                        tracemalloc.get_traced_memory()[1]
            finally:
                if peak_memory:
                    tracemalloc.stop()
                self._close(span)
            if counts is not None:
                span["counts"].update(counts(args, kwargs, result))
            return result
        return wrapper


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _graph_edges(args, kwargs, g):
    return {"edges": int(g.degrees.sum()) // 2}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _order(args, kwargs, result):
    return {"n": result.n}


def _walker_steps(args, kwargs, freq):
    t_max = _arg(args, kwargs, 1, "t_max")
    walkers = _arg(args, kwargs, 2, "walkers")
    return {"walker_steps": int(t_max) * int(walkers)}


def _cli_output(args, kwargs, code):
    # data files only: manifest.json records the wall time and the --out
    # path, so its size is not a count of work
    argv = list(_arg(args, kwargs, 0, "argv"))
    out = argv[argv.index("--out") + 1]
    return {"bytes": sum(e.stat().st_size for e in os.scandir(out)
                         if e.is_file() and e.name != "manifest.json")}


# (module, function, counts hook, trace allocations); the span is named
# "<module>.<function>".
WRAPPED = [
    ("torus", "sample_uniform_points", None, False),
    ("torus", "write_points_csv", None, False),
    ("torus", "read_points_csv", None, False),
    ("graphs", "build_rgg", _graph_edges, False),
    ("graphs", "build_dgg", _graph_edges, False),
    ("graphs", "write_graph_csv", _csv_bytes, False),
    ("graphs", "read_graph_csv", None, False),
    ("laplacian", "assemble_rgg_laplacian", _order, True),
    ("laplacian", "assemble_dgg_laplacian", _order, True),
    ("spectra", "full_spectrum", _order, False),
    ("spectra", "levy_distance", None, False),
    ("spectra", "convergence_study", None, False),
    ("analytic", "analytic_spectrum", None, False),
    ("specdim", "default_heat_grid", None, False),
    ("specdim", "heat_trace", None, False),
    ("specdim", "estimate_ds_from_spectrum", None, False),
    ("specdim", "estimate_ds_from_heat_trace", None, False),
    ("specdim", "estimate_ds_from_mc", None, False),
    ("specdim", "mc_return_probability", _walker_steps, False),
    ("cli", "main", _cli_output, False),
]

PACKAGE = "rgg_spectra"


def install(tracer: Tracer) -> None:
    """Replace each wrapped function in every package namespace binding it."""
    for mod_name, fn_name, counts, peak_memory in WRAPPED:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        original = getattr(module, fn_name)
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original, counts,
                              peak_memory)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], root: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed by metric name.

    Times are summed span durations; self times subtract the durations of
    direct child spans.  Counts are exact; the `_computed` ones are derived
    from problem sizes, not measured.
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def total(*names):
        return sum(_duration(s) for n in names for s in by_name.get(n, []))

    def self_time(name):
        return sum(_duration(s) - sum(_duration(c) for c in children.get(s["id"], []))
                   for s in by_name.get(name, []))

    def counted(names, key):
        return [s["counts"][key] for n in names for s in by_name.get(n, [])]

    assemble = ("laplacian.assemble_rgg_laplacian",
                "laplacian.assemble_dgg_laplacian")
    built = ("graphs.build_rgg", "graphs.build_dgg")
    assembled_n = counted(assemble, "n")
    peaks = counted(assemble, "traced_peak_bytes")
    solved_n = counted(("spectra.full_spectrum",), "n")
    wall = _duration(root)
    top = sum(_duration(c) for c in children.get(root["id"], []))
    return {
        "torus.sample_s": total("torus.sample_uniform_points"),
        "torus.points_csv_s": total("torus.write_points_csv",
                                    "torus.read_points_csv"),
        "graphs.build_rgg_s": total("graphs.build_rgg"),
        "graphs.build_dgg_s": total("graphs.build_dgg"),
        "graphs.graph_csv_write_s": total("graphs.write_graph_csv"),
        "graphs.graph_csv_read_s": total("graphs.read_graph_csv"),
        "graphs.edges_built": sum(counted(built, "edges")),
        "graphs.csv_bytes": sum(counted(("graphs.write_graph_csv",), "bytes")),
        "laplacian.assemble_s": total(*assemble),
        "laplacian.assemble_calls": len(assembled_n),
        "laplacian.assemble_peak_ratio": max(
            (p / (8.0 * n * n) for p, n in zip(peaks, assembled_n)), default=0.0),
        "laplacian.matrix_bytes_computed": sum(8 * n * n for n in assembled_n),
        "spectra.eigensolve_s": total("spectra.full_spectrum"),
        "spectra.eigensolve_calls": len(solved_n),
        "spectra.eigensolve_n3_sum_computed": sum(n ** 3 for n in solved_n),
        "spectra.levy_s": total("spectra.levy_distance"),
        "spectra.levy_calls": len(by_name.get("spectra.levy_distance", [])),
        "spectra.study_self_s": self_time("spectra.convergence_study"),
        "analytic.spectrum_s": total("analytic.analytic_spectrum"),
        "specdim.heat_s": total("specdim.default_heat_grid", "specdim.heat_trace"),
        "specdim.fit_s": total("specdim.estimate_ds_from_spectrum",
                               "specdim.estimate_ds_from_heat_trace",
                               "specdim.estimate_ds_from_mc"),
        "specdim.mc_walk_s": total("specdim.mc_return_probability"),
        "specdim.mc_walker_steps": sum(counted(("specdim.mc_return_probability",),
                                               "walker_steps")),
        "cli.self_s": self_time("cli.main"),
        "cli.output_bytes": sum(counted(("cli.main",), "bytes")),
        "trace.wall_s": wall,
        "trace.top_span_coverage": top / wall if wall > 0 else 0.0,
    }
