"""One benchmark process: set up, run one workload once, check its outputs.

Started by run.py with a JSON job as its only argument and the BLAS thread
pin already in its environment, so numpy starts with the pinned count.
Prints one JSON object as its last line of standard output.

Job modes:
  setup  set up and report the set-up time only;
  run    also run the workload untraced and time it;
  trace  run it with layer spans (tracemalloc inside assembly only) and
         derive the per-layer metrics from them.
"""

from __future__ import annotations

import json
import os
import sys
import time

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OPENBLAS_GET_THREADS = ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def effective_blas_threads() -> int:
    """Thread count the loaded OpenBLAS reports, read back through ctypes."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_GET_THREADS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    raise RuntimeError("no loaded OpenBLAS exports a get_num_threads function")


def provenance(threads: int) -> dict:
    import platform
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads_effective": threads}


def set_up(pin: int) -> dict:
    """Imports, thread check and warm-up: everything a run pays up front."""
    for var in BLAS_ENV:
        if os.environ.get(var) != str(pin):
            raise RuntimeError(f"{var} is {os.environ.get(var)!r}, not the pin {pin}")
    import numpy as np

    import rgg_spectra.analytic
    import rgg_spectra.cli
    import rgg_spectra.graphs
    import rgg_spectra.laplacian
    import rgg_spectra.specdim
    import rgg_spectra.spectra
    import rgg_spectra.torus  # noqa: F401
    import workloads  # noqa: F401

    threads = effective_blas_threads()
    if threads != pin:
        raise RuntimeError(f"BLAS runs {threads} threads, pinned to {pin}")
    a = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0
    np.linalg.eigvalsh(a + a.T)
    return provenance(threads)


def run_workload(job: dict) -> dict:
    import contextlib
    import resource

    import spans
    import workloads

    w = workloads.WORKLOADS[job["workload"]]
    params = w.params(job["seed"])
    os.makedirs(job["workdir"])
    out: dict = {"params": params}
    # the CLI prints its estimates; keep stdout for the result line
    with contextlib.redirect_stdout(sys.stderr):
        if job["mode"] == "trace":
            tracer = spans.Tracer(f"{job['workload']}-seed{job['seed']}-traced")
            spans.install(tracer)
            result, root = tracer.root(
                "bench.workload", lambda: w.run(params, job["workdir"]))
        else:
            before = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            result = w.run(params, job["workdir"])
            out["wall_s"] = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
            out["cpu_s"] = (after.ru_utime - before.ru_utime
                            + after.ru_stime - before.ru_stime)
            out["peak_rss_mb"] = after.ru_maxrss / 1024.0
        out["problems"] = w.check(params, result, job["seed"])
    if job["mode"] == "trace":
        out["layers"] = spans.layer_metrics(tracer.spans, root)
        with open(job["spans_path"], "w") as fh:
            json.dump({"run": tracer.run_id, "spans": tracer.spans}, fh)
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    report: dict = {"ok": False}
    try:
        report["provenance"] = set_up(job["pin"])
        report["setup_s"] = time.monotonic() - job["spawned"]
        if job["mode"] != "setup":
            report.update(run_workload(job))
        report["ok"] = not report.get("problems")
    except Exception as exc:  # reported to the parent, which counts a failure
        import traceback

        traceback.print_exc()
        report["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
