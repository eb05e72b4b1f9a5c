"""Spectral toolkit for geometric graphs on the unit torus.

Submodules are imported lazily so the command-line driver can pin BLAS
thread counts before numpy loads.
"""

import importlib

__version__ = "0.1.0"

PRNG_ALGORITHM = "PCG64"  # numpy default_rng; recorded in every run manifest

_EXPORTS = {
    "errors": ["CapacityError", "EstimationError", "RegimeError",
               "SingularityError"],
    "torus": ["INF", "MetricSpec", "TorusPointSet", "ball_volume",
              "radius_for_gamma", "sample_uniform_points", "grid_side",
              "write_points_csv", "read_points_csv"],
    "graphs": ["GeometricGraph", "build_rgg", "build_dgg", "dgg_degree",
               "dgg_radius", "write_graph_csv", "read_graph_csv"],
    "laplacian": ["RegNormLaplacian", "assemble_rgg_laplacian",
                  "assemble_dgg_laplacian"],
    "spectra": ["SpectralDistribution", "LevyResult", "ConvergenceRow",
                "full_spectrum", "spectrum_of_graph", "esd_cdf",
                "levy_distance", "trace_bound", "lemma2_threshold",
                "convergence_study", "DENSE_CAP"],
    "analytic": ["dgg_eigenvalue", "analytic_spectrum", "mode_table",
                 "limit_eigenvalue_sweep", "taylor_lambda",
                 "fiedler_eigenvalue", "regularizer_gap"],
    "specdim": ["SpecDimEstimate", "HeatTrace", "theoretical_cdf",
                "estimate_ds_from_spectrum", "heat_trace",
                "find_heat_horizon", "default_heat_grid",
                "estimate_ds_from_heat_trace", "mc_return_probability",
                "mc_stderr", "estimate_ds_from_mc", "shift_spectrum"],
}

_ATTR_TO_MODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ATTR_TO_MODULE) + ["PRNG_ALGORITHM", "__version__"]


def __getattr__(name):
    module_name = _ATTR_TO_MODULE.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
