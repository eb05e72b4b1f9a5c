"""Command-line driver.

Five subcommands share one output convention: every run writes its data
files plus a manifest.json (resolved configuration, toolkit version, PRNG
algorithm, dense eigensolver route, BLAS thread count in effect, wall time,
sha256 per file) into the --out directory.  Floats are printed with 17
significant digits so runs round-trip exactly.

Only a run that succeeds writes files, the manifest last: each handler
computes everything and returns (file name, write) pairs, which `main`
writes after it returns.  A failed run leaves --out absent or empty.

Thread pinning must precede BLAS initialization, so everything numeric is
imported lazily inside the subcommand handlers; this module only touches
the standard library at import time.

Exit codes: 0 success, 2 bad parameters or regime, 3 problem size beyond
the dense eigensolver cap or the walk's int32 table, 4 estimation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from collections import namedtuple
from functools import partial
from pathlib import Path

from . import PRNG_ALGORITHM, __version__
from .errors import CapacityError, EstimationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_ESTIMATION = 4

THREADS_ENV = "RGG_SPECTRA_THREADS"

_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# small parsing helpers

def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> list[int]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty size list")
    return [int(s) for s in items]


_KINDS = ("rgg", "dgg")


def _parse_kind(text: str) -> str:
    if text not in _KINDS:
        raise ValueError(f"unknown kind {text!r}; choose from {', '.join(_KINDS)}")
    return text


_METHOD_NAMES = ("cdf", "heat", "mc")


def _parse_methods(text: str) -> tuple[str, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty method list")
    for item in items:
        if item not in _METHOD_NAMES:
            raise ValueError(
                f"unknown method {item!r}; choose from {', '.join(_METHOD_NAMES)}")
    return tuple(dict.fromkeys(items))


# ---------------------------------------------------------------------------
# option registry; argparse defaults stay None so config files can fill gaps

Opt = namedtuple("Opt", "conv default help")

_COMMON = {
    "out": Opt(str, None, "output directory (required)"),
    "threads": Opt(int, None,
                   f"BLAS thread cap; falls back to ${THREADS_ENV}"),
    "svg": Opt(_parse_bool, False, "also write SVG plots"),
}

_GRID = {
    "d": Opt(int, 1, "ambient dimension"),
    "N": Opt(int, None, "grid side, n = N^d"),
    "gamma": Opt(float, None, "target mean degree"),
    "gamma_prime": Opt(int, None, "exact grid degree (2k+1)^d - 1"),
    "alpha": Opt(float, 0.1, "regularizer weight"),
}

_METRIC_P = Opt(float, math.inf, "torus metric exponent; inf for Chebyshev")

_WALK = {
    "seed": Opt(int, 0, "PRNG seed"),
    "walkers": Opt(int, 100000, "random walkers for the return-probability run"),
    "tmax": Opt(int, 512, "walk length in steps"),
}

_OPTS: dict[str, dict[str, Opt]] = {
    "spectrum": {
        "kind": Opt(_parse_kind, "rgg", "graph family: rgg or dgg"),
        "n": Opt(int, None, "number of random points (rgg)"),
        **_GRID,
        "N": Opt(int, None, "grid side (dgg), n = N^d"),
        "radius": Opt(float, None, "connection radius; overrides gamma"),
        "p": _METRIC_P,
        "seed": Opt(int, 0, "PRNG seed for the point sample"),
        **_COMMON,
    },
    "analytic-spectrum": {**_GRID, **_COMMON},
    "levy": {
        "d": _GRID["d"],
        "gamma": Opt(float, 8.0, "target mean degree"),
        "alpha": _GRID["alpha"],
        "p": _METRIC_P,
        "n_list": Opt(_parse_int_list, [1024, 2048, 4096],
                      "comma-separated point counts"),
        "seeds": Opt(int, 10, "number of trials per size, seeds 0..s-1"),
        **_COMMON,
    },
    "specdim": {
        **_GRID,
        **_WALK,
        "methods": Opt(_parse_methods, ("cdf", "heat", "mc"),
                       "comma-separated estimators: cdf, heat, mc"),
        **_COMMON,
    },
    "diffusion": {**_GRID, **_WALK, **_COMMON},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgg-spectra",
        description="Spectra of random geometric and grid graphs on the "
                    "unit torus: eigenvalue distributions, Levy-distance "
                    "convergence, and spectral-dimension estimates.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "spectrum": "eigensolve one graph and dump its spectrum",
        "analytic-spectrum": "closed-form grid spectrum, no eigensolver",
        "levy": "RGG-vs-grid Levy distances over sizes and seeds",
        "specdim": "spectral-dimension estimates by cdf, heat, and mc routes",
        "diffusion": "raw heat-trace and random-walk return curves",
    }
    for command, opts in _OPTS.items():
        sp = sub.add_parser(command, help=helps[command])
        for name, opt in opts.items():
            flag = "--" + name.replace("_", "-")
            if name == "svg":
                sp.add_argument(flag, action="store_true", default=None,
                                help=opt.help)
            elif name == "kind":
                sp.add_argument(flag, choices=_KINDS, default=None,
                                help=opt.help)
            else:
                sp.add_argument(flag, type=opt.conv, default=None,
                                metavar=name.upper(), help=opt.help)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="key=value file; explicit flags win")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def _merge(args: argparse.Namespace, opts: dict[str, Opt]) -> dict:
    raw = _read_config_file(args.config) if args.config else {}
    known = {k.replace("-", "_") for k in opts}
    unknown = sorted(k for k in raw if k.replace("-", "_") not in known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    cfg = {}
    for name, opt in opts.items():
        cli_val = getattr(args, name)
        if cli_val is not None:
            cfg[name] = cli_val
            continue
        for key in (name, name.replace("_", "-")):
            if key in raw:
                cfg[name] = opt.conv(raw[key])
                break
        else:
            cfg[name] = opt.default
    return cfg


def _apply_threads(cfg: dict) -> None:
    threads = cfg.get("threads")
    if threads is None:
        env = os.environ.get(THREADS_ENV)
        if env:
            threads = int(env)
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        for var in _BLAS_ENV:
            os.environ[var] = str(threads)
    cfg["threads"] = threads


def _require(cfg: dict, name: str):
    value = cfg.get(name)
    if value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return value


def _resolve_gamma_prime(cfg: dict, d: int) -> int:
    gp = cfg.get("gamma_prime")
    if gp is not None:
        from .analytic import _odd_root
        _odd_root(gp, d)
        return int(gp)
    gamma = cfg.get("gamma")
    if gamma is None:
        raise ValueError("need --gamma or --gamma-prime")
    from .graphs import dgg_degree
    return dgg_degree(gamma, d)


def _grid_radius(gamma_prime: int, d: int, N: int) -> float:
    """Radius of the Chebyshev grid graph of degree gamma' = (2k+1)^d - 1."""
    from . import analytic, graphs
    return graphs.dgg_radius((analytic._odd_root(gamma_prime, d) - 1) // 2, N)


# ---------------------------------------------------------------------------
# output helpers

def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _write_manifest(outdir: Path, command: str, cfg: dict,
                    wall: float, names: list[str]) -> None:
    from .spectra import _solver_provenance

    outputs = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in sorted(names)}
    payload = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in sorted(cfg.items())},
        "outputs": outputs,
        "prng": PRNG_ALGORITHM,
        "version": __version__,
        "wall_seconds": round(wall, 3),
        **_solver_provenance(),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_svg(path: Path, xs, ys, title: str, xlabel: str, ylabel: str,
               log: bool = False) -> None:
    """Minimal deterministic line chart, linear or log-log; one polyline."""
    pts = []
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        if log:
            if x <= 0.0 or y <= 0.0:
                continue
            x, y = math.log10(x), math.log10(y)
        if math.isfinite(x) and math.isfinite(y):
            pts.append((x, y))
    if not pts:
        pts = [(0.0, 0.0)]
    x0 = min(p[0] for p in pts)
    x1 = max(p[0] for p in pts)
    y0 = min(p[1] for p in pts)
    y1 = max(p[1] for p in pts)
    if x1 - x0 == 0.0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 == 0.0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    W, H, ML, MR, MT, MB = 640, 480, 70, 20, 40, 50

    def px(x):
        return ML + (x - x0) / (x1 - x0) * (W - ML - MR)

    def py(y):
        return H - MB - (y - y0) / (y1 - y0) * (H - MT - MB)

    def tick(v):
        return "%.4g" % (10.0 ** v if log else v)

    poly = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="monospace" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{ML}" y1="{H - MB}" x2="{W - MR}" y2="{H - MB}" '
        'stroke="black"/>',
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{H - MB}" stroke="black"/>',
        f'<text x="{W / 2:.0f}" y="20" text-anchor="middle">{title}</text>',
        f'<text x="{W / 2:.0f}" y="{H - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{H / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {H / 2:.0f})">{ylabel}</text>',
        f'<text x="{ML}" y="{H - MB + 16}" text-anchor="middle">{tick(x0)}</text>',
        f'<text x="{W - MR}" y="{H - MB + 16}" text-anchor="end">{tick(x1)}</text>',
        f'<text x="{ML - 6}" y="{H - MB}" text-anchor="end">{tick(y0)}</text>',
        f'<text x="{ML - 6}" y="{MT + 10}" text-anchor="end">{tick(y1)}</text>',
        f'<polyline points="{poly}" fill="none" stroke="#1f6feb" '
        'stroke-width="1.5"/>',
        "</svg>",
    ]
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# outputs of more than one subcommand, as (file name, write(path)) pairs

def _eigenvalue_outputs(ev, title: str) -> list:
    import numpy as np

    from .torus import _write_csv
    return [("eigenvalues.csv", partial(
                _write_csv, header="index,lambda", template="%d,%.17g\n",
                rows=np.column_stack((np.arange(ev.size), ev)))),
            ("spectrum.svg", partial(_write_svg, xs=range(ev.size), ys=ev, title=title,
                                     xlabel="rank", ylabel="lambda"))]


def _shifted_grid_spectrum(cfg: dict):
    """gamma' and the closed-form grid spectrum minus the regularizer gap."""
    from . import analytic, specdim, spectra
    d, alpha = cfg["d"], cfg["alpha"]
    N = _require(cfg, "N")
    gp = _resolve_gamma_prime(cfg, d)
    spec = spectra.SpectralDistribution.from_values(
        analytic.analytic_spectrum(N, gp, alpha, d))
    return gp, specdim.shift_spectrum(spec, analytic.regularizer_gap(gp, alpha))


def _heat_trace_outputs(ht) -> list:
    import numpy as np

    from .torus import _write_csv
    signal = ht.values - ht.stationary_offset
    return [("heat_trace.csv", partial(
                _write_csv, header="t,p0,p0_minus_offset",
                template="%.17g,%.17g,%.17g\n",
                rows=np.column_stack((ht.times, ht.values, signal)))),
            ("heat_trace.svg", partial(_write_svg, xs=ht.times, ys=signal, log=True,
                                       title="heat-trace decay", xlabel="t",
                                       ylabel="P0(t) - offset"))]


def _run_mc(cfg: dict, gp: int):
    """Unregularized walk on the matching grid; returns (freq, n, outputs)."""
    import numpy as np

    from . import graphs, specdim
    from .torus import _write_csv
    N, d = _require(cfg, "N"), cfg["d"]
    g = graphs.build_dgg(N ** d, d, _grid_radius(gp, d, N))
    freq = specdim.mc_return_probability(g, cfg["tmax"], cfg["walkers"],
                                         cfg["seed"])
    se = specdim.mc_stderr(freq, cfg["walkers"])
    return freq, g.n, [
        ("mc_returns.csv", partial(_write_csv, header="t,return_freq,stderr",
                                   template="%d,%.17g,%.17g\n",
                                   rows=np.column_stack((np.arange(freq.size),
                                                         freq, se)))),
        ("mc_returns.svg", partial(_write_svg, xs=np.arange(freq.size),
                                   ys=freq - 1.0 / g.n, log=True,
                                   title="return frequency minus 1/n",
                                   xlabel="t", ylabel="signal"))]


# ---------------------------------------------------------------------------
# subcommand handlers; each computes everything, writes nothing, and returns
# (file name, write(path)) pairs

def _cmd_spectrum(cfg: dict) -> list:
    import numpy as np

    from . import analytic, graphs, spectra, torus

    d = cfg["d"]
    alpha = cfg["alpha"]
    analytic._check_alpha(alpha)
    metric = torus.MetricSpec(p=cfg["p"])
    outputs = []
    analytic_ref = None
    radius = cfg["radius"]
    if cfg["kind"] == "rgg":
        n = _require(cfg, "n")
        if radius is None:
            radius = torus.radius_for_gamma(_require(cfg, "gamma"), n, d, metric)
        pts = torus.sample_uniform_points(n, d, cfg["seed"])
        g = graphs.build_rgg(pts, radius, metric)
        outputs.append(("points.csv", partial(torus.write_points_csv, pts)))
    else:
        N = _require(cfg, "N")
        gp = None
        if radius is None:
            gp = _resolve_gamma_prime(cfg, d)
            radius = _grid_radius(gp, d, N)
        g = graphs.build_dgg(N ** d, d, radius, metric)
        if gp is not None and metric.p == torus.INF:
            analytic_ref = analytic.analytic_spectrum(N, gp, alpha, d)
    outputs.append(("graph.csv", partial(graphs.write_graph_csv, g)))

    ev = spectra.spectrum_of_graph(g, alpha).eigenvalues
    outputs += _eigenvalue_outputs(ev, f"{g.kind} spectrum, n = {ev.size}")
    if analytic_ref is not None:
        outputs.append(("comparison.csv", partial(
            torus._write_csv, header="index,numeric,analytic,abs_diff",
            template="%d,%.17g,%.17g,%.17g\n",
            rows=np.column_stack((np.arange(ev.size), ev, analytic_ref,
                                  abs(ev - analytic_ref))))))
    print(f"{g.kind}: n={g.n} mean_degree={g.mean_degree():.6g} "
          f"lambda=[{ev[0]:.6g}, {ev[-1]:.6g}]")
    return outputs


def _cmd_analytic_spectrum(cfg: dict) -> list:
    import numpy as np

    from . import analytic
    from .torus import _write_csv

    d = cfg["d"]
    N = _require(cfg, "N")
    gp = _resolve_gamma_prime(cfg, d)
    modes, w, lam = analytic.mode_table(N, gp, cfg["alpha"], d)
    ev = np.sort(lam)
    print(f"dgg closed form: n={ev.size} gamma_prime={gp} "
          f"lambda=[{ev[0]:.6g}, {ev[-1]:.6g}]")
    return [("modes.csv", partial(
                _write_csv, rows=np.column_stack((modes, w, lam)),
                header=",".join(f"m{s + 1}" for s in range(d)) + ",w,lambda",
                template="%d," * d + "%.17g,%.17g\n")),
            *_eigenvalue_outputs(ev, f"closed-form spectrum, N = {N}, d = {d}")]


def _cmd_levy(cfg: dict) -> list:
    import numpy as np

    from . import spectra, torus

    d = cfg["d"]
    metric = torus.MetricSpec(p=cfg["p"])
    n_list = cfg["n_list"]
    seeds = list(range(cfg["seeds"]))
    if not seeds:
        raise ValueError("seeds must be >= 1")
    rows = spectra.convergence_study(d, cfg["gamma"], cfg["alpha"], metric,
                                     n_list, seeds)
    medians = []
    for n in n_list:
        levies = [r.levy for r in rows if r.n == n]
        exceed = sum(r.exceeds for r in rows if r.n == n)
        med = statistics.median(levies)
        medians.append(med)
        print(f"n={n} trials={len(levies)} median_levy={med:.6g} "
              f"exceeds={exceed}")
    return [("convergence.csv", partial(
                torus._write_csv, header="n,seed,gamma,gamma_prime,alpha,levy,"
                                         "levy_cubed,threshold,exceeds",
                template="%d,%d,%.17g,%d,%.17g,%.17g,%.17g,%.17g,%d\n",
                rows=np.array([(r.n, r.seed, r.gamma, r.gamma_prime, r.alpha, r.levy,
                                r.levy_cubed, r.threshold, r.exceeds) for r in rows],
                              dtype=object))),
            ("levy_vs_n.svg", partial(_write_svg, xs=n_list, ys=medians, log=True,
                                      title="median Levy distance vs size",
                                      xlabel="n", ylabel="median L"))]


def _cmd_specdim(cfg: dict) -> list:
    import numpy as np

    from . import analytic, specdim
    from .torus import _write_csv

    outputs = []
    d, alpha = cfg["d"], cfg["alpha"]
    gp, shifted = _shifted_grid_spectrum(cfg)
    methods = cfg["methods"]

    estimates = []
    if "cdf" in methods:
        estimates.append(specdim.estimate_ds_from_spectrum(shifted))
    if "heat" in methods:
        ht = specdim.heat_trace(shifted, specdim.default_heat_grid(shifted))
        estimates.append(specdim.estimate_ds_from_heat_trace(ht))
        outputs += _heat_trace_outputs(ht)
    if "mc" in methods:
        freq, n_nodes, mc_outputs = _run_mc(cfg, gp)
        outputs += mc_outputs
        estimates.append(specdim.estimate_ds_from_mc(freq, n_nodes))

    outputs.append(("estimates.csv", partial(
        _write_csv,
        header="method,d_s,slope,window_lo,window_hi,r_squared,n_points",
        template="%s,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n",
        rows=np.array([(e.method, e.d_s, e.slope, e.window[0], e.window[1],
                        e.r_squared, e.n_points) for e in estimates],
                      dtype=object))))

    w = np.linspace(0.0, 0.02, 401)
    exact = analytic.limit_eigenvalue_sweep(w, gp, alpha, d)
    tay = analytic.taylor_lambda(w, gp, alpha, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(exact != 0.0, np.abs(exact - tay) / np.abs(exact),
                       np.where(tay == 0.0, 0.0, np.inf))
    outputs.append(("taylor_curve.csv", partial(
        _write_csv, header="w,lambda_exact,lambda_taylor,rel_dev",
        template="%.17g,%.17g,%.17g,%.17g\n",
        rows=np.column_stack((w, exact, tay, rel)))))

    for e in estimates:
        print(f"{e.method}: d_s={e.d_s:.6g} r2={e.r_squared:.6g} "
              f"window=[{e.window[0]:.6g}, {e.window[1]:.6g}] "
              f"points={e.n_points}")
    return outputs


def _cmd_diffusion(cfg: dict) -> list:
    import numpy as np

    from . import specdim

    gp, shifted = _shifted_grid_spectrum(cfg)
    horizon = specdim.find_heat_horizon(shifted, t_lo=1.0)
    t_hi = max(horizon, 2.0)
    grid = np.geomspace(1.0, t_hi, specdim.HEAT_GRID_POINTS)
    outputs = _heat_trace_outputs(specdim.heat_trace(shifted, grid))
    _, n_nodes, mc_outputs = _run_mc(cfg, gp)
    print(f"heat grid [1, {t_hi:.6g}] with {grid.size} points; "
          f"{cfg['walkers']} walkers to t={cfg['tmax']} on n={n_nodes}, "
          f"walk threads={specdim._walk_threads(cfg['walkers'])}")
    return outputs + mc_outputs


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "analytic-spectrum": _cmd_analytic_spectrum,
    "levy": _cmd_levy,
    "specdim": _cmd_specdim,
    "diffusion": _cmd_diffusion,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = _merge(args, _OPTS[args.command])
        _apply_threads(cfg)
        # a bad --out fails here, before any work
        outdir = Path(_require(cfg, "out"))
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, write in _HANDLERS[args.command](cfg):
            if cfg["svg"] or not name.endswith(".svg"):
                write(outdir / name)
                written.append(name)
        _write_manifest(outdir, args.command, cfg,
                        time.perf_counter() - start, written)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
