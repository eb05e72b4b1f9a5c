"""The five subcommands of the command-line driver.

`cli.main` imports this module only after `--threads` has pinned the BLAS
thread count, so its imports are ordinary top-level ones, numpy included.
Each handler computes everything, writes nothing, and returns (file name,
write(path)) pairs; `run` writes them and then the manifest.  Public
library functions are called through their modules
(`torus.sample_uniform_points`), so that a patched module attribute is the
one that runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import (PRNG_ALGORITHM, __version__, analytic, graphs, specdim, spectra,
               torus)
from .torus import _write_csv


def _require(cfg: dict, name: str):
    value = cfg.get(name)
    if value is None:
        raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return value


def _side(cfg: dict) -> int:
    """The grid side --N, which must be at least 1."""
    N = _require(cfg, "N")
    if N < 1:
        raise ValueError(f"--N must be >= 1, got {N}")
    return N


def _lattice(cfg: dict) -> tuple[int, int]:
    """Grid side N and degree gamma' from --N and --gamma-prime or --gamma."""
    N, d, gp = _side(cfg), cfg["d"], cfg["gamma_prime"]
    if gp is not None:
        analytic._odd_root(gp, d)
        return N, int(gp)
    if cfg["gamma"] is None:
        raise ValueError("need --gamma or --gamma-prime")
    return N, graphs.dgg_degree(cfg["gamma"], d)


def _grid_radius(gamma_prime: int, d: int, N: int) -> float:
    """Radius of the Chebyshev grid graph of degree gamma' = (2k+1)^d - 1."""
    return graphs.dgg_radius((analytic._odd_root(gamma_prime, d) - 1) // 2, N)


# ---------------------------------------------------------------------------
# output helpers

def _jsonable(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def _write_manifest(outdir: Path, command: str, cfg: dict,
                    wall: float, names: list[str]) -> None:
    outputs = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in sorted(names)}
    payload = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in sorted(cfg.items())},
        "outputs": outputs,
        "prng": PRNG_ALGORITHM,
        "version": __version__,
        "wall_seconds": round(wall, 3),
        **spectra._solver_provenance(),
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
    return [("eigenvalues.csv", partial(
                _write_csv, header="index,lambda", template="%d,%.17g\n",
                rows=np.column_stack((np.arange(ev.size), ev)))),
            ("spectrum.svg", partial(_write_svg, xs=range(ev.size), ys=ev, title=title,
                                     xlabel="rank", ylabel="lambda"))]


def _shifted_grid_spectrum(cfg: dict):
    """N, gamma' and the closed-form grid spectrum minus the regularizer gap."""
    alpha = cfg["alpha"]
    N, gp = _lattice(cfg)
    spec = spectra.SpectralDistribution.from_values(
        analytic.analytic_spectrum(N, gp, alpha, cfg["d"]))
    return N, gp, specdim.shift_spectrum(spec, analytic.regularizer_gap(gp, alpha))


def _heat_trace_outputs(ht) -> list:
    signal = ht.values - ht.stationary_offset
    return [("heat_trace.csv", partial(
                _write_csv, header="t,p0,p0_minus_offset",
                template="%.17g,%.17g,%.17g\n",
                rows=np.column_stack((ht.times, ht.values, signal)))),
            ("heat_trace.svg", partial(_write_svg, xs=ht.times, ys=signal, log=True,
                                       title="heat-trace decay", xlabel="t",
                                       ylabel="P0(t) - offset"))]


def _run_mc(cfg: dict, N: int, gp: int):
    """Unregularized walk on the matching grid; returns (freq, n, outputs)."""
    d = cfg["d"]
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
# subcommand handlers

def _cmd_spectrum(cfg: dict) -> list:
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
        gp = None
        if radius is None:
            N, gp = _lattice(cfg)
            radius = _grid_radius(gp, d, N)
        else:
            N = _side(cfg)
        g = graphs.build_dgg(N ** d, d, radius, metric)
        if gp is not None and metric.p == torus.INF:
            analytic_ref = analytic.analytic_spectrum(N, gp, alpha, d)
    outputs.append(("graph.csv", partial(graphs.write_graph_csv, g)))

    sd, classes, solved = spectra._solve_quotient(g, alpha)
    ev = sd.eigenvalues
    outputs += _eigenvalue_outputs(ev, f"{g.kind} spectrum, n = {ev.size}")
    if analytic_ref is not None:
        outputs.append(("comparison.csv", partial(
            _write_csv, header="index,numeric,analytic,abs_diff",
            template="%d,%.17g,%.17g,%.17g\n",
            rows=np.column_stack((np.arange(ev.size), ev, analytic_ref,
                                  abs(ev - analytic_ref))))))
    print(f"{g.kind}: n={g.n} mean_degree={float(np.mean(g.degrees)):.6g} "
          f"lambda=[{ev[0]:.6g}, {ev[-1]:.6g}] classes={classes} "
          f"solved={solved}")
    return outputs


def _cmd_analytic_spectrum(cfg: dict) -> list:
    d = cfg["d"]
    N, gp = _lattice(cfg)
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
    metric = torus.MetricSpec(p=cfg["p"])
    n_list = cfg["n_list"]
    seeds = list(range(cfg["seeds"]))
    if not seeds:
        raise ValueError("seeds must be >= 1")
    rows = spectra.convergence_study(cfg["d"], cfg["gamma"], cfg["alpha"],
                                     metric, n_list, seeds)
    medians = []
    for n in n_list:
        levies = [r.levy for r in rows if r.n == n]
        exceed = sum(r.exceeds for r in rows if r.n == n)
        med = statistics.median(levies)
        medians.append(med)
        print(f"n={n} trials={len(levies)} median_levy={med:.6g} "
              f"exceeds={exceed}")
    return [("convergence.csv", partial(
                _write_csv, header="n,seed,gamma,gamma_prime,alpha,levy,"
                                   "levy_cubed,threshold,exceeds",
                template="%d,%d,%.17g,%d,%.17g,%.17g,%.17g,%.17g,%d\n",
                rows=np.array([(r.n, r.seed, r.gamma, r.gamma_prime, r.alpha, r.levy,
                                r.levy_cubed, r.threshold, r.exceeds) for r in rows],
                              dtype=object))),
            ("levy_vs_n.svg", partial(_write_svg, xs=n_list, ys=medians, log=True,
                                      title="median Levy distance vs size",
                                      xlabel="n", ylabel="median L"))]


def _cmd_specdim(cfg: dict) -> list:
    outputs = []
    d, alpha = cfg["d"], cfg["alpha"]
    N, gp, shifted = _shifted_grid_spectrum(cfg)
    methods = cfg["methods"]

    estimates = []
    if "cdf" in methods:
        estimates.append(specdim.estimate_ds_from_spectrum(shifted))
    if "heat" in methods:
        ht = specdim.heat_trace(shifted, specdim.default_heat_grid(shifted))
        estimates.append(specdim.estimate_ds_from_heat_trace(ht))
        outputs += _heat_trace_outputs(ht)
    if "mc" in methods:
        freq, n_nodes, mc_outputs = _run_mc(cfg, N, gp)
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
    N, gp, shifted = _shifted_grid_spectrum(cfg)
    horizon = specdim.find_heat_horizon(shifted, t_lo=1.0)
    t_hi = max(horizon, 2.0)
    grid = np.geomspace(1.0, t_hi, specdim.HEAT_GRID_POINTS)
    outputs = _heat_trace_outputs(specdim.heat_trace(shifted, grid))
    _, n_nodes, mc_outputs = _run_mc(cfg, N, gp)
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


def run(command: str, cfg: dict, start: float) -> None:
    """Run one subcommand and write its outputs into --out, manifest last."""
    if cfg.get("seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {cfg['seed']}")
    # a bad --out fails here, before any work
    outdir = Path(_require(cfg, "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, write in _HANDLERS[command](cfg):
        if cfg["svg"] or not name.endswith(".svg"):
            write(outdir / name)
            written.append(name)
    _write_manifest(outdir, command, cfg, time.perf_counter() - start,
                    written)
