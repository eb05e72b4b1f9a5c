"""Acceptance gates: one test per numbered criterion, at stated tolerances.

Run with -v to get a per-criterion pass/fail line.  Each test also checks
its runtime budget where one is stated.  Golden values were recorded on
the first oracle run and are pinned to 1e-9; directional checks (medians,
exceedance fractions) are asserted without pinning because dense
eigensolver output varies across LAPACK builds at the 1e-9 level.
"""

import json
import statistics
import time

import numpy as np
import pytest

from levy_oracle import levy_grid_bisect
from rgg_spectra import (
    INF,
    MetricSpec,
    RegNormLaplacian,
    SpectralDistribution,
    analytic_spectrum,
    build_dgg,
    build_rgg,
    convergence_study,
    default_heat_grid,
    dgg_radius,
    estimate_ds_from_heat_trace,
    estimate_ds_from_spectrum,
    fiedler_eigenvalue,
    full_spectrum,
    heat_trace,
    levy_distance,
    limit_eigenvalue_sweep,
    mc_return_probability,
    mc_stderr,
    radius_for_gamma,
    regularizer_gap,
    sample_uniform_points,
    shift_spectrum,
    spectrum_of_graph,
    taylor_lambda,
    theoretical_cdf,
    trace_bound,
)
from rgg_spectra.cli import EXIT_OK, main

GRID_CONFIGS = [(1, N, gp) for N in (8, 16, 64, 512) for gp in (4, 16)] \
    + [(2, N, gp) for N in (6, 16, 64) for gp in (8, 24)]
ALPHAS = (0.0, 0.1, 1.0)


@pytest.fixture(scope="module")
def closed_form_runs():
    """Dense and closed-form spectra for every valid grid configuration."""
    t0 = time.perf_counter()
    records, invalid = [], []
    for d, N, gp in GRID_CONFIGS:
        a = round((gp + 1) ** (1.0 / d))
        if a > N:
            invalid.append((d, N, gp))
            continue
        g = build_dgg(N ** d, d, dgg_radius((a - 1) // 2, N))
        for alpha in ALPHAS:
            sd = spectrum_of_graph(g, alpha)
            lam = analytic_spectrum(N, gp, alpha, d)
            records.append((d, N, gp, alpha, sd, lam))
    return records, invalid, time.perf_counter() - t0


def test_criterion_1_closed_form_exactness(closed_form_runs):
    records, invalid, elapsed = closed_form_runs
    assert invalid == [(1, 8, 16), (1, 16, 16)]
    for d, N, gp in invalid:
        with pytest.raises(ValueError):
            analytic_spectrum(N, gp, 0.1, d)
    assert len(records) == 36
    worst = 0.0
    for d, N, gp, alpha, sd, lam in records:
        dev = float(np.max(np.abs(sd.eigenvalues - lam)))
        assert dev <= 1e-10, f"d={d} N={N} gp={gp} alpha={alpha}: {dev}"
        worst = max(worst, dev)
    assert elapsed < 60.0
    print(f"criterion 1 PASS: 36 configs, worst |numeric-analytic| = "
          f"{worst:.3g}, {elapsed:.1f}s")


def test_criterion_2_zero_mode_and_spectral_range(closed_form_runs):
    records, _, _ = closed_form_runs
    for d, N, gp, alpha, sd, lam in records:
        assert abs(sd.eigenvalues[0]) <= 1e-10
        assert sd.eigenvalues[-1] <= 2.0 + 1e-10
        assert abs(lam[0]) <= 1e-10
        assert lam[-1] <= 2.0 + 1e-10
    for seed in range(20):
        d = (1, 2, 3)[seed % 3]
        n = (256, 512, 1024, 2048)[seed % 4]
        p = (1.0, 2.0, INF)[(seed // 3) % 3]
        alpha = (0.0, 0.1, 1.0)[(seed // 4) % 3]
        metric = MetricSpec(p)
        g = build_rgg(sample_uniform_points(n, d, seed),
                      radius_for_gamma(16.0, n, d, metric), metric)
        ev = spectrum_of_graph(g, alpha).eigenvalues
        assert abs(ev[0]) <= 1e-10, f"seed={seed}"
        assert ev[-1] <= 2.0 + 1e-10, f"seed={seed}"
    print("criterion 2 PASS: zero mode and [0, 2] range on 36 grid + 20 "
          "random configs")


def test_criterion_3_fiedler_decrease_and_limit():
    t0 = time.perf_counter()
    # the degree-16 chain stencil is 17 sites wide, so the two smallest
    # grids cannot host it
    for N in (8, 16):
        with pytest.raises(ValueError):
            fiedler_eigenvalue(N, 16, 0.1, 1)
    chain = [fiedler_eigenvalue(N, 16, 0.1, 1) for N in (32, 64, 128, 256)]
    plane = [fiedler_eigenvalue(N, 8, 0.1, 2) for N in (8, 16, 32, 64, 128, 256)]
    for vals in (chain, plane):
        assert all(a > b for a, b in zip(vals, vals[1:]))
    # without regularization the value keeps falling toward zero; with it,
    # the large-N value saturates at the floor alpha/(gamma'+alpha)
    assert fiedler_eigenvalue(4096, 16, 0.0, 1) < 1e-4
    floor = regularizer_gap(16, 0.1)
    assert abs(fiedler_eigenvalue(4096, 16, 0.1, 1) - floor) < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 3 PASS: strict decrease plus large-N limits, "
          f"{elapsed:.3f}s")


def test_criterion_4_levy_inequality_and_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        mats = []
        for _ in range(2):
            R = rng.normal(size=(n, n))
            mats.append(RegNormLaplacian(n=n, alpha=0.0, matrix=(R + R.T) / 2))
        res = levy_distance(full_spectrum(mats[0]), full_spectrum(mats[1]))
        assert res.cube <= trace_bound(*mats) + 1e-12
    worst = 0.0
    for _ in range(200):
        na, nb = rng.integers(1, 25, size=2)
        ea = np.sort(rng.uniform(0, 2, na))
        eb = np.sort(rng.uniform(0, 2, nb))
        pkg = levy_distance(SpectralDistribution.from_values(ea),
                            SpectralDistribution.from_values(eb)).distance
        worst = max(worst, abs(pkg - levy_grid_bisect(ea.tolist(), eb.tolist())))
    assert worst <= 2e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 4 PASS: 1000 trace-bound pairs, 200 oracle pairs "
          f"(worst gap {worst:.3g}), {elapsed:.1f}s")


def test_criterion_5_esd_convergence_directional():
    t0 = time.perf_counter()
    n_list = [256, 1024, 4096]
    rows = convergence_study(1, 16.0, 0.1, MetricSpec(INF), n_list,
                             list(range(10)))
    medians, fractions = [], []
    for n in n_list:
        cubes = [r.levy_cubed for r in rows if r.n == n]
        medians.append(statistics.median(cubes))
        fractions.append(sum(r.exceeds for r in rows if r.n == n) / len(cubes))
    assert all(a >= b for a, b in zip(medians, medians[1:])), medians
    assert all(a >= b for a, b in zip(fractions, fractions[1:])), fractions
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"criterion 5 PASS: median cubes {medians}, exceedance "
          f"{fractions}, {elapsed:.0f}s")


def test_criterion_6_spectral_dimension_estimates():
    t0 = time.perf_counter()
    golden = {
        (1, 4096, 16): (0.9638413351884132, 1.0644888209163081),
        (2, 64, 8): (1.8245475910612836, 2.162467519487647),
    }
    for (d, N, gp), (gold_cdf, gold_heat) in golden.items():
        spec = SpectralDistribution.from_values(analytic_spectrum(N, gp, 0.1, d))
        shifted = shift_spectrum(spec, regularizer_gap(gp, 0.1))
        cdf = estimate_ds_from_spectrum(shifted)
        heat = estimate_ds_from_heat_trace(
            heat_trace(shifted, default_heat_grid(shifted)))
        assert abs(cdf.d_s - d) <= 0.2, (d, cdf.d_s)
        assert abs(heat.d_s - d) <= 0.25, (d, heat.d_s)
        assert cdf.d_s == pytest.approx(gold_cdf, abs=1e-9)
        assert heat.d_s == pytest.approx(gold_heat, abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 6 PASS: both dimensions within band, goldens to 1e-9, "
          f"{elapsed:.1f}s")


def test_criterion_7_power_law_exponent():
    x = np.logspace(-6, -4, 60)
    for d in (1, 2, 3):
        y = theoretical_cdf(x, 16, 0.1, d)
        slope = np.polyfit(np.log(x), np.log(y), 1)[0]
        assert slope == pytest.approx(d / 2.0, abs=1e-9)
    for w in np.logspace(-8, -1, 15):
        back = theoretical_cdf(taylor_lambda(w, 16, 0.1, 1), 16, 0.1, 1)
        assert back == pytest.approx(w, rel=1e-9)
    print("criterion 7 PASS: slopes d/2 to 1e-9 and exact round trip")


def test_criterion_8_mc_spectral_and_taylor_window():
    t0 = time.perf_counter()
    g = build_dgg(16, 1, dgg_radius(2, 16))
    walkers = 100000
    freq = mc_return_probability(g, 64, walkers, 2)
    m = np.arange(16)
    S = np.where(m == 0, 5.0,
                 np.sin(5 * np.pi * m / 16)
                 / np.where(m == 0, 1.0, np.sin(np.pi * m / 16)))
    nu = (S - 1.0) / 4.0
    for t in range(65):
        p = float(np.mean(nu ** t))
        se = mc_stderr(np.array([p]), walkers)[0]
        if se < 1e-12:
            assert abs(freq[t] - p) < 1e-12, f"t={t}"
        else:
            assert abs(freq[t] - p) <= 3 * se, f"t={t}: {freq[t]} vs {p}"

    gp, alpha, d = 48, 0.1, 2
    w = np.linspace(0.0, 0.02, 401)
    exact = limit_eigenvalue_sweep(w, gp, alpha, d)
    tay = taylor_lambda(w, gp, alpha, d)
    window = (w >= 0.0103) & (w <= 0.012)
    assert int(window.sum()) == 35
    rel = np.abs(exact[window] - tay[window]) / np.abs(exact[window])
    assert float(rel.max()) < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 8 PASS: 65 steps within 3 sigma, window max rel dev "
          f"{rel.max():.4f}, {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    runs = [
        ["spectrum", "--kind", "rgg", "--d", "2", "--n", "64", "--gamma", "6",
         "--seed", "3", "--svg"],
        ["spectrum", "--kind", "dgg", "--d", "1", "--N", "32",
         "--gamma-prime", "4", "--svg"],
        ["analytic-spectrum", "--d", "2", "--N", "6", "--gamma-prime", "8",
         "--svg"],
        ["levy", "--d", "1", "--gamma", "4", "--n-list", "64,128",
         "--seeds", "2", "--svg"],
        ["specdim", "--d", "1", "--N", "512", "--gamma-prime", "16",
         "--methods", "cdf,heat,mc", "--walkers", "20000", "--tmax", "64",
         "--svg"],
        ["diffusion", "--d", "1", "--N", "64", "--gamma-prime", "4",
         "--walkers", "5000", "--tmax", "32", "--svg"],
    ]
    for index, argv in enumerate(runs):
        out = tmp_path / f"run{index}"
        argv = argv + ["--out", str(out)]
        assert main(argv) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == EXIT_OK
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted(after)
        for name, blob in before.items():
            if name == "manifest.json":
                ma, mb = json.loads(blob), json.loads(after[name])
                ma.pop("wall_seconds")
                mb.pop("wall_seconds")
                assert ma == mb
            else:
                assert blob == after[name], f"{argv[0]}: {name}"
    print("criterion 9 PASS: byte-identical re-runs for all five commands")
