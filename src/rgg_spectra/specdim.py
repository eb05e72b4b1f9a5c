"""Spectral-dimension estimators.

Three routes to d_s, designed to cross-validate each other:

* cdf_slope: 2x the log-log slope of the ESD near zero,
* heat_trace: -2x the log-log slope of P0(t) = (1/n) sum_i exp(-lambda_i t)
  after subtracting the finite-size stationary plateau,
* monte_carlo: the same decay read off simulated random-walk return
  frequencies on the unregularized grid graph.

All fits are plain least squares of log against log over an explicit
window; the windows and r-squared gates are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .graphs import GeometricGraph
from .spectra import SpectralDistribution, esd_cdf

ZERO_TOL = 1e-9
CDF_WINDOW_FRACTION = 0.02
CDF_MIN_POINTS = 10
# The heat-trace fit starts at t = 10: the first few steps are dominated by
# the fast decay of bulk modes, not the small-eigenvalue power law.
HEAT_T_LO = 10.0
HEAT_SIGNAL_THRESHOLD = 1e-3
HEAT_GRID_POINTS = 200
HEAT_R2_GATE = 0.97
MC_T_LO = 10
# Cut the walk window once the subtracted return signal falls to 1e-3:
# below that, binomial noise at typical walker counts swamps the decay,
# and on small tori the discrete mode sum already bends away from the
# continuum power law.
MC_SIGNAL_FLOOR = 1e-3
MC_R2_GATE = 0.9
MC_BATCH = 4096
# Walk steps drawn per rng.integers call.  Any block size reads the same
# stream as one call per step: PCG64 keeps a half-used 32-bit word across
# calls, Lemire rejection skips single words, and the draws fill the block
# in row-major (step-major) order.  16 steps of MC_BATCH int64 choices are
# 512 KB; all 512 steps of a batch at once would be 16 MB.
_MC_BLOCK = 16


@dataclass(frozen=True)
class SpecDimEstimate:
    method: str  # "cdf_slope", "heat_trace", or "monte_carlo"
    d_s: float
    slope: float
    window: tuple[float, float]
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class HeatTrace:
    times: np.ndarray
    values: np.ndarray
    stationary_offset: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def theoretical_cdf(x, gamma_prime: float, alpha: float, d: int):
    """Small-eigenvalue CDF 6^(d/2) (gamma'+alpha)^(d/2) pi^-d (1+gamma')^(-(2+d)/2) x^(d/2)."""
    x = np.asarray(x, dtype=float)
    pref = 6.0 ** (d / 2.0) * (gamma_prime + alpha) ** (d / 2.0) \
        * np.pi ** (-float(d)) * (1.0 + gamma_prime) ** (-(2.0 + d) / 2.0)
    val = pref * x ** (d / 2.0)
    return float(val) if val.ndim == 0 else val


def theoretical_ds(d: int) -> float:
    """The closed result: the spectral dimension equals d."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return float(d)


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    X = np.log(x)
    Y = np.log(y)
    A = np.vstack([X, np.ones_like(X)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = Y - (slope * X + intercept)
    ss_tot = float(np.sum((Y - Y.mean()) ** 2))
    ss_res = float(np.sum(resid ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def estimate_ds_from_spectrum(spec: SpectralDistribution) -> SpecDimEstimate:
    """d_s = 2x the slope of log F(lambda) vs log lambda near zero.

    Eigenvalues at or below the zero tolerance are discarded, the smallest
    ceil(CDF_WINDOW_FRACTION * n) survivors form the window, and F uses the
    right limit rank/n at each distinct value so log F is finite at the
    smallest point.
    """
    ev = spec.eigenvalues
    positive = ev[ev > ZERO_TOL]
    k = math.ceil(CDF_WINDOW_FRACTION * spec.n)
    window = positive[:k]
    distinct = np.unique(window)
    if distinct.size < CDF_MIN_POINTS:
        raise EstimationError(
            f"need at least {CDF_MIN_POINTS} distinct nonzero eigenvalues in the "
            f"fit window, observed {distinct.size}")
    F = esd_cdf(spec, distinct, side="right")
    slope, _, r2 = _loglog_fit(distinct, F)
    return SpecDimEstimate(method="cdf_slope", d_s=2.0 * slope, slope=slope,
                           window=(float(distinct[0]), float(distinct[-1])),
                           r_squared=r2, n_points=int(distinct.size))


def heat_trace(spec: SpectralDistribution, times: np.ndarray) -> HeatTrace:
    """P0(t) as an exact finite sum over the whole spectrum."""
    times = np.asarray(times, dtype=float)
    ev = spec.eigenvalues
    values = np.exp(-np.outer(times, ev)).mean(axis=1)
    offset = float(np.sum(ev <= ZERO_TOL)) / spec.n
    return HeatTrace(times=times, values=values, stationary_offset=offset)


def _p0_minus_offset(spec: SpectralDistribution, t: float) -> float:
    ev = spec.eigenvalues
    offset = float(np.sum(ev <= ZERO_TOL)) / spec.n
    return float(np.exp(-t * ev).mean()) - offset


def find_heat_horizon(spec: SpectralDistribution,
                      t_lo: float = HEAT_T_LO) -> float:
    """Largest useful fit time: where P0(t) - offset decays to
    HEAT_SIGNAL_THRESHOLD.

    Raises EstimationError if the signal has not decayed by t = 1e12.
    """
    if _p0_minus_offset(spec, t_lo) <= HEAT_SIGNAL_THRESHOLD:
        return t_lo
    lo, hi = t_lo, t_lo
    while _p0_minus_offset(spec, hi) > HEAT_SIGNAL_THRESHOLD:
        hi *= 2.0
        if hi > 1e12:
            raise EstimationError(
                f"heat-trace signal still above {HEAT_SIGNAL_THRESHOLD} at "
                f"t = {hi:.3g}; the spectrum has a negative eigenvalue")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if _p0_minus_offset(spec, mid) > HEAT_SIGNAL_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def default_heat_grid(spec: SpectralDistribution) -> np.ndarray:
    """HEAT_GRID_POINTS log-spaced times from HEAT_T_LO to the signal horizon."""
    t_hi = find_heat_horizon(spec)
    if t_hi <= HEAT_T_LO:
        raise EstimationError(f"heat-trace signal is already below "
                              f"{HEAT_SIGNAL_THRESHOLD} at t = {HEAT_T_LO}")
    return np.logspace(math.log10(HEAT_T_LO), math.log10(t_hi), HEAT_GRID_POINTS)


def estimate_ds_from_heat_trace(
        ht: HeatTrace, window: tuple[float, float] | None = None) -> SpecDimEstimate:
    """d_s = -2x the slope of log(P0(t) - offset) vs log t over the window."""
    t = ht.times
    if window is None:
        window = (float(t[0]), float(t[-1]))
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if not np.any(mask):
        raise EstimationError(f"window [{lo}, {hi}] contains no grid times")
    signal = ht.values[mask] - ht.stationary_offset
    eps = np.finfo(float).eps
    if np.any(signal <= 10.0 * eps):
        raise EstimationError(
            "heat-trace signal underflows the stationary offset inside the window")
    if signal.size < 5:
        raise EstimationError(
            f"need at least 5 grid times in the window, observed {signal.size}")
    slope, _, r2 = _loglog_fit(t[mask], signal)
    if not r2 >= HEAT_R2_GATE:  # also rejects a NaN fit
        raise EstimationError(
            f"heat-trace fit r_squared {r2:.4f} below gate {HEAT_R2_GATE}; the "
            "decay is not a power law over this window")
    return SpecDimEstimate(method="heat_trace", d_s=-2.0 * slope, slope=slope,
                           window=(float(lo), float(hi)), r_squared=r2,
                           n_points=int(signal.size))


def mc_return_probability(g: GeometricGraph, t_max: int, walkers: int,
                          seed) -> np.ndarray:
    """Per-step return frequencies of uniform-neighbor random walks.

    Requires a regular graph so that the step operator is A/degree and the
    expectation of the return frequency equals (1/n) sum_i nu_i^t over the
    transition eigenvalues nu_i.  Walkers are simulated in fixed-size
    batches with streams keyed by (seed, batch index), so results do not
    depend on scheduling.  Within a batch the steps are drawn in blocks
    from the same stream that one draw per step would read, so the
    frequencies are bit-identical for every block size.
    """
    if np.any(g.degrees == 0):
        raise ValueError("graph has a zero-degree node; walks are undefined")
    degree = int(g.degrees[0])
    if np.any(g.degrees != degree):
        raise ValueError("return-probability walks require a regular graph")
    if t_max < 0 or walkers < 1:
        raise ValueError("t_max must be >= 0 and walkers >= 1")
    # Walkers carry node * degree, so the neighbor table is flat and one
    # step is an add and a take: table[pos + choice] = neighbor * degree.
    table = g.indices.astype(np.intp) * degree
    counts = np.zeros(t_max + 1, dtype=np.int64)
    done = 0
    batch_index = 0
    while done < walkers:
        size = min(MC_BATCH, walkers - done)
        rng = np.random.default_rng([seed, batch_index])
        start = rng.integers(0, g.n, size=size).astype(np.intp) * degree
        pos = start.copy()
        idx = np.empty(size, dtype=np.intp)
        hit = np.empty(size, dtype=bool)
        counts[0] += size
        for t0 in range(1, t_max + 1, _MC_BLOCK):
            steps = min(_MC_BLOCK, t_max + 1 - t0)
            choices = rng.integers(0, degree, size=(steps, size))
            for t, choice in enumerate(choices, t0):
                np.add(pos, choice, out=idx)
                # indices are in range by construction; "clip" lets take
                # write into pos without the buffer "raise" mode needs
                np.take(table, idx, out=pos, mode="clip")
                np.equal(pos, start, out=hit)
                counts[t] += np.count_nonzero(hit)
        done += size
        batch_index += 1
    return counts / walkers


def mc_stderr(freq: np.ndarray, walkers: int) -> np.ndarray:
    """Binomial standard error of each return frequency."""
    p = np.clip(np.asarray(freq, dtype=float), 0.0, 1.0)
    return np.sqrt(p * (1.0 - p) / walkers)


def estimate_ds_from_mc(freq: np.ndarray, n: int) -> SpecDimEstimate:
    """d_s from the log-log decay of return frequency minus the 1/n plateau.

    The window runs from MC_T_LO to the last step where the subtracted
    signal still clears MC_SIGNAL_FLOOR; beyond that the finite-size plateau
    and sampling noise dominate the slope.
    """
    freq = np.asarray(freq, dtype=float)
    t = np.arange(freq.size)
    signal = freq - 1.0 / n
    candidates = np.flatnonzero((t >= MC_T_LO) & (signal >= MC_SIGNAL_FLOOR))
    if candidates.size == 0:
        raise EstimationError(
            f"no steps at t >= {MC_T_LO} with signal >= {MC_SIGNAL_FLOOR}")
    t_hi = int(t[candidates[-1]])
    mask = (t >= MC_T_LO) & (t <= t_hi) & (signal > 0)
    if int(mask.sum()) < 5:
        raise EstimationError(
            f"need at least 5 usable steps in the window, observed {int(mask.sum())}")
    slope, _, r2 = _loglog_fit(t[mask].astype(float), signal[mask])
    if not r2 >= MC_R2_GATE:  # also rejects a NaN fit
        raise EstimationError(
            f"return-frequency fit r_squared {r2:.4f} below gate {MC_R2_GATE}")
    return SpecDimEstimate(method="monte_carlo", d_s=-2.0 * slope, slope=slope,
                           window=(float(MC_T_LO), float(t_hi)), r_squared=r2,
                           n_points=int(mask.sum()))


def shift_spectrum(spec: SpectralDistribution, gap: float) -> SpectralDistribution:
    """Shift all eigenvalues down by `gap`, clipping at zero.

    Used to remove the regularizer's spectral floor alpha/(gamma'+alpha)
    before power-law fits; with the floor left in, the near-zero CDF sees a
    hard left edge and every slope estimate is badly biased.
    """
    return SpectralDistribution.from_values(
        np.clip(spec.eigenvalues - gap, 0.0, None))
