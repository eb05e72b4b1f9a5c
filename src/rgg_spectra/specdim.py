"""Spectral-dimension estimators.

Three routes to d_s, designed to cross-validate each other:

* cdf_slope: 2x the log-log slope of the ESD near zero,
* heat_trace: -2x the log-log slope of P0(t) = (1/n) sum_i exp(-lambda_i t)
  after subtracting the finite-size stationary plateau; P0 is summed one
  time at a time, so a trace needs O(n) memory for any number of times,
* monte_carlo: the same decay read off simulated random-walk return
  frequencies on the unregularized grid graph.

All three fit by one body, plain least squares of log against log over an
explicit window; the windows and r-squared gates are the module constants
below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import taylor_lambda
from .errors import CapacityError, EstimationError
from .graphs import GeometricGraph
from .spectra import SpectralDistribution, _blas_threads, esd_cdf

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
# Walkers per (seed, batch) stream.  Batches are walked _MC_GROUP at a time
# as one vector of up to 16,384 walkers, each batch drawing from its own
# stream into its slice, so the grouping changes no draw.
MC_BATCH = 4096
_MC_GROUP = 4
_MC_WIDTH = _MC_GROUP * MC_BATCH
# Walk steps drawn per rng.integers call.  Any block size reads the same
# stream as one call per step: PCG64 keeps a half-used 32-bit word across
# calls, Lemire rejection skips single words, and the draws fill the block
# in row-major (step-major) order.  Int32 draws read the same words as
# int64 draws, since both take Lemire's 32-bit path for any range below
# 2^32.  Each walking thread holds one (_MC_BLOCK, 16,384) int32 block,
# 512 KiB, and about 860 KiB with its walker vectors and the transient
# draw and index temporaries.  16-step blocks were no faster on two
# threads and cost 1.2 MB more peak RSS.
_MC_BLOCK = 8


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
    """Small-eigenvalue CDF, the inverse of taylor_lambda: (x / taylor_lambda(1))^(d/2)."""
    val = (np.asarray(x, dtype=float)
           / taylor_lambda(1.0, gamma_prime, alpha, d)) ** (d / 2.0)
    return float(val) if val.ndim == 0 else val


def _fit(method: str, x: np.ndarray, y: np.ndarray, scale: float,
         min_points: int, points: str, gate: float) -> SpecDimEstimate:
    """Least-squares fit of log y against log x, with d_s = scale * slope.

    Needs at least min_points points and an r-squared of at least gate; a
    NaN fit fails the gate.  The window is the first and last x.
    """
    if x.size < min_points:
        raise EstimationError(
            f"need at least {min_points} {points}, observed {x.size}")
    X = np.log(x)
    Y = np.log(y)
    A = np.vstack([X, np.ones_like(X)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = Y - (slope * X + intercept)
    ss_tot = float(np.sum((Y - Y.mean()) ** 2))
    ss_res = float(np.sum(resid ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if not r2 >= gate:
        raise EstimationError(
            f"{method} fit r_squared {r2:.4f} below gate {gate}")
    slope = float(slope)
    return SpecDimEstimate(method=method, d_s=scale * slope, slope=slope,
                           window=(float(x[0]), float(x[-1])), r_squared=r2,
                           n_points=int(x.size))


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
    F = esd_cdf(spec, distinct, side="right")
    return _fit("cdf_slope", distinct, F, 2.0, CDF_MIN_POINTS,
                "distinct nonzero eigenvalues in the fit window", -math.inf)


def _p0(spec: SpectralDistribution, t: float, buf: np.ndarray) -> float:
    """P0(t) = (1/n) sum_i exp(-lambda_i t), in the caller's reused n-vector buf."""
    np.multiply(spec.eigenvalues, -t, out=buf)
    return float(np.exp(buf, out=buf).mean())


def _offset(spec: SpectralDistribution) -> float:
    """The stationary plateau of P0: the fraction of zero eigenvalues."""
    return float(np.sum(spec.eigenvalues <= ZERO_TOL)) / spec.n


def heat_trace(spec: SpectralDistribution, times: np.ndarray) -> HeatTrace:
    """P0(t) as an exact finite sum over the whole spectrum, one time at a time."""
    times = np.asarray(times, dtype=float)
    buf = np.empty(spec.n)
    values = np.array([_p0(spec, t, buf) for t in times.ravel()])
    return HeatTrace(times=times, values=values, stationary_offset=_offset(spec))


def find_heat_horizon(spec: SpectralDistribution,
                      t_lo: float = HEAT_T_LO) -> float:
    """Largest useful fit time: where P0(t) - offset decays to
    HEAT_SIGNAL_THRESHOLD.

    Raises EstimationError if the signal has not decayed by t = 1e12.
    """
    offset, buf = _offset(spec), np.empty(spec.n)
    if _p0(spec, t_lo, buf) - offset <= HEAT_SIGNAL_THRESHOLD:
        return t_lo
    lo, hi = t_lo, t_lo
    while _p0(spec, hi, buf) - offset > HEAT_SIGNAL_THRESHOLD:
        hi *= 2.0
        if hi > 1e12:
            raise EstimationError(
                f"heat-trace signal still above {HEAT_SIGNAL_THRESHOLD} at "
                f"t = {hi:.3g}; the spectrum has a negative eigenvalue")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if _p0(spec, mid, buf) - offset > HEAT_SIGNAL_THRESHOLD:
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


def estimate_ds_from_heat_trace(ht: HeatTrace) -> SpecDimEstimate:
    """d_s = -2x the slope of log(P0(t) - offset) vs log t over all grid times."""
    signal = ht.values - ht.stationary_offset
    if np.any(signal <= 10.0 * np.finfo(float).eps):
        raise EstimationError(
            "heat-trace signal underflows the stationary offset inside the window")
    return _fit("heat_trace", ht.times, signal, -2.0, 5,
                "grid times in the window", HEAT_R2_GATE)


def _walk_threads(walkers: int) -> int:
    """Threads a walk of `walkers` runs on: the BLAS thread count in effect,
    read back from OpenBLAS (1 without its getter), and at most one per
    group of _MC_GROUP batches.
    """
    return max(1, min(_blas_threads() or 1, -(-walkers // _MC_WIDTH)))


def _walk_groups(table: np.ndarray, n: int, degree: int, t_max: int,
                 walkers: int, seed, groups) -> np.ndarray:
    """Return counts of the walker groups `groups`, in this thread's buffers.

    Group k holds batches _MC_GROUP * k onward; each batch draws its start
    nodes and then its steps, block by block, from default_rng([seed, b]).
    """
    counts = np.zeros(t_max + 1, dtype=np.int64)
    block = np.empty((_MC_BLOCK, _MC_WIDTH), dtype=np.int32)
    start, pos, idx = (np.empty(_MC_WIDTH, dtype=np.int32) for _ in range(3))
    hit = np.empty(_MC_WIDTH, dtype=bool)
    for group in groups:
        size = min(_MC_WIDTH, walkers - group * _MC_WIDTH)
        batches = [(np.random.default_rng([seed, group * _MC_GROUP + i]),
                    lo, min(lo + MC_BATCH, size))
                   for i, lo in enumerate(range(0, size, MC_BATCH))]
        s, p, ix, h = start[:size], pos[:size], idx[:size], hit[:size]
        for rng, lo, hi in batches:
            s[lo:hi] = rng.integers(0, n, size=hi - lo, dtype=np.int32)
        s *= degree
        p[:] = s
        counts[0] += size
        for t0 in range(1, t_max + 1, _MC_BLOCK):
            steps = min(_MC_BLOCK, t_max + 1 - t0)
            for rng, lo, hi in batches:
                block[:steps, lo:hi] = rng.integers(
                    0, degree, size=(steps, hi - lo), dtype=np.int32)
            for t, choice in enumerate(block[:steps, :size], t0):
                np.add(p, choice, out=ix)
                # indices are in range by construction; "clip" lets take
                # write into pos without the buffer "raise" mode needs
                np.take(table, ix, out=p, mode="clip")
                np.equal(p, s, out=h)
                counts[t] += np.count_nonzero(h)
    return counts


def mc_return_probability(g: GeometricGraph, t_max: int, walkers: int,
                          seed) -> np.ndarray:
    """Per-step return frequencies of uniform-neighbor random walks.

    Requires a regular graph so that the step operator is A/degree and the
    expectation of the return frequency equals (1/n) sum_i nu_i^t over the
    transition eigenvalues nu_i.  Walkers are simulated in fixed-size
    batches with streams keyed by (seed, batch index), and within a batch
    the steps are drawn in blocks from the same stream that one draw per
    step would read.  The batches run, _MC_GROUP at a time, on the BLAS
    thread count in effect (`--threads`, RGG_SPECTRA_THREADS), each thread
    adding into its own integer counts, so the frequencies are bit-identical
    for every block size and every thread count.  The walk runs in int32,
    so n * degree must fit in it; CapacityError otherwise.
    """
    if np.any(g.degrees == 0):
        raise ValueError("graph has a zero-degree node; walks are undefined")
    degree = int(g.degrees[0])
    if np.any(g.degrees != degree):
        raise ValueError("return-probability walks require a regular graph")
    if t_max < 0 or walkers < 1:
        raise ValueError("t_max must be >= 0 and walkers >= 1")
    if len(g.indices) > np.iinfo(np.int32).max:
        raise CapacityError(
            f"n * degree = {len(g.indices)} exceeds the int32 walk table")
    # Walkers carry node * degree, so the neighbor table is flat and one
    # step is an add and a take: table[pos + choice] = neighbor * degree.
    table = g.indices.astype(np.int32)
    table *= degree
    n_groups = -(-walkers // _MC_WIDTH)
    threads = _walk_threads(walkers)

    def walk(k: int) -> np.ndarray:
        return _walk_groups(table, g.n, degree, t_max, walkers, seed,
                            range(k, n_groups, threads))

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads) as pool:
        counts = sum(pool.map(walk, range(threads)))
    return counts / walkers


def mc_stderr(freq: np.ndarray, walkers: int) -> np.ndarray:
    """Binomial standard error of each return frequency."""
    p = np.clip(np.asarray(freq, dtype=float), 0.0, 1.0)
    return np.sqrt(p * (1.0 - p) / walkers)


def estimate_ds_from_mc(freq: np.ndarray, n: int) -> SpecDimEstimate:
    """d_s from the log-log decay of return frequency minus the 1/n plateau.

    The window runs from the first step at or after MC_T_LO with a positive
    subtracted signal to the last step where that signal still clears
    MC_SIGNAL_FLOOR; beyond that the finite-size plateau and sampling noise
    dominate the slope.
    """
    freq = np.asarray(freq, dtype=float)
    t = np.arange(freq.size)
    signal = freq - 1.0 / n
    candidates = np.flatnonzero((t >= MC_T_LO) & (signal >= MC_SIGNAL_FLOOR))
    if candidates.size == 0:
        raise EstimationError(
            f"no steps at t >= {MC_T_LO} with signal >= {MC_SIGNAL_FLOOR}")
    mask = (t >= MC_T_LO) & (t <= t[candidates[-1]]) & (signal > 0)
    return _fit("monte_carlo", t[mask].astype(float), signal[mask], -2.0, 5,
                "usable steps in the window", MC_R2_GATE)


def shift_spectrum(spec: SpectralDistribution, gap: float) -> SpectralDistribution:
    """Shift all eigenvalues down by `gap`, clipping at zero.

    Used to remove the regularizer's spectral floor alpha/(gamma'+alpha)
    before power-law fits; with the floor left in, the near-zero CDF sees a
    hard left edge and every slope estimate is badly biased.
    """
    return SpectralDistribution.from_values(
        np.clip(spec.eigenvalues - gap, 0.0, None))
