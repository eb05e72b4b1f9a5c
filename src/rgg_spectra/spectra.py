"""Numerical spectra, empirical spectral distributions, and Levy distances.

The empirical spectral distribution (ESD) of an operator places mass 1/n at
each eigenvalue; its CDF uses the strict-inequality convention
F(x) = #{lambda_i < x} / n and is therefore left-continuous.  The Levy
distance between two ESDs is the smallest band width epsilon such that each
CDF stays inside the other's epsilon-band in both axes.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.metadata
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import _check_regularizer, analytic_spectrum
from .errors import CapacityError
from .graphs import GeometricGraph, _twin_quotient, build_rgg, dgg_degree
from .laplacian import _T, RegNormLaplacian, _assemble, _upper_copy
from .torus import MetricSpec, grid_side, radius_for_gamma, sample_uniform_points

DENSE_CAP = 8192  # largest order we will hand to the dense eigensolver
_PAD = 32  # spectrum_of_graph solves an order that is a multiple of this

# exports of numpy's bundled OpenBLAS as (symbol, restype, *argtypes): the
# two-stage, eigenvalues-only LAPACK solver, whose trailing size_t arguments
# are the Fortran lengths of jobz and uplo, and the thread-count and
# build-configuration getters
_I64P = ctypes.POINTER(ctypes.c_int64)
_DSYEVD_2STAGE = (
    "scipy_dsyevd_2stage_64_", None,
    ctypes.c_char_p, ctypes.c_char_p, _I64P, ctypes.c_void_p, _I64P,
    ctypes.c_void_p, ctypes.c_void_p, _I64P, ctypes.c_void_p, _I64P, _I64P,
    ctypes.c_size_t, ctypes.c_size_t)
_GET_NUM_THREADS = ("scipy_openblas_get_num_threads64_", ctypes.c_int)
_GET_CONFIG = ("scipy_openblas_get_config64_", ctypes.c_char_p)


@dataclass(frozen=True)
class SpectralDistribution:
    """All n eigenvalues, ascending."""

    eigenvalues: np.ndarray
    n: int

    def __post_init__(self):
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float).ravel())
        if ev.size != self.n or self.n < 1:
            raise ValueError("eigenvalue count must equal n >= 1")
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite")
        object.__setattr__(self, "eigenvalues", ev)

    @classmethod
    def from_values(cls, values) -> "SpectralDistribution":
        arr = np.asarray(values, dtype=float).ravel()
        return cls(eigenvalues=arr, n=arr.size)


@dataclass(frozen=True)
class LevyResult:
    distance: float
    cube: float


def esd_cdf(sd: SpectralDistribution, x, side: str = "left") -> np.ndarray:
    """F(x) = #{lambda < x}/n; side='right' evaluates the right limit F(x+)."""
    return np.searchsorted(sd.eigenvalues, np.asarray(x, dtype=float),
                           side=side) / sd.n


def _check_dense_cap(n: int) -> None:
    if n > DENSE_CAP:
        raise CapacityError(
            f"n = {n} exceeds dense cap {DENSE_CAP}; use the closed-form "
            "grid spectrum for larger grids")


@functools.cache
def _openblas(symbol: str, restype, *argtypes):
    """`symbol` from numpy's OpenBLAS, declared; None if it has no such export.

    numpy's wheels bundle an ILP64 OpenBLAS whose LAPACK names carry a
    `scipy_` prefix and a `64_` suffix.  It is a dependency of numpy's
    linalg extension, and dlsym on the extension's handle searches it too.
    """
    fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), symbol, None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, argtypes
    return fn


def _blas_threads() -> int | None:
    """The BLAS thread count in effect, read back from OpenBLAS; None without it."""
    get = _openblas(*_GET_NUM_THREADS)
    return None if get is None else get()


def _solver_provenance() -> dict:
    """The dense eigensolver route, BLAS build and threads, numpy and scipy.

    The thread count is read back, since a pin set after numpy has loaded
    does not take effect; BLAS values are None without a getter.
    """
    config = _openblas(*_GET_CONFIG)
    return {"blas_config": None if config is None else config().decode(),
            "blas_threads": _blas_threads(),
            "eigensolver": "dsyevd_2stage" if _openblas(*_DSYEVD_2STAGE)
            else "eigvalsh",
            "numpy_version": np.__version__,
            "scipy_version": importlib.metadata.version("scipy")}


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric matrix with upper triangle a.

    The values in a's strict lower triangle are never used.  LAPACK's
    two-stage dsyevd_2stage solves a C-ordered, writeable float64 a in
    place and destroys it: it reads the buffer as its transpose, so uplo
    "L", whose band reduction is the faster one, reads the upper triangle.
    Where numpy's OpenBLAS does not export the routine, numpy.linalg.eigvalsh
    reads the lower triangle of a.T, the same values; it copies its whole
    input first, and that copy reads, and so backs, every page of a, so this
    fallback peaks near two n x n matrices even when a is half written.
    """
    solve = _openblas(*_DSYEVD_2STAGE)
    if solve is None:
        return np.linalg.eigvalsh(a.T)
    buf = np.require(a, np.float64, "CW")
    n = buf.shape[0]
    if buf.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {buf.shape}")
    w = np.empty(n)
    i64 = ctypes.c_int64
    info = i64(0)

    def call(work, iwork, lwork, liwork):
        solve(b"N", b"L", ctypes.byref(i64(n)), buf.ctypes.data,
              ctypes.byref(i64(max(n, 1))), w.ctypes.data, work.ctypes.data,
              ctypes.byref(i64(lwork)), iwork.ctypes.data,
              ctypes.byref(i64(liwork)), ctypes.byref(info), 1, 1)
        if info.value != 0:
            raise np.linalg.LinAlgError(
                f"dsyevd_2stage failed with info = {info.value}")

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, iwork, -1, -1)  # workspace query: sizes land in work, iwork
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, dtype=np.int64), lwork, liwork)
    return w


def full_spectrum(L: RegNormLaplacian, *,
                  overwrite: bool = False) -> SpectralDistribution:
    """Dense eigensolve of the whole operator, from the upper triangle it owns.

    Solves a copy of the triangle L owns, so L is left as it was; on the
    two-stage route one assembly plus this solve grows peak RSS by 1.16 x
    8n^2 at n = 4096, and on the eigvalsh fallback, whose own copy backs
    every page of the triangle copy, by 2.57.  With overwrite it solves
    that triangle in place, which destroys L and saves the copy; only an
    owner of L that never reads it again may set overwrite.
    """
    _check_dense_cap(L.n)
    return SpectralDistribution.from_values(
        _eigvalsh(L._upper if overwrite else _upper_copy(L._upper)))


def _solve_quotient(g: GeometricGraph, alpha: float):
    """spectrum_of_graph's spectrum, with its class count and solved order."""
    _check_dense_cap(g.n)
    q, size, degrees = _twin_quotient(g)
    order = _PAD * -(-q.n // _PAD)
    ev = full_spectrum(_assemble(q, alpha, size, degrees, g.n, order),
                       overwrite=True).eigenvalues
    # the pad rows are decoupled, so the solve returns them untouched
    if not np.all(ev[q.n:] == 4.0):
        raise np.linalg.LinAlgError("a pad eigenvalue moved off 4.0")
    atoms = np.repeat(1.0 + 1.0 / (degrees + alpha), size - 1)
    return (SpectralDistribution.from_values(np.concatenate([ev[:q.n], atoms])),
            q.n, order)


def spectrum_of_graph(g: GeometricGraph, alpha: float) -> SpectralDistribution:
    """g's regularized Laplacian spectrum, either kind, solved on g's
    closed-twin quotient.

    Closed twins are nodes with equal closed neighbourhoods, found by
    graphs._closed_twins.  In a class of k twins of degree deg, every
    vector on the class that sums to 0 is an eigenvector of eigenvalue
    1 + 1/(deg + alpha), so the class gives k - 1 of these atoms exactly.
    The rest of the spectrum is that of the operator on the vectors
    constant on each class, the quotient, of order m, the class count.
    laplacian._assemble, the body that assembles every operator, writes
    it padded to an order that is a multiple of _PAD with decoupled rows
    of eigenvalue 4.0, outside [0, 2].  That
    triangle is solved once, in place; the pad values, checked to be
    exactly 4.0, are dropped and the atoms appended.  At an order that is
    a multiple of 32 the two-stage route gave equal bytes at 1 and 2 BLAS
    threads.  A graph without twins, at a multiple of 32 nodes, is solved
    as its full assembly, entry for entry.  The test oracle for every
    graph is full_spectrum(assemble_rgg_laplacian(g, alpha)).
    """
    return _solve_quotient(g, alpha)[0]


def _rotated_cdf(e: np.ndarray, lo: float, hi: float):
    """Corners (u, v) = (x + y, y - x) of the completed graph of the ESD CDF.

    Jumps turn into segments of slope +1 and flats into segments of slope
    -1, so v is a 1-Lipschitz piecewise-linear function of u.  The level-0
    ray is closed at the point (x, y) = (lo, 0) and the level-1 ray at
    (hi - 1, 1); two curves closed at the same lo and hi agree outside.
    """
    y = np.repeat(np.arange(e.size + 1) / e.size, 2)[1:-1]
    x = np.repeat(e, 2)
    return (np.concatenate([[lo], x + y, [hi]]),
            np.concatenate([[-lo], y - x, [2.0 - hi]]))


def levy_distance(fa: SpectralDistribution, fb: SpectralDistribution) -> LevyResult:
    """Exact Levy distance: half the largest gap between the rotated CDF graphs.

    In u = x + y, v = y - x the band condition F(x-eps)-eps <= G(x) <=
    F(x+eps)+eps for all x reads |v_F(u) - v_G(u)| <= 2 eps for all u.  Both
    curves are piecewise linear, so the largest gap lies at a corner of one
    of them.  The result is exactly symmetric and exactly 0 for equal inputs.
    """
    ea, eb = fa.eigenvalues, fb.eigenvalues
    lo = min(ea[0], eb[0]) - 1.0
    hi = max(ea[-1], eb[-1]) + 2.0
    ua, va = _rotated_cdf(ea, lo, hi)
    ub, vb = _rotated_cdf(eb, lo, hi)
    u = np.concatenate([ua, ub])
    gap = np.abs(np.interp(u, ua, va) - np.interp(u, ub, vb))
    dist = 0.5 * float(np.max(gap))
    return LevyResult(distance=dist, cube=dist ** 3)


def trace_bound(a: RegNormLaplacian, b: RegNormLaplacian) -> float:
    """(1/n) trace((A-B)^2), the cube bound on the Levy distance.

    Sums the squares of A - B over the two owned upper triangles, in blocks
    of _T rows: each strict-upper entry counts twice and the diagonal once.
    """
    if a.n != b.n:
        raise ValueError(f"order mismatch: {a.n} vs {b.n}")
    total = 0.0
    for i in range(0, a.n, _T):
        # triu drops the block's strict lower corner, which holds scratch
        diff = np.triu(a._upper[i:i + _T, i:] - b._upper[i:i + _T, i:])
        diff *= diff
        total += 2.0 * np.sum(diff) - np.trace(diff)
    return float(total) / a.n


def lemma2_threshold(gamma: float, gamma_prime: float, alpha: float) -> float:
    """max(4 gamma'/(gamma'+alpha)^2, 8 gamma/(gamma+alpha)^2).

    A degree-0 grid (gamma' = 0) is allowed when alpha > 0.
    """
    if not (gamma > 0 and gamma_prime >= 0):  # also rejects NaN
        raise ValueError("gamma must be positive and gamma_prime nonnegative")
    _check_regularizer(gamma_prime, alpha)
    return max(4.0 * gamma_prime / (gamma_prime + alpha) ** 2,
               8.0 * gamma / (gamma + alpha) ** 2)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    seed: int
    gamma: float
    gamma_prime: int
    alpha: float
    levy: float
    levy_cubed: float
    threshold: float
    exceeds: int


def convergence_study(d: int, gamma: float, alpha: float,
                      metric: MetricSpec, n_list: Sequence[int],
                      seeds: Sequence[int]) -> list[ConvergenceRow]:
    """Levy distance between RGG and grid ESDs at matched gamma, per trial.

    For each (n, seed): sample an RGG at the radius solving the mean-degree
    equation, eigensolve its regularized Laplacian, and compare that
    spectrum with the one of the grid graph of degree dgg_degree(gamma, d)
    on the same n, about twice the RGG radius (see dgg_degree).  The grid
    side is the closed form (analytic_spectrum), which equals the grid
    graph's dense spectrum to rounding; it raises what the dense route
    would, including the dense cap on n.  Every size is checked before the
    first trial runs.  Trials draw from independent streams keyed by
    (seed, n); a repeated size or seed is a ValueError.
    """
    for name, values in (("size", n_list), ("seed", seeds)):
        if len(set(values)) != len(values):
            raise ValueError(f"repeated {name} in {list(values)}")
    gp = dgg_degree(gamma, d)
    # raises the dense route's alpha errors before any trial runs
    thr = lemma2_threshold(gamma, gp, alpha)
    sizes = []
    for n in n_list:
        N = grid_side(n, d)
        _check_dense_cap(n)
        sd_dgg = SpectralDistribution.from_values(
            analytic_spectrum(N, gp, alpha, d))
        sizes.append((n, sd_dgg, radius_for_gamma(gamma, n, d, metric)))
    rows = []
    for n, sd_dgg, radius in sizes:
        for seed in seeds:
            pts = sample_uniform_points(n, d, [seed, n])
            g = build_rgg(pts, radius, metric)
            sd_rgg = spectrum_of_graph(g, alpha)
            res = levy_distance(sd_rgg, sd_dgg)
            rows.append(ConvergenceRow(
                n=n, seed=int(seed), gamma=gamma, gamma_prime=gp, alpha=alpha,
                levy=res.distance, levy_cubed=res.cube, threshold=thr,
                exceeds=int(res.cube > thr)))
    return rows
