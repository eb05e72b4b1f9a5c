"""Closed-form spectra of regularized grid-graph Laplacians.

For the Chebyshev grid graph with degree gamma' = (2k+1)^d - 1 the
regularized normalized Laplacian is a circulant tensor plus a rank-one
all-pairs term, so its eigenvalues are available in closed form per Fourier
mode m in {0, ..., N-1}^d:

    lambda_m = 1 - prod_s S(m_s) / (gamma'+alpha) + (1 - alpha*delta_m) / (gamma'+alpha)

with S(m) = sin(m pi (2k+1)/N) / sin(m pi / N) and S(0) = 2k+1 by the
removable-singularity limit.  The formula is exact for the grid graph at
any alpha >= 0.  A continuum version replaces m/N by w^(1/d) with
w in [0, 1], and a second-order expansion around w = 0 plus the lowest
nonzero mode (the Fiedler eigenvalue) are exposed separately.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .errors import SingularityError


def _odd_root(gamma_prime: float, d: int) -> int:
    """(gamma'+1)^(1/d) when it is an odd integer, else a ValueError."""
    target = gamma_prime + 1
    root = round(target ** (1.0 / d))
    for cand in (root, root - 1, root + 1):
        if cand >= 1 and cand ** d == target:
            root = cand
            break
    else:
        raise ValueError(
            f"(gamma'+1)^(1/d) must be an integer, got gamma'={gamma_prime}, d={d}")
    if root % 2 == 0:
        raise ValueError(
            f"stencil side (gamma'+1)^(1/d) must be odd, got {root} "
            f"for gamma'={gamma_prime}")
    return root


def _check_regularizer(gamma_prime: float, alpha: float) -> None:
    """The dense assembly's checks on alpha, with its messages."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if gamma_prime + alpha == 0:
        raise SingularityError("alpha = 0 requires minimum degree >= 1")


def _check_mode_geometry(gamma_prime: float, alpha: float, d: int, N: int) -> int:
    _check_regularizer(gamma_prime, alpha)
    a = _odd_root(gamma_prime, d)
    if a > N:
        raise ValueError(
            f"stencil width (gamma'+1)^(1/d) = {a} exceeds grid side N = {N}")
    return a


def _dirichlet(m: np.ndarray, a: int, N: int) -> np.ndarray:
    """S(m) = sin(a pi m / N) / sin(pi m / N) with S(0) = a."""
    m = np.asarray(m, dtype=float)
    out = np.full(m.shape, float(a))
    nz = m != 0
    x = np.pi * m[nz] / N
    out[nz] = np.sin(a * x) / np.sin(x)
    return out


def dgg_eigenvalue(mode: Sequence[int], gamma_prime: float, alpha: float,
                   d: int, N: int) -> float:
    """Closed-form eigenvalue at one Fourier mode of the N^d grid."""
    a = _check_mode_geometry(gamma_prime, alpha, d, N)
    m = np.asarray(mode, dtype=np.int64)
    if m.shape != (d,):
        raise ValueError(f"mode must have {d} components")
    if np.any(m < 0) or np.any(m >= N):
        raise ValueError(f"mode components must lie in [0, {N})")
    prod = float(np.prod(_dirichlet(m, a, N)))
    delta = 1.0 if np.all(m == 0) else 0.0
    return 1.0 - prod / (gamma_prime + alpha) + (1.0 - alpha * delta) / (gamma_prime + alpha)


def iter_modes(N: int, d: int) -> Iterator[tuple[int, ...]]:
    """Lazily enumerate the N^d mode lattice in row-major order."""
    return itertools.product(range(N), repeat=d)


def analytic_spectrum(N: int, gamma_prime: float, alpha: float, d: int) -> np.ndarray:
    """All N^d closed-form eigenvalues, ascending."""
    a = _check_mode_geometry(gamma_prime, alpha, d, N)
    axis = _dirichlet(np.arange(N), a, N)
    prod = axis
    for _ in range(d - 1):
        prod = np.multiply.outer(prod, axis)
    lam = 1.0 - prod / (gamma_prime + alpha) + 1.0 / (gamma_prime + alpha)
    lam = lam.ravel()
    lam[0] -= alpha / (gamma_prime + alpha)  # delta term at the zero mode
    return np.sort(lam)


def mode_table(N: int, gamma_prime: float, alpha: float,
               d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes, weights, and eigenvalues in row-major mode order.

    Returns (modes, w, lam) where modes has shape (N^d, d), the weight
    w = prod_s m_s / N^d matches the scalar sweep convention (w = m/N in
    one dimension, (m/N)^d on the diagonal), and lam[i] is the closed-form
    eigenvalue of modes[i], unsorted.
    """
    a = _check_mode_geometry(gamma_prime, alpha, d, N)
    axis = _dirichlet(np.arange(N), a, N)
    prod = axis
    for _ in range(d - 1):
        prod = np.multiply.outer(prod, axis)
    lam = 1.0 - prod.ravel() / (gamma_prime + alpha) + 1.0 / (gamma_prime + alpha)
    lam[0] -= alpha / (gamma_prime + alpha)
    modes = np.indices((N,) * d).reshape(d, -1).T
    w = modes.prod(axis=1) / float(N) ** d
    return modes, w, lam


def _continuum_factor(u: np.ndarray, a: int) -> np.ndarray:
    """sin(pi u a) / sin(pi u) with the u -> 0 and u -> 1 limits filled in."""
    u = np.asarray(u, dtype=float)
    out = np.full(u.shape, float(a))
    inner = (u != 0.0) & (u != 1.0)
    x = np.pi * u[inner]
    out[inner] = np.sin(a * x) / np.sin(x)
    return out


def limit_eigenvalue(w, gamma_prime: float, alpha: float, d: int):
    """Continuum closed form at mode coordinate w.

    `w` may be a scalar (the symmetric sweep, all components equal) or a
    length-d vector; components live in [0, 1] and enter through w^(1/d),
    the continuum analogue of m/N.
    """
    a = _odd_root(gamma_prime, d)
    w_arr = np.asarray(w, dtype=float)
    scalar_sweep = w_arr.ndim == 0
    if scalar_sweep:
        comps = np.full(d, float(w_arr))
    else:
        if w_arr.shape != (d,):
            raise ValueError(f"w must be scalar or have {d} components")
        comps = w_arr
    if np.any(comps < 0.0) or np.any(comps > 1.0):
        raise ValueError("w components must lie in [0, 1]")
    u = comps ** (1.0 / d)
    prod = float(np.prod(_continuum_factor(u, a)))
    delta = 1.0 if np.all(comps == 0.0) else 0.0
    return 1.0 - prod / (gamma_prime + alpha) + (1.0 - alpha * delta) / (gamma_prime + alpha)


def limit_eigenvalue_sweep(w_values: np.ndarray, gamma_prime: float,
                           alpha: float, d: int) -> np.ndarray:
    """Vectorized symmetric sweep of limit_eigenvalue over scalar w values."""
    a = _odd_root(gamma_prime, d)
    w_values = np.asarray(w_values, dtype=float)
    if np.any(w_values < 0.0) or np.any(w_values > 1.0):
        raise ValueError("w must lie in [0, 1]")
    u = w_values ** (1.0 / d)
    factor = _continuum_factor(u, a) ** d
    delta = (w_values == 0.0).astype(float)
    return 1.0 - factor / (gamma_prime + alpha) + (1.0 - alpha * delta) / (gamma_prime + alpha)


def taylor_lambda(w, gamma_prime: float, alpha: float, d: int):
    """Second-order small-w expansion, (pi^2/(6(gamma'+alpha))) w^(2/d) (gamma'+1)^((d+2)/d)."""
    w = np.asarray(w, dtype=float)
    val = (np.pi ** 2 / (6.0 * (gamma_prime + alpha))) \
        * w ** (2.0 / d) * (gamma_prime + 1.0) ** ((d + 2.0) / d)
    return float(val) if val.ndim == 0 else val


def fiedler_eigenvalue(N: int, gamma_prime: float, alpha: float, d: int) -> float:
    """The second-smallest eigenvalue, i.e. the mode (1, 0, ..., 0)."""
    a = _check_mode_geometry(gamma_prime, alpha, d, N)
    ratio = math.sin(math.pi * a / N) / math.sin(math.pi / N)
    return 1.0 / (gamma_prime + alpha) + 1.0 \
        - (1.0 + gamma_prime) ** ((d - 1.0) / d) * ratio / (gamma_prime + alpha)


def regularizer_gap(gamma_prime: float, alpha: float) -> float:
    """Spectral floor alpha/(gamma'+alpha) the regularizer puts under all
    nonzero modes of the grid spectrum."""
    return alpha / (gamma_prime + alpha)
