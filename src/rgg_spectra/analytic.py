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

from typing import Sequence

import numpy as np

from .errors import SingularityError
from .torus import _int_root


def _odd_root(gamma_prime: float, d: int) -> int:
    """(gamma'+1)^(1/d) when it is an odd integer, else a ValueError."""
    target = gamma_prime + 1
    root = _int_root(target, d)
    if root < 1 or root ** d != target:
        raise ValueError(
            f"(gamma'+1)^(1/d) must be an integer, got gamma'={gamma_prime}, d={d}")
    if root % 2 == 0:
        raise ValueError(
            f"stencil side (gamma'+1)^(1/d) must be odd, got {root} "
            f"for gamma'={gamma_prime}")
    return root


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")


def _check_regularizer(gamma_prime: float, alpha: float) -> None:
    """The dense assembly's checks on alpha, with its messages."""
    _check_alpha(alpha)
    if gamma_prime + alpha == 0:
        raise SingularityError("alpha = 0 requires minimum degree >= 1")


def _check_mode_geometry(gamma_prime: float, alpha: float, d: int, N: int) -> int:
    _check_regularizer(gamma_prime, alpha)
    a = _odd_root(gamma_prime, d)
    if a > N:
        raise ValueError(
            f"stencil width (gamma'+1)^(1/d) = {a} exceeds grid side N = {N}")
    return a


def _dirichlet(x: np.ndarray, a: int) -> np.ndarray:
    """S = sin(a x) / sin(x), with the limit a filled in at x = 0 and x = pi."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, float(a))
    inner = (x != 0.0) & (x != np.pi)
    out[inner] = np.sin(a * x[inner]) / np.sin(x[inner])
    return out


def _eigenvalue(prod, zero, gamma_prime: float, alpha: float) -> np.ndarray:
    """1 - prod/(gamma'+alpha) + (1 - alpha*delta)/(gamma'+alpha), where
    prod is the product of S over the axes and delta = 1 where `zero`."""
    g = gamma_prime + alpha
    lam = 1.0 - prod / g + 1.0 / g
    return np.where(zero, lam - alpha / g, lam)


def dgg_eigenvalue(mode: Sequence[int], gamma_prime: float, alpha: float,
                   d: int, N: int) -> float:
    """Closed-form eigenvalue at one Fourier mode of the N^d grid."""
    a = _check_mode_geometry(gamma_prime, alpha, d, N)
    m = np.asarray(mode, dtype=np.int64)
    if m.shape != (d,):
        raise ValueError(f"mode must have {d} components")
    if np.any(m < 0) or np.any(m >= N):
        raise ValueError(f"mode components must lie in [0, {N})")
    prod = np.prod(_dirichlet(np.pi * m / N, a))
    return float(_eigenvalue(prod, np.all(m == 0), gamma_prime, alpha))


def _grid_eigenvalues(N: int, gamma_prime: float, alpha: float,
                      d: int) -> np.ndarray:
    """All N^d closed-form eigenvalues in row-major mode order."""
    a = _check_mode_geometry(gamma_prime, alpha, d, N)
    axis = _dirichlet(np.pi * np.arange(N) / N, a)
    prod = axis
    for _ in range(d - 1):
        prod = np.multiply.outer(prod, axis)
    zero = np.zeros(prod.size, dtype=bool)
    zero[0] = True
    return _eigenvalue(prod.ravel(), zero, gamma_prime, alpha)


def analytic_spectrum(N: int, gamma_prime: float, alpha: float, d: int) -> np.ndarray:
    """All N^d closed-form eigenvalues, ascending."""
    return np.sort(_grid_eigenvalues(N, gamma_prime, alpha, d))


def mode_table(N: int, gamma_prime: float, alpha: float,
               d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes, weights, and eigenvalues in row-major mode order.

    Returns (modes, w, lam) where modes has shape (N^d, d), the weight
    w = prod_s m_s / N^d matches the scalar sweep convention (w = m/N in
    one dimension, (m/N)^d on the diagonal), and lam[i] is the closed-form
    eigenvalue of modes[i], unsorted.
    """
    lam = _grid_eigenvalues(N, gamma_prime, alpha, d)
    modes = np.indices((N,) * d).reshape(d, -1).T
    w = modes.prod(axis=1) / float(N) ** d
    return modes, w, lam


def limit_eigenvalue_sweep(w_values: np.ndarray, gamma_prime: float,
                           alpha: float, d: int) -> np.ndarray:
    """Continuum closed form at each mode coordinate w of an array.

    Each w in [0, 1] stands for the diagonal mode with every component
    equal, entering through w^(1/d), the continuum analogue of m/N.
    """
    _check_regularizer(gamma_prime, alpha)
    a = _odd_root(gamma_prime, d)
    comps = np.asarray(w_values, dtype=float)[..., None].repeat(d, axis=-1)
    if np.any(comps < 0.0) or np.any(comps > 1.0):
        raise ValueError("w components must lie in [0, 1]")
    prod = np.prod(_dirichlet(np.pi * comps ** (1.0 / d), a), axis=-1)
    return _eigenvalue(prod, np.all(comps == 0.0, axis=-1), gamma_prime, alpha)


def taylor_lambda(w, gamma_prime: float, alpha: float, d: int):
    """Second-order small-w expansion, (pi^2/(6(gamma'+alpha))) w^(2/d) (gamma'+1)^((d+2)/d)."""
    _check_regularizer(gamma_prime, alpha)
    w = np.asarray(w, dtype=float)
    val = (np.pi ** 2 / (6.0 * (gamma_prime + alpha))) \
        * w ** (2.0 / d) * (gamma_prime + 1.0) ** ((d + 2.0) / d)
    return float(val) if val.ndim == 0 else val


def fiedler_eigenvalue(N: int, gamma_prime: float, alpha: float, d: int) -> float:
    """The second-smallest eigenvalue, i.e. the mode (1, 0, ..., 0)."""
    return dgg_eigenvalue((1,) + (0,) * (d - 1), gamma_prime, alpha, d, N)


def regularizer_gap(gamma_prime: float, alpha: float) -> float:
    """Spectral floor alpha/(gamma'+alpha) the regularizer puts under all
    nonzero modes of the grid spectrum."""
    _check_regularizer(gamma_prime, alpha)
    return alpha / (gamma_prime + alpha)
