"""Regularized normalized Laplacians of geometric graphs.

The regularizer adds weight alpha/n between every ordered pair of nodes,
including i = j, so entry (i, j) is

    delta_ij - (adj_ij + alpha/n) / sqrt((deg_i + alpha) (deg_j + alpha)),

and the diagonal is 1 - (alpha/n) / (deg_i + alpha).  Including the
diagonal term is what makes the closed-form grid spectrum exact; many
conventions omit it, this one does not.  For a regular grid graph every
denominator equals degree + alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import _check_alpha
from .errors import SingularityError
from .graphs import GeometricGraph


@dataclass(frozen=True)
class RegNormLaplacian:
    """Symmetric dense operator together with its construction context."""

    n: int
    alpha: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"matrix must be {self.n}x{self.n}")
        # each upper-triangle tile against its mirror, so every pair is read
        # once and the temporaries stay one tile (512 KB of float64)
        T = 256
        for i in range(0, self.n, T):
            for j in range(i, self.n, T):
                diff = m[i:i + T, j:j + T] - m[j:j + T, i:i + T].T
                np.abs(diff, out=diff)
                # not <=, so NaN and inf entries, whose differences are NaN,
                # fail too
                if not np.max(diff, initial=0.0) <= 1e-14:
                    raise ValueError(
                        "matrix must be finite and symmetric to 1e-14")
        object.__setattr__(self, "matrix", m)


def _assemble(g: GeometricGraph, alpha: float) -> RegNormLaplacian:
    """eye(n) - (A + alpha/n) * outer(s, s), built in one n x n buffer."""
    _check_alpha(alpha)
    if alpha == 0 and np.any(g.degrees == 0):
        raise SingularityError(
            "alpha = 0 requires minimum degree >= 1 (isolated vertex present)")
    n = g.n
    s = 1.0 / np.sqrt(g.degrees + alpha)
    # (A_ij + alpha/n) * s_i * s_j is bitwise symmetric: products commute
    L = np.multiply.outer(s, s)
    rows = np.repeat(np.arange(n), g.degrees)
    edge = (1.0 + alpha / n) * L[rows, g.indices]
    L *= alpha / n
    L[rows, g.indices] = edge
    # 0.0 - x, not -x: an entry of M equal to +0.0 stays +0.0, as in eye - M
    np.subtract(0.0, L, out=L)
    L.flat[::n + 1] += 1.0
    return RegNormLaplacian(n=n, alpha=alpha, matrix=L)


def assemble_rgg_laplacian(g: GeometricGraph, alpha: float) -> RegNormLaplacian:
    """Laplacian normalized by the observed degrees, regularized by alpha."""
    return _assemble(g, alpha)


def assemble_dgg_laplacian(g: GeometricGraph, alpha: float) -> RegNormLaplacian:
    """Laplacian of a regular grid graph; all denominators are degree + alpha."""
    if g.n and np.any(g.degrees != g.degrees[0]):
        raise ValueError("grid Laplacian requires a regular graph")
    return _assemble(g, alpha)
