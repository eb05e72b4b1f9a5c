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

import mmap

import numpy as np

from .analytic import _check_alpha
from .errors import SingularityError
from .graphs import GeometricGraph

_T = 256  # rows per assembly, copy or trace_bound block, side of a scan tile
_PAD = 32  # every operator is stored at an order that is a multiple of this
_PAD_VALUE = 4.0  # the diagonal of the pad rows, and their eigenvalue


def _mapped(n: int) -> np.ndarray:
    """A fresh M x M float64 array in an anonymous mapping, M = _PAD *
    ceil(n / _PAD), whose rows n to M - 1 hold _PAD_VALUE on the diagonal
    and nothing else; every other page is untouched.

    This is the storage of every operator of order n: the decoupled pad
    rows add M - n eigenvalues _PAD_VALUE, outside [0, 2], that
    spectra.full_spectrum drops, and at an order that is a multiple of _PAD
    the two-stage solve gave equal bytes at 1 and 2 BLAS threads.  A page
    holds no memory until it is written, so an array whose strict lower
    triangle is never written costs about half an M x M matrix.  The
    mapping is advised against huge pages, which would back those pages
    too on hosts that give every large mapping huge pages.
    """
    order = _PAD * -(-n // _PAD)
    buf = mmap.mmap(-1, 8 * max(order * order, 1))  # mmap rejects length 0
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    m = np.frombuffer(buf, np.float64, order * order).reshape(order, order)
    np.fill_diagonal(m[n:, n:], _PAD_VALUE)
    return m


def _upper_copy(m: np.ndarray) -> np.ndarray:
    """Square m's upper triangle, copied into _mapped in blocks of _T rows."""
    u = _mapped(len(m))
    for i in range(0, len(m), _T):
        u[i:min(i + _T, len(m)), i:len(m)] = m[i:i + _T, i:]
    return u


class RegNormLaplacian:
    """Symmetric dense operator together with its construction context.

    n is the operator's true order.  Every operator is its upper triangle,
    owned for life in a fresh mapping from _mapped, whose padded order M is
    the smallest multiple of _PAD at or above n, and written in blocks of
    _T rows, so of the strict lower triangle only the diagonal tiles are
    ever written, and they hold scratch values.  The solvers and trace_bound
    read only the triangle.  A matrix passed in is scanned for symmetry and
    finiteness, then its upper triangle is copied, so the operator costs
    one triangle and never aliases the caller's array.  A matrix symmetric
    only to 1e-14 is thus seen, by the solvers and by trace_bound, as its
    mirrored upper triangle.
    """

    def __init__(self, n: int, alpha: float, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}")
        # each upper-triangle tile against its mirror, so every pair is read
        # once and the temporaries stay one tile (512 KB of float64)
        for i in range(0, n, _T):
            for j in range(i, n, _T):
                diff = m[i:i + _T, j:j + _T] - m[j:j + _T, i:i + _T].T
                np.abs(diff, out=diff)
                # not <=, so NaN and inf entries, whose differences are NaN,
                # fail too
                if not np.max(diff, initial=0.0) <= 1e-14:
                    raise ValueError(
                        "matrix must be finite and symmetric to 1e-14")
        self.n, self.alpha = n, alpha
        self._upper = _upper_copy(m)


def _assemble(g: GeometricGraph, alpha: float, size: np.ndarray,
              degrees: np.ndarray, n: int) -> RegNormLaplacian:
    """The operator of g, of order g.n, node i standing for size[i] closed
    twins of degree degrees[i] in a graph of n nodes.

    With every size 1, degrees g.degrees and n = g.n, this is the upper
    triangle of eye(n) - (A + alpha/n) * outer(s, s).  Otherwise it is
    the quotient on the vectors constant on each class: with rho = alpha/n
    and t = sqrt(size) * s, entry (C, D) is -t_C t_D (rho + 1) for joined
    classes, -t_C t_D rho for others, and the diagonal is
    1 - t_C^2 (rho + (size_C - 1)/size_C).

    It is written in blocks of _T rows, m[i0:i1, i0:g.n], into _mapped, and
    the operator owns it without a copy.  No scan is needed: alpha is
    finite and every degree + alpha is positive, and each entry is a
    product of t_i and t_j, which commute, so the triangle stands for a
    bitwise symmetric matrix.
    """
    _check_alpha(alpha)
    # the graph's own degrees: a clique is one class joined to no other
    if alpha == 0 and np.any(degrees == 0):
        raise SingularityError(
            "alpha = 0 requires minimum degree >= 1 (isolated vertex present)")
    rho = alpha / max(n, 1)  # an empty graph has no entry to scale
    # sqrt(1.0) * s is s, so a graph without twins keeps its bits
    t = np.sqrt(size) * (1.0 / np.sqrt(degrees + alpha))
    # rho, plus the share of a class's ordered pairs that are twin links
    inside = rho + (size - 1.0) / size
    m = _mapped(g.n)
    for i0 in range(0, g.n, _T):
        i1 = min(i0 + _T, g.n)
        b = m[i0:i1, i0:g.n]
        np.multiply.outer(t[i0:i1], t[i0:], out=b)
        e = g._row_edges(i0, i1) - i0
        edge = (1.0 + rho) * b[e[:, 0], e[:, 1]]
        d = np.arange(i1 - i0)
        diagonal = inside[i0:i1] * b[d, d]
        b *= rho
        b[e[:, 0], e[:, 1]] = edge
        b[d, d] = diagonal
        # 0.0 - x, not -x: an entry of M equal to +0.0 stays +0.0, as in eye - M
        np.subtract(0.0, b, out=b)
        b[d, d] += 1.0
    L = RegNormLaplacian.__new__(RegNormLaplacian)
    L.n, L.alpha, L._upper = g.n, alpha, m
    return L


def assemble_rgg_laplacian(g: GeometricGraph, alpha: float) -> RegNormLaplacian:
    """Laplacian normalized by the observed degrees, regularized by alpha."""
    return _assemble(g, alpha, np.ones(g.n), g.degrees, g.n)


def assemble_dgg_laplacian(g: GeometricGraph, alpha: float) -> RegNormLaplacian:
    """Laplacian of a regular grid graph; all denominators are degree + alpha."""
    if g.n and np.any(g.degrees != g.degrees[0]):
        raise ValueError("grid Laplacian requires a regular graph")
    return _assemble(g, alpha, np.ones(g.n), g.degrees, g.n)
