"""Lattice inputs shared by the test suite."""

import numpy as np

from rgg_spectra import TorusPointSet, build_dgg, dgg_degree
from rgg_spectra import _commands


def lattice(N, d):
    """The N^d lattice {0, 1/N, ..., (N-1)/N}^d in row-major order."""
    return TorusPointSet(dim=d, points=np.indices((N,) * d).reshape(d, -1).T / N)


def matched_grid(gamma, N, d):
    """The grid that `spectrum --kind dgg --gamma`, `specdim` and
    `diffusion` build for mean degree gamma on the N^d lattice."""
    radius = _commands._grid_radius(dgg_degree(gamma, d), d, N)
    return build_dgg(N ** d, d, radius)


def dense(L):
    """The whole symmetric matrix of operator L, its upper triangle mirrored;
    the strict lower triangle that L holds is never read."""
    u = L._upper
    return np.where(np.tri(L.n, k=-1, dtype=bool), u.T, u)
