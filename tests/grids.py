"""Lattice and hand-built graph inputs shared by the test suite."""

import numpy as np

from rgg_spectra import INF, GeometricGraph, TorusPointSet, build_dgg, dgg_degree
from rgg_spectra import _commands
from rgg_spectra.graphs import _csr_from_pairs


def lattice(N, d):
    """The N^d lattice {0, 1/N, ..., (N-1)/N}^d in row-major order."""
    return TorusPointSet(dim=d, points=np.indices((N,) * d).reshape(d, -1).T / N)


def matched_grid(gamma, N, d):
    """The grid that `spectrum --kind dgg --gamma`, `specdim` and
    `diffusion` build for mean degree gamma on the N^d lattice."""
    radius = _commands._grid_radius(dgg_degree(gamma, d), d, N)
    return build_dgg(N ** d, d, radius)


def graph_of(n, pairs):
    """The graph on n nodes with the undirected edges `pairs`, each i < j."""
    indptr, indices = _csr_from_pairs(
        n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    return GeometricGraph(kind="rgg", n=n, dim=1, p=INF, radius=0.1,
                          indptr=indptr, indices=indices)


def dense(L):
    """The whole symmetric matrix of operator L, its upper triangle mirrored;
    the strict lower triangle that L holds is never read."""
    u = L._upper
    return np.where(np.tri(L.n, k=-1, dtype=bool), u.T, u)
