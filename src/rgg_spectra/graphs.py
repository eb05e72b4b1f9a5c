"""Random and deterministic geometric graphs on the torus.

Random geometric graphs (RGGs) connect sampled points whose lp torus
distance is at most the connection radius; deterministic geometric graphs
(DGGs) do the same on the regular N^d lattice.  RGG neighbor search is
scipy's periodic k-d tree (cKDTree with boxsize 1), which compares
sum_k delta_k^p with radius^p, so a pair exactly at the radius connects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .torus import (_CSV_CHUNK, INF, MAX_RADIUS, MetricSpec, TorusPointSet,
                    _int_root, _read_csv, _write_csv, grid_side)


@dataclass(frozen=True)
class GeometricGraph:
    """Undirected simple graph in CSR form with its construction parameters."""

    kind: str  # "rgg" or "dgg"
    n: int
    dim: int
    p: float
    radius: float
    indptr: np.ndarray  # int64, length n + 1
    indices: np.ndarray  # int64; row i is indices[indptr[i]:indptr[i+1]], ascending
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("rgg", "dgg"):
            raise ValueError(f"kind must be 'rgg' or 'dgg', got {self.kind!r}")
        if len(self.indptr) != self.n + 1 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must have length n + 1 and end at len(indices)")

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def adjacency(self) -> list:
        """Per-node neighbor arrays, as views into indices."""
        return np.split(self.indices, self.indptr[1:-1])

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with i < j, sorted lexicographically."""
        return self._row_edges(0, self.n)

    def _row_edges(self, lo: int, hi: int) -> np.ndarray:
        """The edges i < j of CSR rows lo:hi, as edges() orders them."""
        src = np.repeat(np.arange(lo, hi, dtype=np.int64),
                        np.diff(self.indptr[lo:hi + 1]))
        dst = self.indices[self.indptr[lo]:self.indptr[hi]]
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1)

    def mean_degree(self) -> float:
        return float(np.mean(self.degrees))


def _csr_from_pairs(n: int, pairs_i: np.ndarray, pairs_j: np.ndarray):
    """Build (indptr, indices) from undirected int64 pairs i < j.

    One int64 key src * n + dst per directed edge is filled in place into
    a single buffer of 2m keys and sorted; the row pointers are found by
    binary search for the row starts, and the buffer then becomes
    `indices` in place, so the whole graph is held once plus O(n).

    Raises ValueError naming the first pair that is not 0 <= i < j < n,
    or the first repeated pair.
    """
    bad = np.flatnonzero((pairs_i >= pairs_j) | (pairs_i < 0) | (pairs_j >= n))
    if bad.size:
        k = bad[0]
        raise ValueError(f"edge {pairs_i[k]},{pairs_j[k]} is not 0 <= i < j < {n}")
    # the key orders the directed edges by (src, dst); it fits in int64
    # for n <= 3,037,000,499
    m = len(pairs_i)
    key = np.empty(2 * m, dtype=np.int64)
    np.multiply(pairs_i, n, out=key[:m])
    key[:m] += pairs_j
    np.multiply(pairs_j, n, out=key[m:])
    key[m:] += pairs_i
    key.sort()
    repeat = key[1:] == key[:-1]
    if np.any(repeat):
        src, dst = divmod(int(key[np.argmax(repeat)]), n)
        raise ValueError(f"edge {src},{dst} appears twice")
    del repeat
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.searchsorted(key, np.arange(1, n + 1, dtype=np.int64) * n)
    return indptr, np.remainder(key, n, out=key)


def build_rgg(points: TorusPointSet, radius: float,
              metric: MetricSpec = MetricSpec()) -> GeometricGraph:
    """Connect every pair of points at lp torus distance <= radius.

    Ties at exactly the radius connect; there is no epsilon slack.
    """
    if not (0.0 < radius < MAX_RADIUS):
        raise ValueError(f"radius must lie in (0, 0.5), got {radius}")
    # imported here, not at module level, so that start-up does not load
    # scipy.spatial for commands that never build an RGG
    from scipy.spatial import cKDTree
    pairs = cKDTree(points.points, boxsize=1.0).query_pairs(
        radius, p=metric.p, output_type="ndarray")
    indptr, indices = _csr_from_pairs(points.n, pairs[:, 0], pairs[:, 1])
    return GeometricGraph(kind="rgg", n=points.n, dim=points.dim, p=metric.p,
                          radius=radius, indptr=indptr, indices=indices,
                          seed=points.seed)


def build_dgg(n: int, d: int, radius: float,
              metric: MetricSpec = MetricSpec()) -> GeometricGraph:
    """Geometric graph on the N^d lattice, N = n^(1/d).

    Vertex-transitive: every node sees the same offset stencil.  Under the
    Chebyshev metric each degree equals (2k+1)^d - 1, where k is the largest
    integer with k/N <= radius.  An offset connects by the k-d tree's rule
    in build_rgg, sum delta^p <= radius^p, so ties at exactly the radius
    connect for every p.
    """
    if not (0.0 < radius < MAX_RADIUS):
        raise ValueError(f"radius must lie in (0, 0.5), got {radius}")
    N = grid_side(n, d)
    coords = np.indices((N,) * d).reshape(d, -1).T  # row-major lattice order
    # every lattice vector is a candidate offset, wrapped exactly in integers
    delta = np.minimum(coords, N - coords) / N
    if metric.p == INF:
        within = delta.max(axis=1) <= radius
    else:
        within = (delta ** metric.p).sum(axis=1) <= radius ** metric.p
    within[0] = False  # the zero offset
    offsets = coords[within]
    # flat row-major neighbour ids, accumulated one axis at a time, so the
    # build holds two n x degree tables and never an n x degree x d one
    neighbor_ids = np.zeros((n, offsets.shape[0]), dtype=np.int64)
    wrapped = np.empty_like(neighbor_ids)
    for axis in range(d):
        np.add(coords[:, axis, None], offsets[:, axis], out=wrapped)
        np.remainder(wrapped, N, out=wrapped)
        neighbor_ids *= N
        neighbor_ids += wrapped
    neighbor_ids.sort(axis=1)
    indptr = np.arange(n + 1, dtype=np.int64) * offsets.shape[0]
    return GeometricGraph(kind="dgg", n=n, dim=d, p=metric.p, radius=radius,
                          indptr=indptr, indices=neighbor_ids.ravel(), seed=None)


def dgg_degree(gamma: float, d: int) -> int:
    """Grid degree matched to mean degree gamma: (2*floor(gamma^(1/d))+1)^d - 1."""
    return (2 * _int_root(gamma, d) + 1) ** d - 1


def dgg_radius(k: int, N: int) -> float:
    """Canonical tie-free radius selecting exactly k lattice steps per side.

    Falls to (k+0.25)/N when 2k+1 = N so the radius stays below 0.5.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if 2 * k + 1 > N:
        raise ValueError(f"stencil 2k+1 = {2*k+1} exceeds grid side N = {N}")
    if 2 * k + 1 < N:
        return (k + 0.5) / N
    return (k + 0.25) / N


def dgg_for_gamma(gamma: float, N: int, d: int) -> GeometricGraph:
    """Chebyshev DGG whose degree is dgg_degree(gamma, d)."""
    return build_dgg(N ** d, d, dgg_radius(_int_root(gamma, d), N), MetricSpec(INF))


def write_graph_csv(g: GeometricGraph, path) -> None:
    """Header `kind,n,dim,p,radius,seed`, then one `i,j` line per edge (i<j).

    The edges are taken in CSR row blocks, each cut at the first row that
    starts at or past a multiple of _CSV_CHUNK stored entries, and
    `_write_csv` formats each block with `"%d,%d\n"`; so the writer holds
    no whole-graph edge array, only the Python ints of one block, and the
    lines are in edges() order.
    """
    cuts = np.unique(np.append(np.searchsorted(
        g.indptr, np.arange(0, g.indptr[-1], _CSV_CHUNK)), g.n))
    p_str = "inf" if g.p == INF else "%.17g" % g.p
    seed_str = "" if g.seed is None else str(g.seed)
    _write_csv(path, f"{g.kind},{g.n},{g.dim},{p_str},{'%.17g' % g.radius},{seed_str}",
               "%d,%d\n", (g._row_edges(lo, hi) for lo, hi in zip(cuts, cuts[1:])))


def read_graph_csv(path) -> GeometricGraph:
    fields, rows = _read_csv(path, 6, lambda fields: 2, dtype=np.int64)
    kind, n, dim, p_str, radius, seed_str = fields
    n = int(n)
    indptr, indices = _csr_from_pairs(n, rows[:, 0], rows[:, 1])
    return GeometricGraph(kind=kind, n=n, dim=int(dim),
                          p=INF if p_str == "inf" else float(p_str),
                          radius=float(radius), indptr=indptr, indices=indices,
                          seed=int(seed_str) if seed_str else None)
