"""Random and deterministic geometric graphs on the torus.

Random geometric graphs (RGGs) connect sampled points whose lp torus
distance is at most the connection radius; deterministic geometric graphs
(DGGs) do the same on the regular N^d lattice.  Both decide a pair by
one rule, torus._within: max_k delta_k <= radius, or sum_k delta_k^p <=
radius^p, so a pair exactly at the radius connects.  RGG neighbor search
is a numpy cell list, whose cost follows how many points share a cell:
O(n * gamma) for uniform points at mean degree gamma, O(n^2) for points
that all fall in one cell.  The grid matched to an RGG of mean degree
gamma has degree dgg_degree(gamma, d), with k = floor(gamma^(1/d)) steps
per side, built at the radius dgg_radius(k, N).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .torus import (_CSV_CHUNK, MAX_RADIUS, MetricSpec, TorusPointSet,
                    _int_root, _read_csv, _within, _write_csv, grid_side)

# candidate pairs per distance check in build_rgg: its temporaries hold
# about this many pairs, plus one point's candidates when they are more.
# Measured on the graph_io_d2 run, 1 << 15 and below left about 14 MB more
# freed memory mapped after the build, and 1 << 17 was no better
_PAIR_BLOCK = 1 << 16
# closed-row entries per batch of the twin search, 2 MB of int64
_TWIN_BATCH = 1 << 18


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


def _csr_from_pairs(n: int, pairs):
    """Build (indptr, indices) from an (m, 2) array of undirected pairs i < j.

    The caller gives up `pairs`: it is taken as int64, C-ordered, and
    each row i, j is rewritten in place, _CSV_CHUNK rows at a time, into
    its two directed keys src * n + dst, i * n + j and j * n + i.  The
    keys are then sorted; the row pointers are found by binary search
    for the row starts, and the keys become `indices` in place.  So the
    whole graph is held once plus O(n) and one chunk, and the result
    does not depend on the order of the pairs.

    Raises ValueError naming the first pair that is not 0 <= i < j < n,
    or the first repeated pair.
    """
    # the key orders the directed edges by (src, dst); it fits in int64
    # for n <= 3,037,000,499
    key = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1)
    for start in range(0, len(key), 2 * _CSV_CHUNK):
        out = key[start:start + 2 * _CSV_CHUNK]
        i, j = out[0::2].copy(), out[1::2]
        bad = np.flatnonzero((i >= j) | (i < 0) | (j >= n))
        if bad.size:
            k = bad[0]
            raise ValueError(f"edge {i[k]},{j[k]} is not 0 <= i < j < {n}")
        out[0::2] *= n
        out[0::2] += j
        out[1::2] *= n
        out[1::2] += i
    key.sort()
    repeat = key[1:] == key[:-1]
    if np.any(repeat):
        src, dst = divmod(int(key[np.argmax(repeat)]), n)
        raise ValueError(f"edge {src},{dst} appears twice")
    del repeat
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    return indptr, np.remainder(key, n, out=key)


def _row_batches(deg: np.ndarray):
    """Slices of consecutive nodes whose closed rows, deg + 1 entries each,
    total about _TWIN_BATCH; a row longer than that is a batch alone."""
    ends = np.cumsum(deg + 1)
    cuts = np.searchsorted(ends, np.arange(0, deg.sum() + deg.size,
                                           _TWIN_BATCH), side="right")
    cuts = np.unique(np.append(cuts, deg.size))
    return [slice(a, z) for a, z in zip(cuts, cuts[1:])]


def _rows(g: GeometricGraph, v: np.ndarray):
    """The CSR rows of nodes v, concatenated, and the index into v of each
    entry's node."""
    deg = g.degrees[v]
    seg = np.repeat(np.arange(v.size), deg)
    start = g.indptr[v] - (np.cumsum(deg) - deg)
    return g.indices[np.arange(seg.size) + start[seg]], seg


def _closed_rows(g: GeometricGraph, v: np.ndarray):
    """The closed neighbourhoods of nodes v, each ascending, concatenated.

    Node v[k]'s row is its CSR row with v[k] inserted after the neighbours
    below it; it ends at ends[k], and holds degrees[v[k]] + 1 entries.
    """
    nbr, seg = _rows(g, v)
    ends = np.cumsum(g.degrees[v] + 1)
    above = nbr > v[seg]
    rows = np.empty(nbr.size + v.size, dtype=np.int64)
    # entry j of CSR row k moves up by the k self entries before it, and
    # by one more when it lies above v[k]
    rows[np.arange(nbr.size) + seg + above] = nbr
    rows[ends - 1 - np.bincount(seg[above], minlength=v.size)] = v
    return rows, ends


def _same_closed_rows(g: GeometricGraph, a: np.ndarray, b: np.ndarray):
    """Whether a[k] and b[k] have equal closed neighbourhoods, for each k;
    a[k] and b[k] must have equal degrees."""
    same = np.empty(a.size, dtype=bool)
    for part in _row_batches(g.degrees[a]):
        rows_a, ends = _closed_rows(g, a[part])
        rows_b, _ = _closed_rows(g, b[part])
        differ = np.searchsorted(ends, np.flatnonzero(rows_a != rows_b),
                                 side="right")
        same[part] = np.bincount(differ, minlength=ends.size) == 0
    return same


def _twin_weights(n: int) -> np.ndarray:
    """The fixed random 64-bit node weights that _closed_twins sums."""
    return np.random.default_rng(0).integers(
        0, np.iinfo(np.uint64).max, n, dtype=np.uint64, endpoint=True)


def _closed_twins(g: GeometricGraph) -> np.ndarray:
    """Each node's closed-twin class, named by the class's smallest node.

    Nodes i and j are closed twins when their closed neighbourhoods, each
    node with its neighbours, are equal.  Candidates share a degree and a
    64-bit wrapping sum of fixed random node weights over the closed
    neighbourhood, O(n + m) work and one sort of n keys.  The hash only
    groups: each candidate is then compared entry by entry with its
    group's smallest node, in batches of about _TWIN_BATCH entries, and
    those that differ are grouped again among themselves and compared
    again, so a hash collision costs a pass, never a wrong class.
    """
    n = g.n
    deg = g.degrees
    weight = _twin_weights(n)
    code = np.empty(n, dtype=np.uint64)
    nodes = np.arange(n)
    for part in _row_batches(deg):
        rows, ends = _closed_rows(g, nodes[part])
        total = np.zeros(rows.size + 1, dtype=np.uint64)
        np.cumsum(weight[rows], out=total[1:])  # wraps modulo 2^64
        code[part] = total[ends] - total[ends - deg[part] - 1]
    rep = nodes.copy()
    todo = nodes
    while todo.size:
        # stable, so each group of equal keys is ascending
        order = todo[np.lexsort((code[todo], deg[todo]))]
        first = np.ones(order.size, dtype=bool)
        first[1:] = ((code[order[1:]] != code[order[:-1]])
                     | (deg[order[1:]] != deg[order[:-1]]))
        rep[order] = order[first][np.cumsum(first) - 1]
        members = np.sort(order[~first])
        todo = members[~_same_closed_rows(g, members, rep[members])]
    return rep


def _twin_quotient(g: GeometricGraph):
    """g's closed-twin classes as a graph, with each class's size and degree.

    The classes are ordered by their smallest node, and class C is joined
    to class D when their nodes are; twins are joined to each other, so
    those links fall inside a class and are dropped.  The edges come from
    the rows of the classes' smallest nodes, deduplicated before
    _csr_from_pairs.  Returns the quotient GeometricGraph, the class sizes
    and the classes' degrees in g.
    """
    rep = _closed_twins(g)
    first = rep == np.arange(g.n)
    reps = np.flatnonzero(first)
    label = (np.cumsum(first) - 1)[rep]
    m = reps.size
    nbr, src = _rows(g, reps)
    dst = label[nbr]
    keep = src < dst
    key = np.unique(src[keep] * m + dst[keep])
    indptr, indices = _csr_from_pairs(m, np.stack(divmod(key, m), axis=1))
    q = replace(g, n=m, indptr=indptr, indices=indices)
    return q, np.bincount(label, minlength=m), g.degrees[reps]


def _cell_pairs(points: np.ndarray, radius: float, p: float) -> list:
    """The pairs of rows of `points` within the radius, as (k, 2) blocks.

    The torus is cut into C^d cells, C per axis, with C the largest count
    whose cells are wider than the radius, by a margin that covers the
    rounding of x * C and of the distance, and at most ceil(n^(1/d)), so
    the cell table stays O(n).  A neighbor then lies in the same or an
    adjacent cell, modulo C.  The points are sorted by cell, and each
    unordered pair of adjacent cells is visited once: of the 3^d cell
    offsets, distinct modulo C, one of each pair o, -o is kept, and an
    offset equal to its own negative (the zero offset, or +-1 at C = 2)
    keeps only candidates j > i.  The candidates are decided by
    torus._within in blocks of about _PAIR_BLOCK.
    """
    n, d = points.shape
    cells = min(int(1.0 / radius), _int_root(n - 1, d) + 1)
    # at C <= 3 every cell is adjacent to every other, so no margin is due
    while cells > 3 and cells * (radius + 2.0 ** -49) >= 1.0:
        cells -= 1
    dims = (cells,) * d
    # x < 1 keeps the rounded x * C below C, so no cell id needs a clip
    cell = (points * cells).astype(np.int64).T  # one row per axis
    flat = np.ravel_multi_index(cell, dims)
    order = np.argsort(flat)
    counts = np.bincount(flat, minlength=cells ** d)
    ends = np.cumsum(counts)
    starts = ends - counts
    del flat, counts
    cell = cell[:, order]  # points in cell order
    coords = points[order].T.copy()
    position = np.arange(n)
    # the 3^d offsets, each named by the flat id of its cell modulo C
    steps = np.indices((3,) * d).reshape(d, -1) - 1
    codes, flipped = (np.ravel_multi_index(sign * steps, dims, mode="wrap")
                      for sign in (1, -1))
    _, first = np.unique(codes, return_index=True)
    kept = []
    for step in first[codes[first] <= flipped[first]]:
        nbr = np.ravel_multi_index(cell + steps[:, step, None], dims, mode="wrap")
        lo, hi = starts[nbr], ends[nbr]
        if codes[step] == flipped[step]:
            np.maximum(lo, position + 1, out=lo)
        reps = np.maximum(hi - lo, 0)
        # candidates of point k are bounds[k]:bounds[k+1] in this offset's list
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(reps, out=bounds[1:])
        cuts = np.unique(np.append(np.searchsorted(
            bounds, np.arange(0, bounds[-1], _PAIR_BLOCK)), n))
        for a, z in zip(cuts, cuts[1:]):
            i = np.repeat(position[a:z], reps[a:z])
            j = np.arange(bounds[a], bounds[z]) - np.repeat(bounds[a:z] - lo[a:z],
                                                            reps[a:z])
            keep = _within((x[i] - x[j] for x in coords), radius, p)
            i, j = order[i[keep]], order[j[keep]]
            kept.append(np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1))
    return kept


def build_rgg(points: TorusPointSet, radius: float,
              metric: MetricSpec = MetricSpec()) -> GeometricGraph:
    """Connect every pair of points at lp torus distance <= radius.

    Ties at exactly the radius connect; there is no epsilon slack.  The
    neighbors are found by a cell list (see _cell_pairs) and decided by
    torus._within, the rule build_dgg uses.  For uniform points each
    point meets the points of about (3^d + 1) / 2 cells of side about
    the radius, O(gamma) candidates at mean degree gamma; on clustered
    input the search checks every pair that shares or neighbors a cell,
    n(n-1)/2 when all points share one.  The build holds the kept pair
    blocks and their copy in one array at once, and that array becomes
    the 2m CSR keys in place.
    """
    if not (0.0 < radius < MAX_RADIUS):
        raise ValueError(f"radius must lie in (0, 0.5), got {radius}")
    # copied here, once _cell_pairs has freed its O(n) cell arrays
    kept = _cell_pairs(points.points, radius, metric.p)
    pairs = np.empty((sum(len(block) for block in kept), 2), dtype=np.int64)
    end = len(pairs)
    while kept:  # each block is dropped once it is copied
        block = kept.pop()
        pairs[end - len(block):end] = block
        end -= len(block)
    indptr, indices = _csr_from_pairs(points.n, pairs)
    return GeometricGraph(kind="rgg", n=points.n, dim=points.dim, p=metric.p,
                          radius=radius, indptr=indptr, indices=indices,
                          seed=points.seed)


def build_dgg(n: int, d: int, radius: float,
              metric: MetricSpec = MetricSpec()) -> GeometricGraph:
    """Geometric graph on the N^d lattice, N = n^(1/d).

    Vertex-transitive: every node sees the same offset stencil.  Under the
    Chebyshev metric each degree equals (2k+1)^d - 1, where k is the largest
    integer with k/N <= radius.  An offset connects by torus._within, the
    rule of build_rgg, applied to its exactly wrapped per-axis distance,
    so ties at exactly the radius connect for every p.
    """
    if not (0.0 < radius < MAX_RADIUS):
        raise ValueError(f"radius must lie in (0, 0.5), got {radius}")
    N = grid_side(n, d)
    coords = np.indices((N,) * d).reshape(d, -1).T  # row-major lattice order
    # every lattice vector is a candidate offset, wrapped exactly in integers
    within = _within(np.minimum(coords, N - coords).T / N, radius, metric.p)
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
    """Grid degree matched to mean degree gamma: (2*floor(gamma^(1/d))+1)^d - 1.

    gamma is the RGG's mean degree n * vol(r).  With k = floor(gamma^(1/d))
    steps per side, gamma' is about 2^d * gamma, and the Chebyshev grid
    radius (k + 1/2)/N is (2k+1)/gamma^(1/d) times the RGG's gamma^(1/d)/(2N).
    The paper fixes only a constant mean degree; this matching is the
    toolkit's choice, and every Levy distance depends on it."""
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
    header = "%s,%d,%d,%.17g,%.17g," % (g.kind, g.n, g.dim, g.p, g.radius)
    _write_csv(path, header + ("" if g.seed is None else str(g.seed)),
               "%d,%d\n", (g._row_edges(lo, hi) for lo, hi in zip(cuts, cuts[1:])))


def read_graph_csv(path) -> GeometricGraph:
    (kind, n, dim, p, radius, seed_str), pairs = _read_csv(
        path, 6, lambda fields: 2, dtype=np.int64)
    n, dim, p, radius = int(n), int(dim), float(p), float(radius)
    # the values the builders accept; the comparisons also reject NaN
    if n < 0:
        raise ValueError(f"negative node count {n} in {path}")
    if dim < 1:
        raise ValueError(f"dimension {dim} < 1 in {path}")
    if not p >= 1.0:
        raise ValueError(f"lp exponent {p} is not >= 1 in {path}")
    if not 0.0 < radius < MAX_RADIUS:
        raise ValueError(f"radius {radius} is not in (0, 0.5) in {path}")
    indptr, indices = _csr_from_pairs(n, pairs)
    return GeometricGraph(kind=kind, n=n, dim=dim, p=p, radius=radius,
                          indptr=indptr, indices=indices,
                          seed=int(seed_str) if seed_str else None)
