"""Points on the d-dimensional unit torus and lp geometry helpers.

Coordinates live in [0, 1)^d with periodic wraparound: the distance between
two coordinates along one axis is min(|dx|, 1 - |dx|).  Connection radii for
the constant-mean-degree regime are obtained by inverting the lp ball volume.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import RegimeError

INF = math.inf

# Beyond this radius an lp ball wraps onto itself and the volume formula
# (and every neighbor-search shortcut) stops being valid.
MAX_RADIUS = 0.5

# rows per block when _write_csv cuts an array and lines per block when
# _read_csv parses a body; write_graph_csv cuts its CSR rows into blocks
# of about this many stored entries
_CSV_CHUNK = 1 << 13


@dataclass(frozen=True)
class MetricSpec:
    """The lp metric used for distances; p = math.inf selects Chebyshev."""

    p: float = INF

    def __post_init__(self):
        p = float(self.p)
        if not (p >= 1.0):
            raise ValueError(f"lp exponent must satisfy p >= 1, got {p}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class TorusPointSet:
    """n points on the torus, each row of `points` one coordinate vector."""

    dim: int
    points: np.ndarray  # shape (n, dim), each entry in [0, 1)
    seed: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (n, {self.dim})")
        if pts.shape[0] < 1:
            raise ValueError("point set must contain at least one point")
        if not np.all((pts >= 0.0) & (pts < 1.0)):
            raise ValueError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def torus_distance(a, b, metric: MetricSpec = MetricSpec()) -> float:
    """lp distance between two points of the unit torus."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    delta = np.abs(a - b)
    delta = np.minimum(delta, 1.0 - delta)  # per-axis wrap min(|dx|, 1 - |dx|)
    if metric.p == INF:
        return float(np.max(delta))
    return float(np.sum(delta ** metric.p) ** (1.0 / metric.p))


def _within(diffs, radius: float, p: float) -> np.ndarray:
    """The connection rule of both graph builders, for many pairs at once.

    `diffs` yields one array of coordinate differences per axis.  Each
    axis wraps to delta = min(|dx|, 1 - |dx|), and a pair connects when
    max delta <= radius (p = inf) or sum delta^p <= radius^p, summed axis
    by axis in order; no root is taken, so a pair exactly at the radius
    connects for every p.
    """
    score = None
    for dx in diffs:
        delta = np.abs(dx)
        np.minimum(delta, 1.0 - delta, out=delta)
        if p != INF:
            delta **= p
        if score is None:
            score = delta
        elif p == INF:
            np.maximum(score, delta, out=score)
        else:
            score += delta
    return score <= (radius if p == INF else radius ** p)


def ball_volume(radius: float, d: int, metric: MetricSpec = MetricSpec()) -> float:
    """Volume of the lp ball of the given radius in R^d.

    General formula (2r)^d Gamma(1 + 1/p)^d / Gamma(1 + d/p).  At p = inf,
    Gamma(1) = 1 reduces it to (2r)^d; at p = 2 it is the hypersphere volume.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    p = metric.p
    return (2.0 * radius) ** d * math.gamma(1.0 + 1.0 / p) ** d / math.gamma(1.0 + d / p)


def radius_for_gamma(gamma: float, n: int, d: int,
                     metric: MetricSpec = MetricSpec()) -> float:
    """Radius r with (lp ball volume of r) * n = gamma, the mean degree.

    Raises RegimeError when the solution reaches 0.5, i.e. gamma is too
    large for this n in the constant-degree regime.
    """
    if not gamma > 0:  # also rejects NaN
        raise ValueError("gamma must be positive")
    if d < 1:
        raise ValueError("d must be at least 1")
    if n <= 1:
        raise ValueError("n must be at least 2")
    if gamma >= n:
        raise ValueError(f"gamma must be below n, got gamma={gamma}, n={n}")
    # vol(r) = c * (2r)^d  =>  r = (gamma / (c n))^(1/d) / 2
    unit = ball_volume(0.5, d, metric)  # volume at r = 1/2, i.e. c in c*(2r)^d
    radius = 0.5 * (gamma / (unit * n)) ** (1.0 / d)
    if radius >= MAX_RADIUS:
        raise RegimeError(
            f"radius {radius:.6g} >= 0.5; gamma={gamma} too large for n={n}")
    return radius


def sample_uniform_points(n: int, d: int, seed) -> TorusPointSet:
    """n i.i.d. uniform points; identical seed gives bit-identical output."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d < 1:
        raise ValueError("d must be at least 1")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    scalar_seed = int(seed) if isinstance(seed, numbers.Integral) else None
    return TorusPointSet(dim=d, points=pts, seed=scalar_seed)


def _int_root(x: float, d: int) -> int:
    """floor(x^(1/d)), exact also when x is a perfect d-th power.

    The float root alone is not: 64 ** (1/3) is 3.9999999999999996.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if not 0 <= x < INF:
        raise ValueError(f"need a finite, nonnegative value, got {x}")
    k = round(x ** (1.0 / d))
    # int ** int against a float compares exactly
    while k ** d > x:
        k -= 1
    while (k + 1) ** d <= x:
        k += 1
    return k


def grid_side(n: int, d: int) -> int:
    """N with N^d = n exactly, or a ValueError."""
    N = _int_root(n, d)
    if N < 1 or N ** d != n:
        raise ValueError(f"n={n} is not a perfect {d}-th power")
    return N


def grid_points(n: int, d: int) -> TorusPointSet:
    """The N^d lattice {0, 1/N, ..., (N-1)/N}^d in row-major order."""
    N = grid_side(n, d)
    pts = np.indices((N,) * d).reshape(d, -1).T / N
    return TorusPointSet(dim=d, points=pts, seed=None)


def _write_csv(path, header: str, template: str, rows):
    """The header line, then the rows, written block by block; returns path.

    `template` is a %-format of one row with its newline, such as
    "%d,%.17g\n", and `rows` is a 2-d array, cut into blocks of _CSV_CHUNK
    rows, or an iterable of 2-d array blocks.  Each block is formatted by
    one `%` of the template repeated once per row, so the Python objects
    of a whole large table never exist at once; a str column needs a
    `dtype=object` array.
    """
    blocks = rows
    if isinstance(rows, np.ndarray):
        blocks = (rows[i:i + _CSV_CHUNK] for i in range(0, len(rows), _CSV_CHUNK))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for block in blocks:
            fh.write(template * len(block) % tuple(block.ravel().tolist()))
    return path


def _read_csv(path, n_fields: int, columns, dtype=float):
    """Yield the header fields and the body's line count, then the body.

    The body comes as 2-d blocks of at most _CSV_CHUNK lines each, so a
    caller can fill its own buffer, sized from the line count, without
    the whole body ever being one array; blank lines parse to no row.
    `columns(fields)` gives the body's column count.  Raises ValueError
    when the header has other than n_fields fields or the body has other
    than that many columns.
    """
    with open(path) as fh:
        fields = fh.readline().strip().split(",")
        if len(fields) != n_fields:
            raise ValueError(f"expected {n_fields} header fields in {path}")
        width = columns(fields)
        body_start = fh.tell()
        lines, last = 0, "\n"
        for text in iter(lambda: fh.read(1 << 16), ""):
            lines, last = lines + text.count("\n"), text[-1]
        fh.seek(body_start)
        yield fields, lines + (last != "\n")
        while block := list(islice(fh, _CSV_CHUNK)):
            if all(line == "\n" for line in block):  # loadtxt would warn
                continue
            body = np.loadtxt(block, delimiter=",", dtype=dtype, ndmin=2)
            if body.shape[1] != width:
                raise ValueError(f"expected {width} columns in {path}")
            yield body


def write_points_csv(ps: TorusPointSet, path) -> None:
    """Serialize: header `dim,n`, then one d-column row per point."""
    _write_csv(path, f"{ps.dim},{ps.n}", ",".join(["%.17g"] * ps.dim) + "\n",
               ps.points)


def read_points_csv(path) -> TorusPointSet:
    reader = _read_csv(path, 2, lambda fields: int(fields[0]))
    (dim, n), lines = next(reader)
    dim, n = int(dim), int(n)
    pts = np.empty((lines, dim))
    rows = 0
    for block in reader:
        pts[rows:rows + len(block)] = block
        rows += len(block)
    pts = pts[:rows]
    if rows != n:
        raise ValueError(f"expected {n} rows of {dim} coordinates in {path}")
    return TorusPointSet(dim=dim, points=pts, seed=None)
