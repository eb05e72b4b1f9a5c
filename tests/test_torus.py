"""Torus geometry: wrapped lp distances, regime radii, lattices, CSV I/O."""

import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgg_spectra import (
    INF,
    MetricSpec,
    RegimeError,
    TorusPointSet,
    ball_volume,
    grid_points,
    grid_side,
    radius_for_gamma,
    read_points_csv,
    sample_uniform_points,
    torus_distance,
    write_points_csv,
)
from rgg_spectra.torus import _CSV_CHUNK, _write_csv

ALL_P = (1.0, 2.0, INF)


def wrapped(a, b):
    # independent reference for the per-axis torus difference
    delta = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(delta, 1.0 - delta)


class TestTorusDistance:
    def test_chebyshev_wraparound(self):
        d = torus_distance((0.95, 0.5), (0.05, 0.5), MetricSpec(INF))
        assert d == pytest.approx(0.1, abs=1e-15)

    def test_identical_points_are_at_zero(self):
        for p in ALL_P:
            assert torus_distance((0.3, 0.7), (0.3, 0.7), MetricSpec(p)) == 0.0

    def test_one_dim_l1_wraparound(self):
        assert torus_distance((0.1,), (0.9,), MetricSpec(1)) == pytest.approx(0.2)

    def test_l2_max_separation_corner(self):
        d = torus_distance((0.0, 0.0), (0.5, 0.5), MetricSpec(2))
        assert d == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            torus_distance((0.1, 0.2), (0.1,), MetricSpec(2))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(7)
        for p in ALL_P:
            m = MetricSpec(p)
            pts = rng.random((10_000, 3, 2))
            for a, b, c in pts[:200]:
                dab = torus_distance(a, b, m)
                assert dab == torus_distance(b, a, m)
                assert dab >= 0.0
                assert dab <= torus_distance(a, c, m) + torus_distance(c, b, m) + 1e-12
            # vectorized triangle check over the full batch
            da = wrapped(pts[:, 0], pts[:, 1])
            db = wrapped(pts[:, 0], pts[:, 2])
            dc = wrapped(pts[:, 2], pts[:, 1])
            if p == INF:
                lhs, r1, r2 = da.max(1), db.max(1), dc.max(1)
            else:
                lhs = (da ** p).sum(1) ** (1 / p)
                r1 = (db ** p).sum(1) ** (1 / p)
                r2 = (dc ** p).sum(1) ** (1 / p)
            assert np.all(lhs <= r1 + r2 + 1e-12)

    def test_lp_bounded_by_scaled_chebyshev(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            a = rng.random((500, d))
            b = rng.random((500, d))
            for p in (1.0, 2.0):
                for ai, bi in zip(a, b):
                    lp = torus_distance(ai, bi, MetricSpec(p))
                    linf = torus_distance(ai, bi, MetricSpec(INF))
                    assert lp <= d ** (1.0 / p) * linf + 1e-12

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_identity_of_indiscernibles(self, d, data):
        coord = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False, width=64)
        a = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
        b = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
        dist = torus_distance(a, b, MetricSpec(2))
        if np.array_equal(a, b):
            assert dist == 0.0
        elif dist == 0.0:
            # |delta|^2 underflows to 0 for gaps below ~1.6e-162, so a zero
            # distance only guarantees every axis difference is negligible
            assert np.all(wrapped(a, b) < 1e-160)


class TestRadiusForGamma:
    def test_chebyshev_one_dim_inversion(self):
        assert radius_for_gamma(16, 1024, 1, MetricSpec(INF)) == 16 / 2048

    def test_euclidean_closed_form(self):
        r = radius_for_gamma(12, 4096, 2, MetricSpec(2))
        assert r == pytest.approx(math.sqrt(12 / (math.pi * 4096)), rel=1e-12)

    def test_chebyshev_two_dim(self):
        r = radius_for_gamma(12, 4096, 2, MetricSpec(INF))
        assert r == pytest.approx(math.sqrt(12 / 4096) / 2, rel=1e-12)
        assert r == pytest.approx(0.027063, abs=1e-6)

    def test_forward_volume_recovers_gamma(self):
        for gamma, n, d, p in [(8, 512, 1, INF), (12, 4096, 2, 2),
                               (5, 1000, 3, 1), (20, 900, 2, INF)]:
            m = MetricSpec(p)
            r = radius_for_gamma(gamma, n, d, m)
            assert ball_volume(r, d, m) * n == pytest.approx(gamma, rel=1e-12)

    def test_nan_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma must be positive"):
            radius_for_gamma(math.nan, 64, 1, MetricSpec(INF))

    def test_gamma_at_or_above_n_rejected(self):
        with pytest.raises(ValueError):
            radius_for_gamma(1024, 1024, 1, MetricSpec(INF))

    def test_dimension_below_one_rejected(self):
        with pytest.raises(ValueError, match="d must be at least 1"):
            radius_for_gamma(4, 64, 0, MetricSpec(INF))

    def test_oversized_radius_is_a_regime_error(self):
        # l2 ball volume at r=0.5 is pi/4, so gamma=0.9n pushes r past 0.5
        with pytest.raises(RegimeError):
            radius_for_gamma(900, 1000, 2, MetricSpec(2))

    def test_regime_error_is_a_value_error(self):
        assert issubclass(RegimeError, ValueError)


class TestSampling:
    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            sample_uniform_points(0, 2, 1)

    def test_same_seed_bit_identical(self):
        a = sample_uniform_points(64, 2, 12345)
        b = sample_uniform_points(64, 2, 12345)
        assert np.array_equal(a.points, b.points)

    def test_different_seed_differs(self):
        a = sample_uniform_points(64, 2, 1)
        b = sample_uniform_points(64, 2, 2)
        assert not np.array_equal(a.points, b.points)

    def test_integral_seed_is_recorded(self):
        ps = sample_uniform_points(10, 1, np.int64(3))
        assert ps.seed == 3 and type(ps.seed) is int
        assert np.array_equal(ps.points, sample_uniform_points(10, 1, 3).points)
        assert sample_uniform_points(10, 1, [3, 10]).seed is None
        assert sample_uniform_points(
            10, 1, np.random.SeedSequence(3)).seed is None

    def test_shape_and_bounds(self):
        ps = sample_uniform_points(1000, 3, 0)
        assert ps.points.shape == (1000, 3)
        assert np.all(ps.points >= 0.0) and np.all(ps.points < 1.0)

    def test_coordinate_means_concentrate(self):
        ps = sample_uniform_points(100_000, 2, 99)
        means = ps.points.mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.005)

    def test_point_set_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TorusPointSet(dim=1, points=np.array([[1.0]]))
        with pytest.raises(ValueError):
            TorusPointSet(dim=2, points=np.array([[0.1, -0.2]]))

    def test_point_set_rejects_nan(self):
        # NaN fails both x < 0 and x >= 1, so only a check that each
        # coordinate lies inside the interval catches it
        with pytest.raises(ValueError, match=re.escape("lie in [0, 1)")):
            TorusPointSet(dim=2, points=np.array([[0.1, 0.2], [math.nan, 0.5]]))


class TestGridPoints:
    def test_two_by_two_lattice(self):
        ps = grid_points(4, 2)
        expect = {(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)}
        assert {tuple(row) for row in ps.points} == expect

    def test_three_point_chain(self):
        ps = grid_points(3, 1)
        assert np.allclose(ps.points.ravel(), [0.0, 1 / 3, 2 / 3])

    def test_non_power_rejected(self):
        with pytest.raises(ValueError):
            grid_points(8, 2)

    def test_grid_side_roundoff_guard(self):
        # 125**(1/3) floats to 4.9999...; the exact-power check must not care
        assert grid_side(125, 3) == 5
        assert grid_side(4096, 2) == 64
        with pytest.raises(ValueError):
            grid_side(10, 2)

    @pytest.mark.parametrize("n,d", [(0, 2), (-4, 2), (8, 0)])
    def test_grid_side_rejects_bad_input(self, n, d):
        with pytest.raises(ValueError):
            grid_side(n, d)

    def test_nearest_neighbor_spacing(self):
        ps = grid_points(16, 2)
        pts = ps.points
        m = MetricSpec(INF)
        for i in range(ps.n):
            dists = [torus_distance(pts[i], pts[j], m)
                     for j in range(ps.n) if j != i]
            assert min(dists) == 0.25


class TestPointsCsv:
    def test_round_trip_exact(self, tmp_path):
        ps = sample_uniform_points(50, 3, 5)
        path = tmp_path / "points.csv"
        write_points_csv(ps, path)
        back = read_points_csv(path)
        assert back.dim == 3 and back.n == 50
        assert np.array_equal(back.points, ps.points)

    def test_header_line(self, tmp_path):
        ps = grid_points(9, 2)
        path = tmp_path / "points.csv"
        write_points_csv(ps, path)
        assert path.read_text().splitlines()[0] == "2,9"

    def test_one_dim_round_trip(self, tmp_path):
        ps = grid_points(5, 1)
        path = tmp_path / "points.csv"
        write_points_csv(ps, path)
        back = read_points_csv(path)
        assert np.array_equal(back.points, ps.points)

    @pytest.mark.parametrize("text,message", [
        ("2\n0.1,0.2\n", "expected 2 header fields"),
        ("2,1,0\n0.1,0.2\n", "expected 2 header fields"),
        ("2,1\n0.1,0.2,0.3\n", "expected 2 columns"),
        ("2,2\n0.1\n0.2\n", "expected 2 columns"),
        ("2,2\n0.1,0.2\n", "expected 2 rows of 2 coordinates"),
    ], ids=["short-header", "long-header", "wide-body", "narrow-body",
            "missing-row"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "points.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_points_csv(path)

    def test_nan_row_rejected(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("2,2\n0.1,0.2\nnan,0.5\n")
        with pytest.raises(ValueError, match=re.escape("lie in [0, 1)")):
            read_points_csv(path)


def parent_cell(v):
    """The per-cell formatting the command-line tables used before they
    moved to row templates."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return "%.17g" % float(v)


class TestCsvWriter:
    def test_mixed_table_matches_per_cell_formatting(self, tmp_path):
        rows = [("cdf_slope", True, np.int64(7), 0.1, -0.0, math.inf),
                ("mc", False, np.int64(-3), np.float64(1 / 3), math.nan,
                 -math.inf),
                ("x", np.bool_(True), 0, 1e-300, 2.0 ** 60, np.float64(-0.0))]
        path = _write_csv(tmp_path / "t.csv", "a,b,c,d,e,f",
                          "%s,%d,%d,%.17g,%.17g,%.17g\n",
                          np.array(rows, dtype=object))
        expect = "a,b,c,d,e,f\n" + "".join(
            ",".join(parent_cell(v) for v in row) + "\n" for row in rows)
        assert path.read_text() == expect

    def test_array_rows_span_chunks(self, tmp_path):
        # more rows than one block, as an array and as uneven blocks
        arr = np.random.default_rng(1).random((3 * _CSV_CHUNK + 5, 2))
        expect = "h\n" + "".join("%.17g,%.17g\n" % tuple(r) for r in arr)
        cuts = [0, 1, 1, _CSV_CHUNK + 7, 2 * _CSV_CHUNK, len(arr)]
        for rows in (arr, (arr[a:b] for a, b in zip(cuts, cuts[1:]))):
            path = _write_csv(tmp_path / "a.csv", "h", "%.17g,%.17g\n", rows)
            assert path.read_text() == expect

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_uint_formatter_matches_percent_d(self, tmp_path, columns):
        # every digit count, both sides of each power of ten, up to 2^31 - 1
        values = sorted({0, 2 ** 31 - 1} | {10 ** k for k in range(10)}
                        | {10 ** k - 1 for k in range(1, 10)})
        rows = np.array(np.meshgrid(*[values] * columns, indexing="ij"),
                        dtype=np.int64).reshape(columns, -1).T
        template = ",".join(["%d"] * columns) + "\n"
        expect = "h\n" + "".join(template % tuple(row) for row in rows.tolist())
        path = tmp_path / "u.csv"
        # one array; one-row blocks, so no row is padded to a wider one;
        # and an empty block among them
        for blocks in (rows, (row[None] for row in rows),
                       iter([rows[:5], rows[:0], rows[5:]])):
            assert _write_csv(path, "h", template, blocks).read_text() == expect
        assert _write_csv(path, "h", template, rows[:0]).read_text() == "h\n"
