"""Closed-form grid spectra: mode formula, continuum limit, expansions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgg_spectra import (
    SingularityError,
    analytic_spectrum,
    build_dgg,
    dgg_eigenvalue,
    dgg_radius,
    fiedler_eigenvalue,
    limit_eigenvalue_sweep,
    mode_table,
    regularizer_gap,
    spectrum_of_graph,
    taylor_lambda,
)


def grid_graph(N, d, k):
    return build_dgg(N ** d, d, dgg_radius(k, N))


class TestModeFormula:
    def test_zero_mode_vanishes(self):
        assert dgg_eigenvalue((0,), 4, 0.0, 1, 8) == 0.0
        for gp, alpha, d, N in ((4, 0.1, 1, 8), (24, 0.5, 2, 16), (26, 0.3, 3, 9)):
            assert abs(dgg_eigenvalue((0,) * d, gp, alpha, d, N)) <= 1e-15

    def test_chain_mode_one_value(self):
        # five-wide stencil on the 8-ring, written out by hand
        expect = 1.0 - math.sin(5 * math.pi / 8) / (4 * math.sin(math.pi / 8)) + 0.25
        got = dgg_eigenvalue((1,), 4, 0.0, 1, 8)
        assert got == pytest.approx(expect, abs=1e-15)
        assert got == pytest.approx(0.6464466, abs=1e-7)

    def test_mode_reflection_symmetry(self):
        for m in range(1, 8):
            lo = dgg_eigenvalue((m,), 4, 0.2, 1, 8)
            hi = dgg_eigenvalue((8 - m,), 4, 0.2, 1, 8)
            assert lo == pytest.approx(hi, abs=1e-12)
        lo = dgg_eigenvalue((1, 4), 8, 0.1, 2, 6)
        hi = dgg_eigenvalue((5, 2), 8, 0.1, 2, 6)
        assert lo == pytest.approx(hi, abs=1e-12)

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="must be odd"):
            dgg_eigenvalue((1,), 5, 0.0, 1, 8)  # stencil width would be even
        with pytest.raises(ValueError, match="must be an integer"):
            dgg_eigenvalue((1, 1), 6, 0.0, 2, 8)  # width not an integer
        with pytest.raises(ValueError, match="exceeds grid side"):
            dgg_eigenvalue((1,), 16, 0.0, 1, 8)  # stencil wider than the grid
        with pytest.raises(ValueError, match="must have 2 components"):
            dgg_eigenvalue((1,), 8, 0.0, 2, 8)  # mode length mismatch
        with pytest.raises(ValueError, match=r"must lie in \[0, 8\)"):
            dgg_eigenvalue((8,), 4, 0.0, 1, 8)  # mode out of range


# every closed-form entry point, called at (gp, alpha)
CLOSED_FORMS = {
    "analytic_spectrum": lambda gp, alpha: analytic_spectrum(8, gp, alpha, 1),
    "mode_table": lambda gp, alpha: mode_table(8, gp, alpha, 1),
    "dgg_eigenvalue": lambda gp, alpha: dgg_eigenvalue((1,), gp, alpha, 1, 8),
    "fiedler_eigenvalue": lambda gp, alpha: fiedler_eigenvalue(8, gp, alpha, 1),
    # the continuum at one w, as the one-element sweep
    "limit_eigenvalue":
        lambda gp, alpha: limit_eigenvalue_sweep([0.1], gp, alpha, 1),
    "limit_eigenvalue_sweep":
        lambda gp, alpha: limit_eigenvalue_sweep([0.0, 0.1], gp, alpha, 1),
    "taylor_lambda": lambda gp, alpha: taylor_lambda(0.1, gp, alpha, 1),
    "regularizer_gap": lambda gp, alpha: regularizer_gap(gp, alpha),
}


class TestAlphaValidation:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_negative_alpha_rejected(self, name):
        # gp + alpha = 1.5 would not divide by zero; the sign alone is wrong
        with pytest.raises(ValueError, match="alpha must be nonnegative") as info:
            CLOSED_FORMS[name](2, -0.5)
        assert not isinstance(info.value, SingularityError)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_nonfinite_alpha_rejected(self, name, alpha):
        with pytest.raises(ValueError, match="finite") as info:
            CLOSED_FORMS[name](4, alpha)
        assert not isinstance(info.value, SingularityError)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_unregularized_degree_zero_is_singular(self, name):
        with pytest.raises(SingularityError, match="minimum degree"):
            CLOSED_FORMS[name](0, 0.0)

    def test_degree_zero_with_regularizer_matches_dense(self):
        # gp = 0 leaves only the regularizer: the edgeless grid
        dense = spectrum_of_graph(build_dgg(8, 1, dgg_radius(0, 8)), 0.5)
        closed = analytic_spectrum(8, 0, 0.5, 1)
        assert np.max(np.abs(closed - dense.eigenvalues)) <= 1e-12
        assert fiedler_eigenvalue(8, 0, 0.5, 1) == pytest.approx(closed[1], abs=1e-12)


def parent_grid_formula(N, gamma_prime, alpha, d):
    """The closed form as written out before the per-mode expression was
    shared: unsorted eigenvalues in row-major mode order."""
    a = round((gamma_prime + 1) ** (1.0 / d))
    m = np.arange(N, dtype=float)
    axis = np.full(N, float(a))
    x = np.pi * m[1:] / N
    axis[1:] = np.sin(a * x) / np.sin(x)
    prod = axis
    for _ in range(d - 1):
        prod = np.multiply.outer(prod, axis)
    lam = 1.0 - prod.ravel() / (gamma_prime + alpha) + 1.0 / (gamma_prime + alpha)
    lam[0] -= alpha / (gamma_prime + alpha)
    return lam


class TestBitwiseParity:
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("N,gamma_prime,d", [
        (32, 4, 1), (512, 16, 1), (64, 8, 2), (9, 26, 3), (10, 124, 3)])
    def test_grid_spectrum_matches_parent_formula(self, N, gamma_prime, d, alpha):
        expect = parent_grid_formula(N, gamma_prime, alpha, d)
        assert mode_table(N, gamma_prime, alpha, d)[2].tobytes() == expect.tobytes()
        assert analytic_spectrum(N, gamma_prime, alpha, d).tobytes() \
            == np.sort(expect).tobytes()


class TestAgainstEigensolver:
    def test_chain_spectrum_matches(self):
        sd = spectrum_of_graph(grid_graph(8, 1, 2), 0.0)
        assert np.max(np.abs(sd.eigenvalues - analytic_spectrum(8, 4, 0.0, 1))) <= 1e-10

    def test_two_dim_spectrum_matches(self):
        sd = spectrum_of_graph(grid_graph(6, 2, 1), 0.1)
        assert np.max(np.abs(sd.eigenvalues - analytic_spectrum(6, 8, 0.1, 2))) <= 1e-10


class TestSpectrumProperties:
    @given(a=st.sampled_from([3, 5, 7]), N=st.integers(7, 24),
           alpha=st.floats(0.0, 2.0), d=st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_eigenvalues_stay_in_operator_range(self, a, N, alpha, d):
        lam = analytic_spectrum(N, a ** d - 1, alpha, d)
        assert lam[0] >= -1e-12
        assert lam[-1] <= 2.0 + 1e-12

    def test_zero_eigenvalue_unique_when_regularized(self):
        for N, gp, d in ((16, 4, 1), (10, 8, 2)):
            lam = analytic_spectrum(N, gp, 0.1, d)
            assert int(np.sum(np.abs(lam) <= 1e-9)) == 1

    def test_mode_table_layout(self):
        modes, w, lam = mode_table(6, 8, 0.1, 2)
        assert modes.shape == (36, 2) and w.shape == (36,) and lam.shape == (36,)
        assert [tuple(m) for m in modes] == list(itertools.product(range(6), repeat=2))
        assert np.array_equal(w, modes.prod(axis=1) / 36.0)
        for row, m in enumerate(modes):
            assert lam[row] == pytest.approx(
                dgg_eigenvalue(tuple(m), 8, 0.1, 2, 6), abs=1e-14)
        assert np.array_equal(np.sort(lam), analytic_spectrum(6, 8, 0.1, 2))


class TestFiedlerMode:
    def test_equals_first_excited_mode(self):
        for N, gp, alpha, d in ((8, 4, 0.1, 1), (6, 8, 0.1, 2), (16, 24, 0.0, 2)):
            fied = fiedler_eigenvalue(N, gp, alpha, d)
            mode = (1,) + (0,) * (d - 1)
            assert fied == pytest.approx(dgg_eigenvalue(mode, gp, alpha, d, N), abs=1e-12)

    def test_minimizes_single_axis_modes(self):
        N, gp, alpha, d = 12, 8, 0.1, 2
        fied = fiedler_eigenvalue(N, gp, alpha, d)
        singles = [dgg_eigenvalue((m, 0), gp, alpha, d, N) for m in range(1, N)]
        assert fied == pytest.approx(min(singles), abs=1e-12)

    def test_is_second_smallest_eigenvalue(self):
        for N, gp, alpha, d in ((8, 4, 0.2, 1), (6, 8, 0.1, 2)):
            lam = analytic_spectrum(N, gp, alpha, d)
            assert fiedler_eigenvalue(N, gp, alpha, d) == pytest.approx(lam[1], abs=1e-12)

    def test_decreases_with_grid_side(self):
        vals = [fiedler_eigenvalue(N, 4, 0.1, 1) for N in (8, 16, 32, 64)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def limit_at(w, gp, alpha, d):
    """The continuum closed form at one w, from a one-element sweep."""
    return float(limit_eigenvalue_sweep([w], gp, alpha, d)[0])


class TestContinuumLimit:
    def test_reduces_to_grid_modes_on_diagonal(self):
        N, gp, alpha, d = 6, 8, 0.1, 2
        for m in (1, 2, 3):
            w = (m / N) ** d
            assert limit_at(w, gp, alpha, d) == pytest.approx(
                dgg_eigenvalue((m,) * d, gp, alpha, d, N), abs=1e-12)

    def test_zero_coordinate_gives_zero(self):
        assert limit_at(0.0, 8, 0.1, 2) == pytest.approx(0.0, abs=1e-15)

    def test_zero_coordinate_equals_grid_zero_mode(self):
        # one per-mode expression: the continuum and the grid round the
        # zero mode alike
        for N, gp, alpha, d in ((32, 16, 0.1, 1), (64, 8, 0.1, 2)):
            zero_mode = mode_table(N, gp, alpha, d)[2][0]
            assert limit_eigenvalue_sweep([0.0], gp, alpha, d)[0] == zero_mode

    def test_sweep_matches_pointwise(self):
        ws = np.array([0.0, 1e-4, 0.01, 0.2, 1.0])
        swept = limit_eigenvalue_sweep(ws, 8, 0.1, 2)
        for wi, li in zip(ws, swept):
            assert li == pytest.approx(limit_at(wi, 8, 0.1, 2), abs=1e-14)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            limit_at(-0.1, 8, 0.1, 2)
        with pytest.raises(ValueError):
            limit_at(1.1, 8, 0.1, 2)
        with pytest.raises(ValueError):
            limit_eigenvalue_sweep(np.array([0.5, 2.0]), 8, 0.1, 2)


class TestTaylorExpansion:
    def test_formula_value(self):
        w, gp, alpha, d = 0.01, 48, 0.1, 2
        expect = (math.pi ** 2 / (6 * (gp + alpha))) * w ** (2 / d) * (gp + 1) ** ((d + 2) / d)
        assert taylor_lambda(w, gp, alpha, d) == pytest.approx(expect, rel=1e-15)

    def test_power_law_scaling(self):
        for d in (1, 2, 3):
            r = taylor_lambda(4e-3, 16, 0.1, d) / taylor_lambda(1e-3, 16, 0.1, d)
            assert r == pytest.approx(4.0 ** (2.0 / d), rel=1e-12)

    def test_vectorized(self):
        ws = np.array([0.0, 1e-3, 2e-3])
        out = taylor_lambda(ws, 16, 0.1, 1)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[2] == pytest.approx(4 * out[1], rel=1e-12)

    def rel_dev(self, w, gp, alpha, d):
        exact = limit_at(w, gp, alpha, d) - regularizer_gap(gp, alpha)
        return abs(taylor_lambda(w, gp, alpha, d) - exact) / exact

    def test_tracks_one_dim_continuum_at_small_w(self):
        for w in (1e-3, 1e-4):
            assert self.rel_dev(w, 48, 0.1, 1) < 5e-3

    def test_two_dim_accuracy_is_window_limited(self):
        # the quadratic coefficient overshoots the two-dimensional continuum
        # curve as w -> 0 and only crosses it inside a narrow band, so
        # window calibration is required before using it as a reference
        gp, alpha, d = 48, 0.1, 2
        assert self.rel_dev(0.0115, gp, alpha, d) < 0.05
        assert self.rel_dev(1e-4, gp, alpha, d) > 0.4


class TestRegularizerGap:
    def test_value_and_unregularized_limit(self):
        assert regularizer_gap(16, 0.1) == pytest.approx(0.1 / 16.1, rel=1e-15)
        assert regularizer_gap(16, 0.0) == 0.0

    def test_matches_large_grid_fiedler_limit(self):
        gp, alpha = 16, 0.1
        fied = fiedler_eigenvalue(4096, gp, alpha, 1)
        assert abs(fied - regularizer_gap(gp, alpha)) < 1e-4
