"""Spectral-dimension estimators: CDF slope, heat trace, random walks."""

import math
import tracemalloc

import numpy as np
import pytest

from rgg_spectra import (
    INF,
    CapacityError,
    EstimationError,
    GeometricGraph,
    HeatTrace,
    SingularityError,
    SpectralDistribution,
    analytic_spectrum,
    build_dgg,
    build_rgg,
    default_heat_grid,
    dgg_radius,
    estimate_ds_from_heat_trace,
    estimate_ds_from_mc,
    estimate_ds_from_spectrum,
    find_heat_horizon,
    heat_trace,
    mc_return_probability,
    mc_stderr,
    read_graph_csv,
    regularizer_gap,
    sample_uniform_points,
    shift_spectrum,
    specdim,
    taylor_lambda,
    theoretical_cdf,
)
from rgg_spectra.specdim import (
    _MC_BLOCK,
    _StepDraws,
    CDF_MIN_POINTS,
    CDF_WINDOW_FRACTION,
    HEAT_R2_GATE,
    MC_BATCH,
    MC_R2_GATE,
    MC_SIGNAL_FLOOR,
    MC_T_LO,
    SpecDimEstimate,
    ZERO_TOL,
)


def shifted_grid_spectrum(d, N, gp, alpha=0.1):
    """The closed-form grid spectrum minus the regularizer gap, as specdim runs it."""
    spec = SpectralDistribution.from_values(analytic_spectrum(N, gp, alpha, d))
    return shift_spectrum(spec, regularizer_gap(gp, alpha))


# the spectra behind the criterion-6 goldens
CRITERION_6_SPECTRA = [shifted_grid_spectrum(1, 4096, 16),
                       shifted_grid_spectrum(2, 64, 8)]
CRITERION_6_IDS = ["d1", "d2"]


def power_law_spectrum(n, d):
    """lambda_i = (i/n)^(2/d): the CDF is exactly x^(d/2)."""
    i = np.arange(1, n + 1)
    return SpectralDistribution.from_values((i / n) ** (2.0 / d))


class TestCdfSlope:
    def test_exact_power_law_recovers_dimension(self):
        for d, n in ((1, 2048), (2, 4096)):
            est = estimate_ds_from_spectrum(power_law_spectrum(n, d))
            assert est.method == "cdf_slope"
            assert est.d_s == pytest.approx(float(d), abs=1e-6)
            assert est.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        base = power_law_spectrum(4096, 2)
        scaled = SpectralDistribution.from_values(7.3 * base.eigenvalues)
        a = estimate_ds_from_spectrum(base)
        b = estimate_ds_from_spectrum(scaled)
        assert a.slope == pytest.approx(b.slope, abs=1e-9)

    def test_degenerate_spectrum_rejected(self):
        flat = SpectralDistribution.from_values(np.ones(512))
        with pytest.raises(EstimationError, match="distinct nonzero eigenvalues"):
            estimate_ds_from_spectrum(flat)

    def test_window_records_extremes(self):
        est = estimate_ds_from_spectrum(power_law_spectrum(1000, 1))
        assert est.window[0] < est.window[1]
        assert est.n_points >= 10


class TestTheoreticalCdf:
    def test_prefactor_value(self):
        gp, alpha, d, x = 16, 0.1, 1, 1e-4
        expect = (6 ** 0.5 * 16.1 ** 0.5 / np.pi * 17.0 ** -1.5) * x ** 0.5
        assert theoretical_cdf(x, gp, alpha, d) == pytest.approx(expect, rel=1e-12)

    def test_loglog_slope_is_half_dimension(self):
        x = np.logspace(-6, -4, 50)
        for d in (1, 2, 3):
            y = theoretical_cdf(x, 16, 0.1, d)
            slope = np.polyfit(np.log(x), np.log(y), 1)[0]
            assert slope == pytest.approx(d / 2.0, abs=1e-9)

    def test_round_trips_through_taylor_eigenvalue(self):
        for d in (1, 2, 3):
            gp, alpha = 3 ** d - 1, 0.1
            for w in (1e-6, 1e-4, 1e-2):
                back = theoretical_cdf(taylor_lambda(w, gp, alpha, d), gp, alpha, d)
                assert back == pytest.approx(w, rel=1e-9)

    def test_singular_regularizer_rejected(self):
        with pytest.raises(SingularityError):
            theoretical_cdf(1e-4, 0, 0.0, 1)


class TestHeatTrace:
    def test_two_level_value(self):
        sd = SpectralDistribution.from_values([0.0, 2.0])
        ht = heat_trace(sd, np.array([0.0, 1.0]))
        assert ht.values[0] == pytest.approx(1.0, abs=1e-15)
        assert ht.values[1] == pytest.approx((1 + np.exp(-2)) / 2, abs=1e-15)
        assert ht.stationary_offset == 0.5

    def test_single_zero_mode_is_constant_one(self):
        sd = SpectralDistribution.from_values([0.0])
        ht = heat_trace(sd, np.array([1.0, 10.0, 100.0]))
        assert np.allclose(ht.values, 1.0, atol=1e-15)
        assert ht.stationary_offset == 1.0

    def test_decreasing_and_convex(self):
        sd = SpectralDistribution.from_values(analytic_spectrum(64, 4, 0.0, 1))
        ht = heat_trace(sd, np.linspace(1.0, 200.0, 120))
        diffs = np.diff(ht.values)
        assert np.all(diffs < 0)
        assert np.all(np.diff(diffs) > 0)

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            HeatTrace(times=np.array([1.0, 1.0]), values=np.array([0.5, 0.5]),
                      stationary_offset=0.0)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            HeatTrace(times=np.array([1.0, np.nan, 3.0]),
                      values=np.array([0.5, 0.4, 0.3]), stationary_offset=0.0)

    def test_times_must_be_one_dimensional(self):
        sd = SpectralDistribution.from_values([0.0, 2.0])
        with pytest.raises(ValueError, match="1-d"):
            heat_trace(sd, np.float64(1.0))
        with pytest.raises(ValueError, match="1-d"):
            heat_trace(sd, np.ones((2, 2)))

    @pytest.mark.parametrize("spec", [
        *CRITERION_6_SPECTRA,
        SpectralDistribution.from_values(analytic_spectrum(512, 4, 0.0, 1)),
    ], ids=[*CRITERION_6_IDS, "d1_unshifted"])
    def test_equals_the_outer_product_sum(self, spec):
        times = default_heat_grid(spec)
        expect = np.exp(-np.outer(times, spec.eigenvalues)).mean(axis=1)
        assert np.array_equal(heat_trace(spec, times).values, expect)

    def test_memory_is_linear_in_n(self):
        spec = shifted_grid_spectrum(2, 256, 8)
        times = default_heat_grid(spec)
        tracemalloc.start()
        try:
            heat_trace(spec, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * spec.n


class TestHeatHorizon:
    def test_horizon_hits_threshold(self):
        sd = SpectralDistribution.from_values(analytic_spectrum(256, 4, 0.0, 1))
        t_star = find_heat_horizon(sd)
        ht = heat_trace(sd, np.array([1.0, t_star]))
        assert ht.values[1] - ht.stationary_offset == pytest.approx(1e-3, rel=1e-6)

    def test_lower_threshold_pushes_horizon_out(self, monkeypatch):
        sd = SpectralDistribution.from_values(analytic_spectrum(256, 4, 0.0, 1))
        t_star = find_heat_horizon(sd)
        monkeypatch.setattr(specdim, "HEAT_SIGNAL_THRESHOLD", 1e-4)
        assert find_heat_horizon(sd) > t_star

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("t_lo", [1.0, 10.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("d,N,gp", [(1, 16, 4), (1, 256, 16), (1, 1024, 2),
                                        (1, 4096, 16), (2, 16, 8), (2, 32, 24),
                                        (2, 64, 8)])
    def test_bitwise_equal_to_fixed_step_bisection(self, d, N, gp, alpha,
                                                   t_lo, shifted):
        # oracle: a fixed 200 bisection steps, far past the 52-57 after
        # which the midpoint rounds to an end
        sd = SpectralDistribution.from_values(analytic_spectrum(N, gp, alpha, d))
        if shifted:
            sd = shift_spectrum(sd, regularizer_gap(gp, alpha))
        offset, buf = specdim._offset(sd), np.empty(sd.n)

        def signal(t):
            return specdim._p0(sd, t, buf) - offset

        expect = t_lo
        if signal(t_lo) > specdim.HEAT_SIGNAL_THRESHOLD:
            lo = hi = t_lo
            while signal(hi) > specdim.HEAT_SIGNAL_THRESHOLD:
                hi *= 2.0
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if signal(mid) > specdim.HEAT_SIGNAL_THRESHOLD:
                    lo = mid
                else:
                    hi = mid
            expect = math.sqrt(lo * hi)
        assert find_heat_horizon(sd, t_lo=t_lo) == expect

    def test_default_grid_shape(self):
        sd = SpectralDistribution.from_values(analytic_spectrum(256, 4, 0.0, 1))
        grid = default_heat_grid(sd)
        assert grid.size == 200
        assert grid[0] == pytest.approx(10.0)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_negative_eigenvalue_fails_loudly(self):
        # exp(-t * lambda) grows for lambda < 0, so the signal never decays
        sd = SpectralDistribution.from_values([-1e-3, 0.0, 0.5, 1.0, 1.5])
        with np.errstate(over="ignore"), \
                pytest.raises(EstimationError, match="negative eigenvalue"):
            find_heat_horizon(sd)

    def test_no_signal_grid_rejected(self):
        # the two-level spectrum has decayed far below threshold by t = 10
        sd = SpectralDistribution.from_values([0.0, 2.0])
        with pytest.raises(EstimationError, match="already below"):
            default_heat_grid(sd)


class TestHeatEstimator:
    def test_exact_inverse_time_decay(self):
        t = np.logspace(1, 3, 60)
        ht = HeatTrace(times=t, values=1.0 / t, stationary_offset=0.0)
        est = estimate_ds_from_heat_trace(ht)
        assert est.method == "heat_trace"
        assert est.d_s == pytest.approx(2.0, abs=1e-12)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_pure_exponential_fails_r2_gate(self):
        sd = SpectralDistribution.from_values(np.full(64, 0.05))
        t = np.logspace(0, 2.2, 80)
        ht = heat_trace(sd, t)
        with pytest.raises(EstimationError, match="r_squared"):
            estimate_ds_from_heat_trace(ht)

    def test_nan_fit_fails_r2_gate(self):
        # a negative eigenvalue overflows P0(t) to inf, and the fit to NaN
        sd = SpectralDistribution.from_values([-1e-3, 0.0, 0.5, 1.0, 1.5])
        with np.errstate(over="ignore", invalid="ignore"):
            ht = heat_trace(sd, np.logspace(1, 12, 200))
            with pytest.raises(EstimationError, match="r_squared nan"):
                estimate_ds_from_heat_trace(ht)

    def test_empty_trace_rejected(self):
        ht = HeatTrace(times=np.array([]), values=np.array([]),
                       stationary_offset=0.0)
        with pytest.raises(EstimationError, match="at least 5"):
            estimate_ds_from_heat_trace(ht)

    def test_underflowed_signal_rejected(self):
        t = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        ht = HeatTrace(times=t, values=np.full(5, 0.25), stationary_offset=0.25)
        with pytest.raises(EstimationError, match="underflows"):
            estimate_ds_from_heat_trace(ht)

    def test_short_window_rejected(self):
        t = np.logspace(1, 2, 4)
        ht = HeatTrace(times=t, values=1.0 / t, stationary_offset=0.0)
        with pytest.raises(EstimationError, match="at least 5"):
            estimate_ds_from_heat_trace(ht)


def reference_walk(g, t_max, walkers, seed):
    """One rng.integers draw and one 2-d table lookup per step."""
    degree = int(g.degrees[0])
    neighbor_table = np.stack(g.adjacency)
    counts = np.zeros(t_max + 1, dtype=np.int64)
    done = 0
    batch_index = 0
    while done < walkers:
        size = min(MC_BATCH, walkers - done)
        rng = np.random.default_rng([seed, batch_index])
        start = rng.integers(0, g.n, size=size)
        pos = start.copy()
        counts[0] += size
        for t in range(1, t_max + 1):
            choice = rng.integers(0, degree, size=size)
            pos = neighbor_table[pos, choice]
            counts[t] += int(np.sum(pos == start))
        done += size
        batch_index += 1
    return counts / walkers


class WordStream:
    """A stand-in Generator whose bit generator hands out chosen 32-bit words."""

    def __init__(self, words):
        words = np.asarray(words, dtype="<u4")
        self.words = np.append(words, np.zeros(words.size % 2, "<u4")).view("<u8")
        self.bit_generator = self
        self.state = {"has_uint32": 0, "uinteger": 0}

    def random_raw(self, size):
        raw, self.words = self.words[:size], self.words[size:]
        return raw


def kept_draws(words, degree):
    """Lemire's rule in Python integers: skip, then the high word of w * degree."""
    t = (1 << 32) % degree
    return [(w * degree) >> 32 for w in words if (w * degree) % (1 << 32) >= t]


class TestStepDraws:
    @pytest.mark.parametrize("degree", [1, 2, 6, 8, 24, 26, 48, 46340])
    def test_equal_to_numpy_draws(self, degree):
        ref, rng = (np.random.default_rng([5, degree]) for _ in range(2))
        for r in (ref, rng):
            r.integers(0, 4095, size=7, dtype=np.int32)
        # the odd start draw left a high half-word for the steps to take
        assert rng.bit_generator.state["has_uint32"]
        draw = _StepDraws(rng, degree)
        # odd sizes carry a half-word from call to call; the (3, 5) slice of
        # a wider block is filled in row-major order, as the walk fills it
        block = np.empty((4, 9), dtype=np.int32)
        for shape in (1, 3, (3, 5), 4097, 5, 8 * MC_BATCH + 1, 2, 1):
            out = block[:3, 2:7] if shape == (3, 5) else np.empty(shape, np.int32)
            draw(out)
            expect = ref.integers(0, degree, size=shape, dtype=np.int32)
            assert np.array_equal(out, expect), shape

    def test_skips_the_words_numpy_skips(self):
        degree, size = 46337, 1 << 20
        assert (1 << 32) % degree  # a nonzero skip threshold
        ref, rng = (np.random.default_rng(3) for _ in range(2))
        draw = _StepDraws(rng, degree)
        raw, taken = draw.raw, []

        def counted(k):
            taken.append(k)
            return raw(k)

        draw.raw = counted
        out = np.empty(size, dtype=np.int32)
        draw(out)
        assert np.array_equal(
            out, ref.integers(0, degree, size=size, dtype=np.int32))
        assert 2 * sum(taken) - draw.pending.size > size

    @pytest.mark.parametrize("degree", [46337, 46340])
    def test_words_just_below_each_multiple(self, degree):
        # w * degree just below k * 2^32 is where a rounded product would
        # floor to k instead of k - 1
        k = np.arange(1, degree, dtype=object)
        below = (k * (1 << 32) - 1) // degree
        words = [int(w) for pair in zip(below, below + 1) for w in pair]
        if degree % 2:
            # k * 2^32 = j (mod degree) puts w * degree exactly j below it
            k0 = pow(1 << 32, -1, degree)
            words += [(j * k0 % degree * (1 << 32) - j) // degree
                      for j in range(1, 1000)]
        expect = kept_draws(words, degree)
        out = np.empty(len(expect), dtype=np.int32)
        _StepDraws(WordStream(words), degree)(out)
        assert out.tolist() == expect


# (n, d, k, degree); 24 and 26 are not powers of 2
WALK_GRAPHS = [
    (16, 1, 1, 2), (16, 1, 2, 4), (64, 2, 1, 8), (49, 2, 2, 24),
    (125, 3, 1, 26),
]


class TestRandomWalks:
    @pytest.mark.parametrize("n,d,k,degree", WALK_GRAPHS)
    def test_bitwise_equal_to_per_step_reference(self, n, d, k, degree,
                                                  monkeypatch):
        g = build_dgg(n, d, dgg_radius(k, round(n ** (1.0 / d))))
        assert np.all(g.degrees == degree)
        B = _MC_BLOCK
        # 4 batches share a walker group; the last two counts span two and
        # three groups, each ending in a ragged group
        for walkers in (1, 7, MC_BATCH - 1, MC_BATCH, 2 * MC_BATCH + 3,
                        5 * MC_BATCH + 3, 9 * MC_BATCH + 3):
            for t_max in (0, 1, B - 1, B, B + 1, 3 * B + 5):
                for seed in (0, 11):
                    expect = reference_walk(g, t_max, walkers, seed)
                    for threads in (1, 2, 3):
                        monkeypatch.setattr(specdim, "_walk_threads",
                                            lambda _: threads)
                        got = mc_return_probability(g, t_max, walkers, seed)
                        assert np.array_equal(got, expect), \
                            (walkers, t_max, seed, threads)

    def test_int32_table_capacity_checked_before_allocation(self):
        # n * degree = 2^31 entries; the zero-stride view allocates nothing
        n, degree = 1 << 20, 1 << 11
        g = GeometricGraph(kind="dgg", n=n, dim=2, p=INF, radius=0.01,
                           indptr=np.arange(n + 1, dtype=np.int64) * degree,
                           indices=np.broadcast_to(np.int64(0), (n * degree,)))
        with pytest.raises(CapacityError, match="int32"):
            mc_return_probability(g, 4, 100, 0)

    def test_step_draws_exact_only_below_two_to_the_21(self):
        # a two-node multigraph of degree 2^21; nothing is allocated
        degree = 1 << 21
        g = GeometricGraph(kind="dgg", n=2, dim=1, p=INF, radius=0.5,
                           indptr=np.arange(3, dtype=np.int64) * degree,
                           indices=np.broadcast_to(np.int64(0), (2 * degree,)))
        with pytest.raises(CapacityError, match="2\\^21"):
            mc_return_probability(g, 4, 100, 0)

    def test_one_regular_walk_alternates(self):
        # numpy draws no words at range 1; the raw reader's words change nothing
        g = GeometricGraph(kind="dgg", n=2, dim=1, p=INF, radius=0.5,
                           indptr=np.array([0, 1, 2]), indices=np.array([1, 0]))
        freq = mc_return_probability(g, 9, 4097, 1)
        assert freq.tolist() == [1.0, 0.0] * 5
        assert np.array_equal(freq, reference_walk(g, 9, 4097, 1))

    def test_peak_memory_is_the_table_plus_one_mib_per_thread(self, monkeypatch):
        g = build_dgg(4096, 2, dgg_radius(1, 64))
        assert np.all(g.degrees == 8)
        table_bytes = 4 * len(g.indices)
        threads = 2
        monkeypatch.setattr(specdim, "_walk_threads", lambda _: threads)
        # a first, untraced walk pays the thread pool's import and numpy's
        # one-time set-up, which are not the walk's buffers
        mc_return_probability(g, 1, 8 * MC_BATCH, 0)
        tracemalloc.start()
        try:
            mc_return_probability(g, 128, 8 * MC_BATCH, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes + threads * (1 << 20)

    def test_triangle_return_probability(self):
        # complete graph on 3 nodes: transition eigenvalues 1, -1/2, -1/2
        g = build_dgg(3, 1, dgg_radius(1, 3))
        assert np.all(g.degrees == 2)
        freq = mc_return_probability(g, 2, 20000, 7)
        assert freq[0] == 1.0
        assert freq[1] == 0.0  # no self loops, returns at t=1 are impossible
        se = mc_stderr(np.array([0.5]), 20000)[0]
        assert abs(freq[2] - 0.5) <= 4 * se

    def test_matches_spectral_identity_within_three_sigma(self):
        g = build_dgg(16, 1, dgg_radius(2, 16))
        n, degree = 16, 4
        walkers, t_max = 100000, 64
        freq = mc_return_probability(g, t_max, walkers, 2)
        nu = (np.sin(5 * np.pi * np.arange(16) / 16)
              / np.where(np.arange(16) == 0, 1.0, np.sin(np.pi * np.arange(16) / 16)))
        nu[0] = 5.0
        nu = (nu - 1.0) / degree  # transition eigenvalues of the step operator
        for t in range(t_max + 1):
            p = float(np.mean(nu ** t))
            se = mc_stderr(np.array([p]), walkers)[0]
            if se < 1e-12:
                assert abs(freq[t] - p) < 1e-12
            else:
                assert abs(freq[t] - p) <= 3 * se, f"t={t}"

    def test_deterministic_given_seed(self):
        g = build_dgg(16, 1, dgg_radius(2, 16))
        a = mc_return_probability(g, 16, 9000, 3)
        b = mc_return_probability(g, 16, 9000, 3)
        assert np.array_equal(a, b)
        c = mc_return_probability(g, 16, 9000, 4)
        assert not np.array_equal(a, c)

    def test_irregular_graph_rejected(self):
        g = build_rgg(sample_uniform_points(64, 2, 1), 0.2)
        assert len(set(g.degrees.tolist())) > 1
        with pytest.raises(ValueError, match="regular"):
            mc_return_probability(g, 4, 100, 0)

    def test_zero_degree_graph_rejected(self):
        g = build_dgg(64, 1, 0.001)  # below one lattice step
        assert np.all(g.degrees == 0)
        with pytest.raises(ValueError, match="zero-degree"):
            mc_return_probability(g, 8, 10, 0)

    def test_empty_graph_rejected(self, tmp_path):
        # a valid graph file with no nodes reads back as an empty graph
        path = tmp_path / "graph.csv"
        path.write_text("rgg,0,1,inf,0.1,\n")
        g = read_graph_csv(path)
        assert g.n == 0
        with pytest.raises(ValueError, match="no nodes"):
            mc_return_probability(g, 8, 10, 0)

    def test_bad_sizes_rejected(self):
        g = build_dgg(8, 1, dgg_radius(1, 8))
        with pytest.raises(ValueError):
            mc_return_probability(g, -1, 100, 0)
        with pytest.raises(ValueError):
            mc_return_probability(g, 4, 0, 0)

    def test_stderr_formula(self):
        se = mc_stderr(np.array([0.0, 0.5, 1.0]), 400)
        assert se[0] == 0.0 and se[2] == 0.0
        assert se[1] == pytest.approx(0.025, abs=1e-15)


class TestMcEstimator:
    def test_exact_decay_recovers_dimension(self):
        t = np.arange(0, 2001)
        freq = np.zeros(t.size)
        freq[0] = 1.0
        freq[1:] = 1e-6 + t[1:] ** -1.0
        est = estimate_ds_from_mc(freq, n=10 ** 6)
        assert est.method == "monte_carlo"
        assert est.d_s == pytest.approx(2.0, abs=1e-9)
        assert est.window == (10.0, 1000.0)  # signal crosses the floor at 1e-3

    def test_no_candidates_rejected(self):
        freq = np.full(64, 1e-5)
        with pytest.raises(EstimationError, match="no steps"):
            estimate_ds_from_mc(freq, n=10 ** 6)

    def test_short_window_rejected(self):
        freq = np.zeros(14)
        freq[10:13] = 0.5
        with pytest.raises(EstimationError, match="at least 5"):
            estimate_ds_from_mc(freq, n=10 ** 6)

    def test_nan_fit_fails_r2_gate(self):
        freq = np.full(200, 1e-6)
        freq[10:150] = 1.0 / np.arange(10, 150)
        freq[100] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(EstimationError, match="r_squared nan"):
            estimate_ds_from_mc(freq, n=10 ** 6)

    def test_erratic_signal_fails_r2_gate(self):
        t = np.arange(0, 200)
        freq = np.full(t.size, 1e-6)
        freq[10:150] = np.where(t[10:150] % 2 == 0, 0.9, 0.002)
        with pytest.raises(EstimationError, match="r_squared"):
            estimate_ds_from_mc(freq, n=10 ** 6)


class TestShiftSpectrum:
    def test_shifts_and_clips(self):
        sd = SpectralDistribution.from_values([0.0, 0.05, 0.3, 1.0])
        out = shift_spectrum(sd, 0.1)
        assert np.allclose(out.eigenvalues, [0.0, 0.0, 0.2, 0.9], atol=1e-15)


class TestCrossMethodAgreement:
    def test_all_three_methods_near_true_dimension(self):
        # unregularized chain grid, 1024 nodes, degree 16
        lam = analytic_spectrum(1024, 16, 0.0, 1)
        sd = SpectralDistribution.from_values(lam)
        cdf = estimate_ds_from_spectrum(sd)
        heat = estimate_ds_from_heat_trace(heat_trace(sd, default_heat_grid(sd)))
        g = build_dgg(1024, 1, dgg_radius(8, 1024))
        mc = estimate_ds_from_mc(mc_return_probability(g, 128, 100000, 0), 1024)
        true = 1.0  # the spectral dimension of the chain
        assert abs(cdf.d_s - true) <= 0.2
        assert abs(heat.d_s - true) <= 0.25
        assert abs(mc.d_s - true) <= 0.25
        assert cdf.d_s == pytest.approx(0.9305518997760871, abs=1e-9)
        assert heat.d_s == pytest.approx(1.2184955790542973, abs=1e-9)
        assert mc.d_s == pytest.approx(1.0731343308759171, abs=1e-9)


def reference_fit(x, y):
    """The least-squares log-log fit and its r-squared, written out apart from specdim."""
    X, Y = np.log(x), np.log(y)
    (slope, intercept), *_ = np.linalg.lstsq(
        np.vstack([X, np.ones_like(X)]).T, Y, rcond=None)
    ss_tot = float(np.sum((Y - Y.mean()) ** 2))
    ss_res = float(np.sum((Y - (slope * X + intercept)) ** 2))
    return float(slope), 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def reference_cdf_estimate(spec):
    ev = spec.eigenvalues
    k = math.ceil(CDF_WINDOW_FRACTION * spec.n)
    distinct = np.unique(ev[ev > ZERO_TOL][:k])
    assert distinct.size >= CDF_MIN_POINTS
    slope, r2 = reference_fit(
        distinct, np.searchsorted(ev, distinct, side="right") / spec.n)
    return SpecDimEstimate("cdf_slope", 2.0 * slope, slope,
                           (float(distinct[0]), float(distinct[-1])), r2,
                           int(distinct.size))


def reference_heat_estimate(spec):
    t = default_heat_grid(spec)
    ev = spec.eigenvalues
    signal = (np.exp(-np.outer(t, ev)).mean(axis=1)
              - float(np.sum(ev <= ZERO_TOL)) / spec.n)
    slope, r2 = reference_fit(t, signal)
    assert r2 >= HEAT_R2_GATE
    return SpecDimEstimate("heat_trace", -2.0 * slope, slope,
                           (float(t[0]), float(t[-1])), r2, int(t.size))


def reference_mc_estimate(freq, n):
    t = np.arange(freq.size)
    signal = freq - 1.0 / n
    t_hi = int(t[(t >= MC_T_LO) & (signal >= MC_SIGNAL_FLOOR)][-1])
    mask = (t >= MC_T_LO) & (t <= t_hi) & (signal > 0)
    slope, r2 = reference_fit(t[mask].astype(float), signal[mask])
    assert r2 >= MC_R2_GATE
    return SpecDimEstimate("monte_carlo", -2.0 * slope, slope,
                           (float(MC_T_LO), float(t_hi)), r2, int(mask.sum()))


class TestEstimatesUnchanged:
    """Each estimator equals, field for field, its formula written out in full."""

    @pytest.mark.parametrize("spec", CRITERION_6_SPECTRA, ids=CRITERION_6_IDS)
    def test_cdf_slope(self, spec):
        assert estimate_ds_from_spectrum(spec) == reference_cdf_estimate(spec)

    @pytest.mark.parametrize("spec", CRITERION_6_SPECTRA, ids=CRITERION_6_IDS)
    def test_heat_trace(self, spec):
        got = estimate_ds_from_heat_trace(heat_trace(spec, default_heat_grid(spec)))
        assert got == reference_heat_estimate(spec)

    def test_monte_carlo(self):
        g = build_dgg(1024, 1, dgg_radius(8, 1024))
        freq = mc_return_probability(g, 128, 20000, 0)
        assert estimate_ds_from_mc(freq, 1024) == reference_mc_estimate(freq, 1024)
