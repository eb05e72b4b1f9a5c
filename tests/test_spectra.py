"""Dense spectra, empirical CDFs, Levy distance, and the trace-bound inequality."""

import numpy as np
import pytest

from levy_oracle import band_holds, levy_grid_bisect, levy_grid_scan
from rgg_spectra import (
    DENSE_CAP,
    INF,
    CapacityError,
    MetricSpec,
    RegNormLaplacian,
    SingularityError,
    SpectralDistribution,
    TorusPointSet,
    assemble_rgg_laplacian,
    build_dgg,
    analytic_spectrum,
    build_rgg,
    convergence_study,
    dgg_degree,
    dgg_for_gamma,
    esd_cdf,
    full_spectrum,
    lemma2_threshold,
    levy_distance,
    radius_for_gamma,
    sample_uniform_points,
    spectrum_of_graph,
    trace_bound,
)
from rgg_spectra import spectra
from rgg_spectra.torus import grid_side


def sd(values):
    return SpectralDistribution.from_values(values)


def random_laplacian_pair(rng, n):
    mats = []
    for _ in range(2):
        R = rng.normal(size=(n, n))
        mats.append(RegNormLaplacian(n=n, alpha=0.0, matrix=(R + R.T) / 2,
                                     source_kind="rgg"))
    return mats


class TestSpectralDistribution:
    def test_sorts_on_construction(self):
        s = sd([2.0, 0.0, 1.0])
        assert np.array_equal(s.eigenvalues, [0.0, 1.0, 2.0])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SpectralDistribution(eigenvalues=np.zeros(3), n=4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sd([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_eigenvalue_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            sd([bad, 0.1])

    def test_cdf_is_left_continuous(self):
        s = sd([0.0, 0.5, 0.5, 1.0])
        assert esd_cdf(s, 0.5) == 0.25
        assert esd_cdf(s, 0.5, side="right") == 0.75
        x = np.array([-1.0, 0.0, 0.25, 2.0])
        assert np.array_equal(esd_cdf(s, x), [0.0, 0.0, 0.25, 1.0])


class TestDenseSpectra:
    def test_connected_pair_spectrum(self):
        pts = TorusPointSet(dim=1, points=np.array([[0.2], [0.3]]))
        g = build_rgg(pts, 0.125)
        s = spectrum_of_graph(g, 0.0)
        assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-14)

    def test_halved_operator_spectrum(self):
        L = RegNormLaplacian(n=2, alpha=0.0,
                             matrix=np.array([[0.5, -0.5], [-0.5, 0.5]]),
                             source_kind="rgg")
        s = full_spectrum(L)
        assert np.allclose(s.eigenvalues, [0.0, 1.0], atol=1e-14)

    def test_order_above_dense_cap_rejected(self):
        g = build_dgg(9000, 1, 0.0002)
        with pytest.raises(CapacityError):
            spectrum_of_graph(g, 0.1)


def rgg_laplacian(n, seed):
    metric = MetricSpec(INF)
    g = build_rgg(sample_uniform_points(n, 1, [seed, n]),
                  radius_for_gamma(16.0, n, 1, metric), metric)
    return assemble_rgg_laplacian(g, 0.1)


class TestDenseSolver:
    """The two-stage solver against eigvalsh, the oracle."""

    def test_matches_eigvalsh_on_random_symmetric(self):
        rng = np.random.default_rng(21)
        for n in range(1, 13):
            R = rng.normal(size=(n, n))
            m = (R + R.T) / 2
            got = spectra._eigvalsh(m)
            assert np.max(np.abs(got - np.linalg.eigvalsh(m))) <= 1e-12, n

    def test_matches_eigvalsh_on_rgg_laplacian(self):
        L = rgg_laplacian(1024, 0)
        got = full_spectrum(L).eigenvalues
        assert np.max(np.abs(got - np.linalg.eigvalsh(L.matrix))) <= 1e-12

    def test_reads_the_upper_triangle(self):
        # the strict lower triangle is never read
        rng = np.random.default_rng(22)
        m = rng.normal(size=(9, 9))
        got = spectra._eigvalsh(np.triu(m) + np.tril(rng.normal(size=(9, 9)), -1))
        sym = np.triu(m) + np.triu(m, 1).T
        assert np.max(np.abs(got - np.linalg.eigvalsh(sym))) <= 1e-12

    def test_leaves_the_operator_unchanged(self):
        # criterion 4 reads the same matrices through trace_bound afterwards
        L = rgg_laplacian(256, 1)
        before = L.matrix.tobytes()
        full_spectrum(L)
        assert L.matrix.tobytes() == before

    def test_two_stage_route_runs_when_exported(self, monkeypatch):
        real = spectra._openblas(*spectra._DSYEVD_2STAGE)
        if real is None:
            pytest.skip("the loaded BLAS exports no dsyevd_2stage")
        assert spectra._solver_provenance()["eigensolver"] == "dsyevd_2stage"
        calls = []

        def spy(*args):
            calls.append(args[7]._obj.value)  # lwork
            return real(*args)

        monkeypatch.setattr(spectra, "_openblas", lambda *declaration: spy)
        full_spectrum(rgg_laplacian(64, 0))
        # the workspace query, then the solve
        assert len(calls) == 2 and calls[0] == -1 and calls[1] >= 1

    def test_nonzero_info_raises(self, monkeypatch):
        def failing(*args):
            args[10]._obj.value = 3  # info

        monkeypatch.setattr(spectra, "_openblas", lambda *declaration: failing)
        with pytest.raises(np.linalg.LinAlgError, match="info = 3"):
            full_spectrum(rgg_laplacian(64, 0))

    def test_falls_back_to_eigvalsh_without_the_symbol(self, monkeypatch):
        L = rgg_laplacian(512, 2)
        monkeypatch.setattr(spectra, "_openblas", lambda *declaration: None)
        got = full_spectrum(L).eigenvalues
        assert got.tobytes() == np.linalg.eigvalsh(L.matrix).tobytes()
        assert spectra._solver_provenance() == {"blas_threads": None,
                                                "eigensolver": "eigvalsh"}


class TestSolveSpan:
    """Every dense solve runs inside spectra.full_spectrum, once per solve.

    The benchmark's per-layer eigensolve metrics time that function.
    """

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = {"spans": 0, "solves": 0, "inside": 0}
        full, solve = spectra.full_spectrum, spectra._eigvalsh

        def span(L):
            calls["spans"] += 1
            calls["inside"] += 1
            try:
                return full(L)
            finally:
                calls["inside"] -= 1

        def counted_solve(a):
            assert calls["inside"] == 1, "solve outside full_spectrum"
            calls["solves"] += 1
            return solve(a)

        monkeypatch.setattr(spectra, "full_spectrum", span)
        monkeypatch.setattr(spectra, "_eigvalsh", counted_solve)
        return calls

    def test_spectrum_of_graph_solves_once(self, spy):
        spectrum_of_graph(build_dgg(64, 1, 0.03), 0.1)
        assert spy == {"spans": 1, "solves": 1, "inside": 0}

    def test_convergence_study_solves_once_per_trial(self, spy):
        rows = convergence_study(1, 4.0, 0.1, MetricSpec(INF), [64, 128],
                                 [0, 1, 2])
        assert len(rows) == 6
        assert spy == {"spans": 6, "solves": 6, "inside": 0}


class TestLevyDistance:
    def test_point_masses_exhaustive_grid(self):
        # the one case cheap enough for the fully exhaustive oracle
        assert levy_grid_scan([0.0], [0.3]) == pytest.approx(0.3, abs=2e-6)
        got = levy_distance(sd([0.0]), sd([0.3])).distance
        assert got == pytest.approx(0.3, abs=1e-6)

    def test_matches_grid_oracle_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            na, nb = rng.integers(1, 25, size=2)
            ea = np.sort(rng.uniform(0, 2, na))
            eb = np.sort(rng.uniform(0, 2, nb))
            pkg = levy_distance(sd(ea), sd(eb)).distance
            orc = levy_grid_bisect(ea.tolist(), eb.tolist())
            assert abs(pkg - orc) <= 2e-6

    def test_exact_at_band_edge(self):
        # the result is the band edge: feasible, and infeasible 1e-10 below
        rng = np.random.default_rng(11)
        pairs = []
        for _ in range(15):
            na, nb = rng.integers(2, 25, size=2)
            pairs.append((rng.uniform(0, 2, na), rng.uniform(0, 2, nb)))
        for _ in range(15):
            na, nb = rng.integers(2, 25, size=2)
            pairs.append((np.round(rng.uniform(0, 2, na), 1),
                          np.round(rng.uniform(0, 2, nb), 1)))
        for _ in range(5):
            pairs.append((rng.uniform(0, 2, 3), rng.uniform(0, 2, 40)))
        for _ in range(5):
            pairs.append((rng.uniform(0, 2, 1), rng.uniform(0, 2, 1)))
        pairs.append(([0.5], [0.2, 0.5, 0.5, 1.1]))
        for ea, eb in pairs:
            ea, eb = np.sort(ea).tolist(), np.sort(eb).tolist()
            got = levy_distance(sd(ea), sd(eb)).distance
            assert got > 0
            assert band_holds(ea, eb, got + 1e-12)
            assert not band_holds(ea, eb, got - 1e-10)

    def test_identical_inputs_give_exact_zero(self):
        vals = np.linspace(0, 2, 17)
        assert levy_distance(sd(vals), sd(vals)).distance == 0.0

    def test_separated_inputs_give_positive_distance(self):
        assert levy_distance(sd([0.0, 0.0]), sd([1.0, 1.0])).distance > 0.4

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ea = rng.uniform(0, 2, 10)
            eb = rng.uniform(0, 2, 14)
            ab = levy_distance(sd(ea), sd(eb)).distance
            ba = levy_distance(sd(eb), sd(ea)).distance
            assert abs(ab - ba) <= 2e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b, c = (sd(rng.uniform(0, 2, rng.integers(4, 16)))
                       for _ in range(3))
            ac = levy_distance(a, c).distance
            ab = levy_distance(a, b).distance
            bc = levy_distance(b, c).distance
            assert ac <= ab + bc + 3e-9

    def test_cube_field(self):
        res = levy_distance(sd([0.0]), sd([0.25]))
        assert res.cube == res.distance ** 3


class TestTraceBound:
    def test_cube_bounded_by_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            A, B = random_laplacian_pair(rng, n)
            res = levy_distance(full_spectrum(A), full_spectrum(B))
            assert res.cube <= trace_bound(A, B) + 1e-12

    def test_order_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        A, _ = random_laplacian_pair(rng, 4)
        B, _ = random_laplacian_pair(rng, 5)
        with pytest.raises(ValueError):
            trace_bound(A, B)

    def test_trace_bound_value(self):
        I2 = np.eye(2)
        A = RegNormLaplacian(n=2, alpha=0.0, matrix=I2, source_kind="rgg")
        B = RegNormLaplacian(n=2, alpha=0.0, matrix=0.0 * I2, source_kind="rgg")
        assert trace_bound(A, B) == pytest.approx(1.0, abs=1e-15)


class TestLemma2Threshold:
    def test_matched_degree_value(self):
        assert lemma2_threshold(16, 16, 0.1) == pytest.approx(128 / 259.21, rel=1e-12)

    def test_vanishes_for_large_alpha(self):
        assert lemma2_threshold(16, 16, 1e9) < 1e-6

    def test_unregularized_with_degree_ratio_four(self):
        for gamma in (2.0, 16.0):
            assert lemma2_threshold(gamma, 4 * gamma, 0.0) == pytest.approx(
                8.0 / gamma, rel=1e-12)

    def test_degree_zero_threshold_needs_regularizer(self):
        assert lemma2_threshold(0.5, 0, 0.1) == pytest.approx(
            8 * 0.5 / 0.6 ** 2, rel=1e-12)
        with pytest.raises(SingularityError):
            lemma2_threshold(0.5, 0, 0.0)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            lemma2_threshold(0.0, 4.0, 0.1)
        with pytest.raises(ValueError):
            lemma2_threshold(4.0, -1.0, 0.1)


def dense_route_levy(d, gamma, alpha, metric, n_list, seeds):
    """Study Levy distances with the grid side from the dense eigensolve."""
    out = []
    for n in n_list:
        sd_dgg = spectrum_of_graph(dgg_for_gamma(gamma, grid_side(n, d), d), alpha)
        radius = radius_for_gamma(gamma, n, d, metric)
        for seed in seeds:
            g = build_rgg(sample_uniform_points(n, d, [seed, n]), radius, metric)
            out.append(levy_distance(spectrum_of_graph(g, alpha), sd_dgg).distance)
    return out


# (d, gamma, n_list); n = 9 with gamma = 4 and n = 25 with gamma = 4 give
# 2k+1 = N, the branch where dgg_radius falls to (k + 0.25)/N
STUDY_CASES = [
    (1, 4.0, [9, 64, 128]),
    (1, 16.0, [256]),
    (2, 4.0, [25, 64]),
    (2, 1.5, [49]),
]


class TestConvergenceStudy:
    @pytest.mark.parametrize("d,gamma,n_list", STUDY_CASES)
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_closed_form_grid_side_matches_dense(self, d, gamma, n_list, alpha):
        gp = dgg_degree(gamma, d)
        for n in n_list:
            N = grid_side(n, d)
            dense = spectrum_of_graph(dgg_for_gamma(gamma, N, d), alpha)
            closed = sd(analytic_spectrum(N, gp, alpha, d))
            assert np.max(np.abs(closed.eigenvalues - dense.eigenvalues)) <= 1e-10

    @pytest.mark.parametrize("d,gamma,n_list", STUDY_CASES)
    @pytest.mark.parametrize("metric", [MetricSpec(INF), MetricSpec(2.0)])
    def test_levy_distances_match_dense_route(self, d, gamma, n_list, metric):
        rows = convergence_study(d, gamma, 0.1, metric, n_list, seeds=[0, 1])
        expect = dense_route_levy(d, gamma, 0.1, metric, n_list, [0, 1])
        assert [r.levy for r in rows] == pytest.approx(expect, abs=1e-9, rel=0)

    def test_unregularized_degree_zero_grid_is_singular(self):
        assert dgg_degree(0.5, 1) == 0
        with pytest.raises(SingularityError):
            convergence_study(1, 0.5, 0.0, MetricSpec(INF), [64], [0])

    def test_regularized_degree_zero_grid_matches_dense_route(self):
        assert dgg_degree(0.5, 1) == 0
        rows = convergence_study(1, 0.5, 0.1, MetricSpec(), [64], [0])
        expect = dense_route_levy(1, 0.5, 0.1, MetricSpec(), [64], [0])
        assert [r.levy for r in rows] == pytest.approx(expect, abs=1e-9, rel=0)
        assert rows[0].gamma_prime == 0
        assert rows[0].threshold == pytest.approx(8 * 0.5 / 0.6 ** 2, rel=1e-12)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            convergence_study(1, 4.0, -0.1, MetricSpec(INF), [64], [0])

    def test_stencil_wider_than_grid_rejected(self):
        # gamma = 8 in d = 1 needs a 17-wide stencil; the grid side is 16
        with pytest.raises(ValueError, match="exceeds grid side"):
            convergence_study(1, 8.0, 0.1, MetricSpec(INF), [16], [0])

    def test_order_above_dense_cap_rejected(self):
        with pytest.raises(CapacityError):
            convergence_study(1, 4.0, 0.1, MetricSpec(INF), [DENSE_CAP + 1], [0])

    @pytest.mark.parametrize("d,n_list,error", [
        (1, [1024, 9000], CapacityError),  # 9000 is above the dense cap
        (2, [1024, 1000], ValueError),  # 1000 is not a square
    ])
    def test_every_size_checked_before_any_trial(self, monkeypatch, d, n_list,
                                                 error):
        built = []
        monkeypatch.setattr(spectra, "build_rgg",
                            lambda *args, **kwargs: built.append(args))
        with pytest.raises(error):
            convergence_study(d, 16.0, 0.1, MetricSpec(), n_list, [0, 1])
        assert built == []

    def test_rows_and_determinism(self):
        rows = convergence_study(1, 4.0, 0.1, MetricSpec(INF),
                                 n_list=[64, 128], seeds=[0, 1])
        assert len(rows) == 4
        gp = dgg_degree(4.0, 1)
        for row in rows:
            assert row.gamma_prime == gp
            assert row.levy_cubed == pytest.approx(row.levy ** 3, rel=1e-12)
            assert row.exceeds == int(row.levy_cubed > row.threshold)
            assert row.threshold == lemma2_threshold(4.0, gp, 0.1)
        again = convergence_study(1, 4.0, 0.1, MetricSpec(INF),
                                  n_list=[64, 128], seeds=[0, 1])
        assert [r.levy for r in again] == [r.levy for r in rows]
