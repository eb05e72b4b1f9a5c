"""Dense spectra, empirical CDFs, Levy distance, and the trace-bound inequality."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from grids import dense, graph_of, matched_grid
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
    esd_cdf,
    full_spectrum,
    lemma2_threshold,
    levy_distance,
    radius_for_gamma,
    sample_uniform_points,
    spectrum_of_graph,
    trace_bound,
)
import rgg_spectra
from rgg_spectra import spectra
from rgg_spectra.torus import grid_side


def sd(values):
    return SpectralDistribution.from_values(values)


def random_laplacian_pair(rng, n):
    mats = []
    for _ in range(2):
        R = rng.normal(size=(n, n))
        mats.append(RegNormLaplacian(n=n, alpha=0.0, matrix=(R + R.T) / 2))
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
                             matrix=np.array([[0.5, -0.5], [-0.5, 0.5]]))
        s = full_spectrum(L)
        assert np.allclose(s.eigenvalues, [0.0, 1.0], atol=1e-14)

    def test_order_above_dense_cap_rejected(self, monkeypatch):
        # the cap is checked before the twin search, whose n x (D + 1)
        # table it bounds
        def no_twin_search(g):
            raise AssertionError("twin search ran above the dense cap")

        monkeypatch.setattr(spectra, "_twin_quotient", no_twin_search)
        g = build_dgg(9000, 1, 0.0002)
        with pytest.raises(CapacityError):
            spectrum_of_graph(g, 0.1)


def rgg(n, seed):
    metric = MetricSpec(INF)
    return build_rgg(sample_uniform_points(n, 1, [seed, n]),
                     radius_for_gamma(16.0, n, 1, metric), metric)


def rgg_laplacian(n, seed):
    return assemble_rgg_laplacian(rgg(n, seed), 0.1)


class TestDenseSolver:
    """The two-stage solver against eigvalsh, the oracle."""

    def test_matches_eigvalsh_on_random_symmetric(self):
        rng = np.random.default_rng(21)
        for n in range(1, 13):
            R = rng.normal(size=(n, n))
            m = (R + R.T) / 2
            # the oracle first: the solve destroys m
            want = np.linalg.eigvalsh(m)
            got = spectra._eigvalsh(m)
            assert np.max(np.abs(got - want)) <= 1e-12, n

    def test_matches_eigvalsh_on_rgg_laplacian(self):
        L = rgg_laplacian(1024, 0)
        got = full_spectrum(L).eigenvalues
        assert np.max(np.abs(got - np.linalg.eigvalsh(dense(L)))) <= 1e-12

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
        before = dense(L).tobytes()
        full_spectrum(L)
        assert dense(L).tobytes() == before

    def test_overwrite_leaves_the_callers_matrix(self):
        # the operator solves its own copy of the triangle, not the array
        # it was built from
        rng = np.random.default_rng(23)
        R = rng.normal(size=(300, 300))
        m = (R + R.T) / 2
        before = m.tobytes()
        full_spectrum(RegNormLaplacian(300, 0.0, m), overwrite=True)
        assert m.tobytes() == before

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
        assert got.tobytes() == np.linalg.eigvalsh(dense(L)).tobytes()
        prov = spectra._solver_provenance()
        assert prov == {"blas_config": None, "blas_threads": None,
                        "eigensolver": "eigvalsh",
                        "numpy_version": np.__version__,
                        "scipy_version": prov["scipy_version"]}


class TestPaddedStorage:
    """Every operator is stored at the padded order M = 32 ceil(n/32), and
    full_spectrum drops exactly M - n copies of the pad value, wherever
    they sort among the operator's own eigenvalues."""

    @pytest.mark.parametrize("n", [1, 5, 32, 33, 300])
    def test_every_operator_is_stored_padded(self, n):
        order = 32 * -(-n // 32)
        g = graph_of(n, [(i, i + 1) for i in range(n - 1)])
        ops = [assemble_rgg_laplacian(g, 0.1),
               RegNormLaplacian(n, 0.0, np.eye(n))]
        for L in ops:
            assert (L.n, len(L._upper)) == (n, order)
            assert np.array_equal(np.diag(L._upper)[n:], np.full(order - n, 4.0))
            assert not np.any(np.triu(L._upper, 1)[n:])
            assert not np.any(L._upper[:n, n:])
        classes, solved = spectra._solve_quotient(g, 0.1)[1:]
        assert solved == 32 * -(-classes // 32)

    @pytest.mark.parametrize("n", [5, 33])
    def test_eigenvalues_equal_to_the_pad_value_are_kept(self, n):
        # 0, 4, 4, 5, 6, ..., n + 1: two of the operator's own eigenvalues
        # equal the pad value and the rest lie on both sides of it
        values = np.concatenate([[0.0, 4.0, 4.0], np.arange(5.0, n + 2.0)])
        ev = full_spectrum(RegNormLaplacian(n, 0.0, np.diag(values))).eigenvalues
        assert ev.size == n
        assert ev.tobytes() == values.tobytes()

    @pytest.mark.parametrize("n", [33, 100])
    def test_spectra_straddling_the_pad_value(self, n):
        # 3 (R + R^T)/2 has eigenvalues far below and above 4.0
        R = np.random.default_rng(n).normal(size=(n, n))
        m = 3.0 * (R + R.T) / 2
        want = np.linalg.eigvalsh(m)
        assert want[0] < 0.0 and want[-1] > 4.0
        ev = full_spectrum(RegNormLaplacian(n, 0.0, m)).eigenvalues
        assert ev.size == n
        assert np.max(np.abs(ev - want)) <= 1e-12 * np.max(np.abs(want))

    def test_a_moved_pad_value_raises(self, monkeypatch):
        solve = spectra._eigvalsh
        monkeypatch.setattr(spectra, "_eigvalsh", lambda a: solve(a) + 1e-15)
        with pytest.raises(np.linalg.LinAlgError, match="pad"):
            full_spectrum(rgg_laplacian(64 + 5, 0))

    @pytest.mark.parametrize("n", [300, 777])
    def test_library_solve_identical_across_thread_counts(self, n):
        # full_spectrum(L) at orders that are not a multiple of 32, in fresh
        # processes so that each pin takes effect before numpy loads; the
        # claim holds on the two-stage route only, as for the CLI
        probe = (
            "import hashlib\n"
            "from rgg_spectra import INF, MetricSpec, assemble_rgg_laplacian, "
            "build_rgg, full_spectrum, radius_for_gamma, sample_uniform_points\n"
            "from rgg_spectra.spectra import _solver_provenance\n"
            "m = MetricSpec(INF)\n"
            f"g = build_rgg(sample_uniform_points({n}, 1, [3, {n}]), "
            f"radius_for_gamma(16.0, {n}, 1, m), m)\n"
            "ev = full_spectrum(assemble_rgg_laplacian(g, 0.1)).eigenvalues\n"
            "print(_solver_provenance()['eigensolver'], "
            "hashlib.sha256(ev.tobytes()).hexdigest())")
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": threads,
                   "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run([sys.executable, "-c", probe], env=env,
                                    capture_output=True, text=True, check=True)
            runs.append(result.stdout.split())
        if {route for route, _ in runs} != {"dsyevd_2stage"}:
            pytest.skip("the loaded BLAS exports no dsyevd_2stage")
        assert runs[0][1] == runs[1][1]


class TestSolveSpan:
    """Every dense solve runs inside spectra.full_spectrum, once per solve.

    The benchmark's per-layer eigensolve metrics time that function.
    """

    @pytest.fixture
    def spy(self, monkeypatch):
        calls = {"spans": 0, "solves": 0, "inside": 0}
        full, solve = spectra.full_spectrum, spectra._eigvalsh

        def span(L, **kw):
            calls["spans"] += 1
            calls["inside"] += 1
            try:
                return full(L, **kw)
            finally:
                calls["inside"] -= 1

        def counted_solve(a, *args):
            assert calls["inside"] == 1, "solve outside full_spectrum"
            calls["solves"] += 1
            return solve(a, *args)

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


class TestInPlaceSolve:
    """spectrum_of_graph solves the operator it assembled, with no copy."""

    def test_peak_memory_is_about_one_matrix(self):
        # tracemalloc sees numpy's buffers, not the mapping that assembly
        # writes into; a copy for the solve would add one matrix
        n = 1024
        g = rgg(n, 3)
        tracemalloc.start()
        try:
            spectrum_of_graph(g, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 8 * n * n

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM and VmRSS from /proc")
    def test_peak_rss_is_under_one_matrix(self):
        # the assembled upper triangle leaves the pages under the strict
        # lower one untouched, so the peak stays well under one matrix, and
        # the mapping is released when the operator dies; measured 0.72 and
        # 0.06 matrices (1.11 and 0.09 when both triangles were written)
        n = 2048
        probe = (
            "from rgg_spectra import INF, MetricSpec, build_rgg, "
            "radius_for_gamma, sample_uniform_points, spectrum_of_graph\n"
            "def status():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        f = dict(line.split(':', 1) for line in fh)\n"
            "    return [int(f[k].split()[0]) * 1024 for k in ('VmHWM', 'VmRSS')]\n"
            "m = MetricSpec(INF)\n"
            "spectrum_of_graph(build_rgg(sample_uniform_points(64, 1, 0), "
            "0.2, m), 0.1)\n"
            f"g = build_rgg(sample_uniform_points({n}, 1, [3, {n}]), "
            f"radius_for_gamma(16.0, {n}, 1, m), m)\n"
            "before = status()\n"
            "spectrum_of_graph(g, 0.1)\n"
            "print(*before, *status())")
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        result = subprocess.run([sys.executable, "-c", probe],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, check=True)
        hwm0, rss0, hwm1, rss1 = map(int, result.stdout.split())
        matrix = 8 * n * n
        assert hwm1 - hwm0 < 0.85 * matrix
        assert rss1 - rss0 < 0.25 * matrix

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_library_solve_copies_only_the_triangle(self):
        # full_spectrum(L) solves a copy of L's upper triangle, so one
        # assembly plus that solve holds two triangles, not a triangle and
        # a whole matrix; measured 1.34 matrices (2.09 with a whole copy)
        n = 2048
        probe = (
            "from rgg_spectra import INF, MetricSpec, assemble_rgg_laplacian, "
            "build_rgg, full_spectrum, radius_for_gamma, sample_uniform_points\n"
            "def hwm():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        f = dict(line.split(':', 1) for line in fh)\n"
            "    return int(f['VmHWM'].split()[0]) * 1024\n"
            "m = MetricSpec(INF)\n"
            "full_spectrum(assemble_rgg_laplacian(build_rgg("
            "sample_uniform_points(64, 1, 0), 0.2, m), 0.1))\n"
            f"g = build_rgg(sample_uniform_points({n}, 1, [3, {n}]), "
            f"radius_for_gamma(16.0, {n}, 1, m), m)\n"
            "before = hwm()\n"
            "L = assemble_rgg_laplacian(g, 0.1)\n"
            "full_spectrum(L)\n"
            "print(before, hwm())")
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        result = subprocess.run([sys.executable, "-c", probe],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, check=True)
        hwm0, hwm1 = map(int, result.stdout.split())
        assert hwm1 - hwm0 < 1.6 * 8 * n * n

    @pytest.mark.parametrize("kind", ["rgg", "dgg"])
    def test_bitwise_equal_to_solving_a_copy(self, kind):
        # RGGs have twins, so they are solved with other arithmetic than the
        # full assembly and meet its dense oracle to 1e-12; a lattice
        # without twins is its own quotient, stored in the same padded
        # format, and its bits are the assembly's at every n
        for n in (257, 512, 1024):
            g = rgg(n, 4) if kind == "rgg" else build_dgg(n, 1, 0.01)
            got = spectrum_of_graph(g, 0.1).eigenvalues
            want = full_spectrum(assemble_rgg_laplacian(g, 0.1)).eigenvalues
            if kind == "dgg":
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_fallback_solves_the_assembly(self, monkeypatch):
        # every graph meets eigvalsh of its whole matrix to 1e-12; a
        # lattice without twins gives the bits of its assembly solved on
        # the same route at any order, and the bits of that independent
        # eigvalsh too where its order needs no pad
        graphs = [rgg(512, 5), build_dgg(257, 1, 0.01),
                  build_dgg(512, 1, 0.01), build_dgg(1024, 1, 0.01)]
        oracles = [np.linalg.eigvalsh(dense(assemble_rgg_laplacian(g, 0.1)))
                   for g in graphs]
        monkeypatch.setattr(spectra, "_openblas", lambda *declaration: None)
        for g, want in zip(graphs, oracles):
            got = spectrum_of_graph(g, 0.1).eigenvalues
            assert np.max(np.abs(got - want)) <= 1e-12
            if g.kind == "dgg":
                assembly = full_spectrum(assemble_rgg_laplacian(g, 0.1))
                assert got.tobytes() == assembly.eigenvalues.tobytes()
                if g.n % 32 == 0:
                    assert got.tobytes() == want.tobytes()


class TestTwinQuotient:
    """spectrum_of_graph's quotient spectrum and atoms against the dense
    solve of the whole assembly."""

    @pytest.mark.parametrize("d,gamma", [(1, 16.0), (2, 12.0), (3, 10.0)])
    @pytest.mark.parametrize("p", [INF, 2.0, 1.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    def test_matches_the_dense_oracle(self, d, gamma, p, alpha):
        metric = MetricSpec(p)
        for n in (64, 300):
            g = build_rgg(sample_uniform_points(n, d, [1, n]),
                          radius_for_gamma(gamma, n, d, metric), metric)
            if alpha == 0 and np.any(g.degrees == 0):
                continue
            want = full_spectrum(assemble_rgg_laplacian(g, alpha)).eigenvalues
            got = spectrum_of_graph(g, alpha).eigenvalues
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_atoms_are_exact(self):
        # {0, 1} (degree 2) and {4, 5, 6, 7} (degree 4) are twin classes;
        # they leave 1 and 3 eigenvalues at 1 + 1/(deg + alpha), exactly
        g = graph_of(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5),
                         (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6),
                         (5, 7), (6, 7)])
        sd, classes, solved = spectra._solve_quotient(g, 0.1)
        assert (classes, solved) == (4, 32)
        ev = sd.eigenvalues
        assert np.count_nonzero(ev == 1.0 + 1.0 / 2.1) == 1
        assert np.count_nonzero(ev == 1.0 + 1.0 / 4.1) == 3
        want = full_spectrum(assemble_rgg_laplacian(g, 0.1)).eigenvalues
        assert np.max(np.abs(ev - want)) <= 1e-12

    def test_clique_component_at_alpha_zero(self):
        # the 5-clique is one class of quotient degree 0, but its nodes
        # have degree 4, so alpha = 0 is not singular: 0 once and 5/4 four
        # times, beside a 4-node path
        clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        g = graph_of(9, clique + [(5, 6), (6, 7), (7, 8)])
        ev = spectrum_of_graph(g, 0.0).eigenvalues
        want = full_spectrum(assemble_rgg_laplacian(g, 0.0)).eigenvalues
        assert np.max(np.abs(ev - want)) <= 1e-12
        assert np.count_nonzero(ev == 1.25) == 4

    def test_isolated_node_at_alpha_zero_is_singular(self):
        with pytest.raises(SingularityError):
            spectrum_of_graph(graph_of(3, [(0, 1)]), 0.0)

    @pytest.mark.parametrize("d,gamma", [(1, 16.0), (2, 12.0)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_moments_match_the_graph(self, d, gamma, seed):
        # the trace and Frobenius norm of L from the graph alone:
        # sum(1 - c s_i^2) and sum (1 - c s_i^2)^2 + (1 + 2c) sum over
        # directed edges of s_i^2 s_j^2 + c^2 ((sum s^2)^2 - sum s^4), with
        # c = alpha/n and s_i^2 = 1/(deg_i + alpha)
        n, alpha = 4096, 0.1
        metric = MetricSpec(INF)
        g = build_rgg(sample_uniform_points(n, d, [seed, n]),
                      radius_for_gamma(gamma, n, d, metric), metric)
        ev = spectrum_of_graph(g, alpha).eigenvalues
        c = alpha / n
        s2 = 1.0 / (g.degrees + alpha)
        diagonal = 1.0 - c * s2
        src = np.repeat(np.arange(n), g.degrees)
        frobenius = (np.sum(diagonal ** 2)
                     + (1.0 + 2.0 * c) * np.sum(s2[src] * s2[g.indices])
                     + c * c * (np.sum(s2) ** 2 - np.sum(s2 ** 2)))
        assert abs(np.sum(ev) - np.sum(diagonal)) <= 1e-10
        assert abs(np.sum(ev ** 2) - frobenius) <= 1e-10


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
        A = RegNormLaplacian(n=2, alpha=0.0, matrix=I2)
        B = RegNormLaplacian(n=2, alpha=0.0, matrix=0.0 * I2)
        assert trace_bound(A, B) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [300, 513])
    def test_value_on_assembled_operators(self, n):
        # several 256-row blocks, each with a diagonal tile whose strict
        # lower corner holds assembly scratch, not the mirrored entries
        A, B = (assemble_rgg_laplacian(
            build_rgg(sample_uniform_points(n, 2, seed), 0.1), 0.1)
            for seed in (1, 2))
        want = np.sum((dense(A) - dense(B)) ** 2) / n
        assert trace_bound(A, B) == pytest.approx(want, rel=1e-12, abs=0)

    def test_value_on_constructed_operators(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 7, 255, 256, 257, 300):
            A, B = random_laplacian_pair(rng, n)
            want = np.sum((dense(A) - dense(B)) ** 2) / n
            assert trace_bound(A, B) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM and VmRSS from /proc")
    def test_reads_the_triangles_in_place(self):
        # blocks of 256 rows, so neither operator grows and the temporaries
        # stay a few blocks; measured 0.34 and 0.02 matrices of growth in
        # VmHWM and VmRSS
        n = 2048
        probe = (
            "from rgg_spectra import INF, MetricSpec, assemble_rgg_laplacian, "
            "build_rgg, radius_for_gamma, sample_uniform_points, trace_bound\n"
            "def status():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        f = dict(line.split(':', 1) for line in fh)\n"
            "    return [int(f[k].split()[0]) * 1024 for k in ('VmHWM', 'VmRSS')]\n"
            "m = MetricSpec(INF)\n"
            "def laplacian(n, seed, radius):\n"
            "    return assemble_rgg_laplacian(build_rgg(\n"
            "        sample_uniform_points(n, 1, [seed, n]), radius, m), 0.1)\n"
            "trace_bound(laplacian(64, 0, 0.2), laplacian(64, 1, 0.2))\n"
            f"r = radius_for_gamma(16.0, {n}, 1, m)\n"
            f"A, B = laplacian({n}, 3, r), laplacian({n}, 4, r)\n"
            "before = status()\n"
            "trace_bound(A, B)\n"
            "print(*before, *status())")
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        result = subprocess.run([sys.executable, "-c", probe],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, check=True)
        hwm0, rss0, hwm1, rss1 = map(int, result.stdout.split())
        matrix = 8 * n * n
        assert hwm1 - hwm0 < 1.0 * matrix
        assert rss1 - rss0 < 0.25 * matrix


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

    @pytest.mark.parametrize("gamma,gamma_prime", [(np.nan, 8.0), (8.0, np.nan)])
    def test_nan_inputs_rejected(self, gamma, gamma_prime):
        with pytest.raises(ValueError, match="gamma must be positive"):
            lemma2_threshold(gamma, gamma_prime, 0.1)


def dense_route_levy(d, gamma, alpha, metric, n_list, seeds):
    """Study Levy distances with the grid side from the dense eigensolve."""
    out = []
    for n in n_list:
        sd_dgg = spectrum_of_graph(matched_grid(gamma, grid_side(n, d), d), alpha)
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
            dense = spectrum_of_graph(matched_grid(gamma, N, d), alpha)
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
        (1, [1024, 1024], ValueError),  # a repeated size
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
