"""Regularized normalized Laplacian assembly and its exact identities."""

import math

import numpy as np
import pytest

from rgg_spectra import (
    RegNormLaplacian,
    SingularityError,
    TorusPointSet,
    assemble_dgg_laplacian,
    assemble_rgg_laplacian,
    build_dgg,
    build_rgg,
    dgg_for_gamma,
    dgg_radius,
    sample_uniform_points,
)


def reference_matrix(g, alpha, denom_degrees):
    """eye(n) - (A + alpha/n) * outer(s, s) from the dense adjacency matrix."""
    A = np.zeros((g.n, g.n))
    for i, nbrs in enumerate(g.adjacency):
        A[i, nbrs] = 1.0
    s = 1.0 / np.sqrt(denom_degrees + alpha)
    return np.eye(g.n) - (A + alpha / g.n) * np.outer(s, s)


def two_points(connected):
    pts = np.array([[0.2], [0.3]]) if connected else np.array([[0.1], [0.6]])
    return build_rgg(TorusPointSet(dim=1, points=pts), 0.125)


class TestAssembly:
    def test_edgeless_pair_fully_regularized(self):
        L = assemble_rgg_laplacian(two_points(False), alpha=1.0).matrix
        # degrees are 0, so every entry comes from the alpha/n coupling
        assert np.allclose(L, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_connected_pair_unregularized(self):
        L = assemble_rgg_laplacian(two_points(True), alpha=0.0).matrix
        assert np.allclose(L, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_alpha_zero_needs_positive_degrees(self):
        with pytest.raises(SingularityError):
            assemble_rgg_laplacian(two_points(False), alpha=0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            assemble_rgg_laplacian(two_points(True), alpha=-0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    @pytest.mark.parametrize("assemble", [assemble_rgg_laplacian,
                                          assemble_dgg_laplacian])
    def test_nonfinite_alpha_rejected(self, assemble, alpha):
        with pytest.raises(ValueError, match="finite"):
            assemble(build_dgg(8, 1, dgg_radius(1, 8)), alpha)

    def test_grid_assembly_requires_regular_graph(self):
        g = build_rgg(sample_uniform_points(40, 2, 5), 0.12)
        assert len(set(g.degrees.tolist())) > 1
        with pytest.raises(ValueError):
            assemble_dgg_laplacian(g, 0.1)

    def test_symmetry_validated(self):
        bad = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(ValueError):
            RegNormLaplacian(n=2, alpha=0.0, matrix=bad, source_kind="rgg")

    @pytest.mark.parametrize("col", [0, 1022])
    def test_symmetry_checked_in_every_row_block(self, col):
        n = 1024  # the scan compares several row blocks at this order
        m = np.eye(n)
        # row n-1 lies in the last block; column 1022 does too, so only
        # that block sees the asymmetry
        m[n - 1, col] = 2e-14
        with pytest.raises(ValueError):
            RegNormLaplacian(n=n, alpha=0.0, matrix=m, source_kind="rgg")
        m[n - 1, col] = 1e-15
        RegNormLaplacian(n=n, alpha=0.0, matrix=m, source_kind="rgg")

    @pytest.mark.parametrize("entries", [
        {(1, 2): math.nan},                        # one triangle only
        {(1, 2): math.nan, (2, 1): math.nan},
        {(1, 2): math.inf, (2, 1): math.inf},
        {(1, 2): -math.inf, (2, 1): -math.inf},
    ], ids=["one-sided-nan", "nan", "inf", "-inf"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_entries_rejected(self, entries):
        m = np.eye(4)
        for index, value in entries.items():
            m[index] = value
        with pytest.raises(ValueError, match="finite"):
            RegNormLaplacian(n=4, alpha=0.0, matrix=m, source_kind="rgg")

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    def test_rgg_bitwise_equals_reference(self, alpha):
        g = build_rgg(sample_uniform_points(300, 2, 4), 0.1)
        assert g.degrees.min() > 0 and len(set(g.degrees.tolist())) > 1
        L = assemble_rgg_laplacian(g, alpha).matrix
        # bytes, not values, so that a -0.0 where the reference has +0.0 fails
        assert L.tobytes() == reference_matrix(
            g, alpha, g.degrees.astype(float)).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
    def test_dgg_bitwise_equals_reference(self, alpha):
        for g in (dgg_for_gamma(4, 128, 1), build_dgg(144, 2, 0.2)):
            L = assemble_dgg_laplacian(g, alpha).matrix
            degree = np.full(g.n, float(g.degrees[0]))
            assert L.tobytes() == reference_matrix(g, alpha, degree).tobytes()


class TestGridEntries:
    def test_neighbor_weight_is_inverse_degree(self):
        g = dgg_for_gamma(2, 8, 1)  # degree 4 ring with two-step stencil
        L = assemble_dgg_laplacian(g, 0.0).matrix
        assert np.all(g.degrees == 4)
        for i in range(8):
            for j in g.adjacency[i]:
                assert L[i, j] == pytest.approx(-0.25, abs=1e-15)
        assert np.allclose(np.diag(L), 1.0, atol=1e-15)

    def test_regularized_diagonal_value(self):
        g = dgg_for_gamma(2, 8, 1)
        L = assemble_dgg_laplacian(g, 0.5).matrix
        expect = 1.0 - (0.5 / 8) / 4.5
        assert np.allclose(np.diag(L), expect, atol=1e-15)

    def test_row_sums_vanish_for_regular_graph(self):
        for alpha in (0.0, 0.1, 2.0):
            g = build_dgg(36, 2, 0.18)
            L = assemble_dgg_laplacian(g, alpha).matrix
            assert np.max(np.abs(L.sum(axis=1))) <= 1e-12

    def test_constant_vector_is_zero_mode(self):
        g = build_dgg(64, 1, 0.1)
        L = assemble_dgg_laplacian(g, 0.3).matrix
        u = np.ones(64) / 8.0
        assert np.max(np.abs(L @ u)) <= 1e-12


class TestSpectralIdentities:
    def test_sqrt_degree_vector_is_exact_kernel(self):
        # (deg + alpha)^(1/2) annihilates the operator for any graph
        g = build_rgg(sample_uniform_points(200, 2, 11), 0.08)
        for alpha in (0.25, 1.0):
            L = assemble_rgg_laplacian(g, alpha).matrix
            u = np.sqrt(g.degrees + alpha)
            assert np.max(np.abs(L @ u)) <= 1e-12 * np.max(u)

    def test_positive_semidefinite(self):
        for seed, alpha in ((0, 0.0), (1, 0.1), (2, 1.5)):
            g = build_rgg(sample_uniform_points(96, 2, seed), 0.15)
            vals = np.linalg.eigvalsh(assemble_rgg_laplacian(g, alpha).matrix)
            assert vals.min() >= -1e-10

    def test_weight_row_sum_matches_denominator(self):
        # sum_j (adj_ij + alpha/n) telescopes to deg_i + alpha, which is
        # why the kernel vector above is exact
        g = build_rgg(sample_uniform_points(150, 3, 13), 0.2)
        alpha = 0.7
        A = np.zeros((g.n, g.n))
        for i, nbrs in enumerate(g.adjacency):
            A[i, nbrs] = 1.0
        sums = (A + alpha / g.n).sum(axis=1)
        assert np.allclose(sums, g.degrees + alpha, atol=1e-12)

