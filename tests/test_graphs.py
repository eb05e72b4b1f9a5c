"""Graph construction: RGG vs brute force, grid regularity, serialization."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import rgg_spectra
from grids import graph_of, lattice, matched_grid
from rgg_spectra import (
    INF,
    GeometricGraph,
    MetricSpec,
    TorusPointSet,
    build_dgg,
    build_rgg,
    dgg_degree,
    dgg_radius,
    radius_for_gamma,
    read_graph_csv,
    sample_uniform_points,
    write_graph_csv,
)
from rgg_spectra import graphs
from rgg_spectra.graphs import _csr_from_pairs
from rgg_spectra.torus import _CSV_CHUNK


def brute_force_edges(pts, radius, p):
    """Reference edge set straight from the distance definition."""
    delta = np.abs(pts[:, None, :] - pts[None, :, :])
    delta = np.minimum(delta, 1.0 - delta)
    if p == INF:
        dist = delta.max(axis=2)
    else:
        dist = (delta ** p).sum(axis=2) ** (1.0 / p)
    ii, jj = np.nonzero(np.triu(dist <= radius, k=1))
    return set(zip(ii.tolist(), jj.tolist()))


def brute_force_rule_edges(pts, radius, p):
    """Reference edge set over all pairs by the connection rule itself:
    max delta <= radius, or the axis-by-axis sum of delta^p <= radius^p,
    with no root, so exact ties come out as the rule decides them."""
    delta = np.abs(pts[:, None, :] - pts[None, :, :])
    delta = np.minimum(delta, 1.0 - delta)
    if p == INF:
        within = delta.max(axis=2) <= radius
    else:
        within = sum(delta[:, :, k] ** p for k in range(pts.shape[1])) <= radius ** p
    ii, jj = np.nonzero(np.triu(within, k=1))
    return set(zip(ii.tolist(), jj.tolist()))


def kd_tree_csr(ps, radius, p):
    """(indptr, indices) from scipy's periodic k-d tree, an independent
    neighbour search with the same tie rule, sum delta^p <= radius^p."""
    from scipy.spatial import cKDTree
    pairs = cKDTree(ps.points, boxsize=1.0).query_pairs(radius, p=p,
                                                         output_type="ndarray")
    return _csr_from_pairs(ps.n, pairs)


def cell_list_edge_cases():
    """(label, points, radii, d) where the cell list's own choices show."""
    rng = np.random.default_rng(11)
    cases = []
    # near 0.5 the offsets -1 and +1 name the same cell (C = 2), and at
    # C = 3 every cell neighbours every other
    for d in (1, 2, 3):
        cases.append((f"below-half d={d}", rng.random((60, d)),
                      [np.nextafter(0.5, 0.0), 0.49, 0.34, 0.26], d))
    # coordinates on, and one ulp either side of, the cell boundaries j/C
    # of every cell count C near 1/radius
    for radius in (0.1, 0.125, 1 / 7):
        edges = np.array([j / c for c in range(2, int(1 / radius) + 3)
                          for j in range(c)])
        edges = np.unique(np.concatenate([edges, np.nextafter(edges, 1.0),
                                          np.nextafter(edges, 0.0)]))
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        for d in (1, 2):
            pts = edges[:, None] if d == 1 else rng.choice(edges, size=(300, d))
            cases.append((f"cell-boundaries r={radius:.4g} d={d}", pts,
                          [radius], d))
    # lattice points at the tie radii k/N
    for N in (10, 20, 21):
        cases.append((f"lattice N={N}", lattice(N, 1).points,
                      [k / N for k in range(1, (N + 1) // 2)], 1))
    cases.append(("lattice N=10 d=2", lattice(10, 2).points,
                  [k / 10 for k in range(1, 5)], 2))
    # repeated points lie at distance 0 and connect
    base = rng.random((30, 2))
    cases.append(("duplicates", rng.permutation(
        np.repeat(base, rng.integers(1, 4, size=30), axis=0)), [0.05, 0.2], 2))
    # every point in one cell, and one cluster split by the wrap
    cases.append(("one-cell", 0.3 + 1e-3 * rng.random((200, 2)), [0.01, 0.2], 2))
    cases.append(("wrapped-cluster", (1e-3 * rng.random((200, 2)) - 5e-4) % 1.0,
                  [0.01, 0.2], 2))
    cases.append(("d=4", rng.random((120, 4)), [0.15, 0.3, 0.45], 4))
    # a radius far below the spacing: cells are capped at ceil(n^(1/d))
    # per axis, not 1/radius, so the cell table stays O(n)
    cases.append(("tiny-radius", rng.random((50, 3)), [1e-7], 3))
    for d in (1, 2, 3, 4):
        cases.append((f"n=1 d={d}", rng.random((1, d)), [0.1, 0.45], d))
    return cases


def lattice_scores(N, d, p):
    """Reference all-pairs scores of the N^d lattice, compared by the rule.

    Each axis wraps in integers, w = min(|i_s - j_s|, N - |i_s - j_s|);
    the score is sum (w/N)^p, to meet radius^p, or max w/N under
    Chebyshev, to meet the radius.
    """
    coords = np.indices((N,) * d, dtype=np.int16).reshape(d, -1)
    m = np.abs(coords[:, :, None] - coords[:, None, :])
    delta = np.minimum(m, N - m) / N
    return delta.max(axis=0) if p == INF else (delta ** p).sum(axis=0)


def dense_adjacency(g):
    a = np.zeros((g.n, g.n), dtype=bool)
    a[np.repeat(np.arange(g.n), g.degrees), g.indices] = True
    return a


def edge_set(g):
    return {(int(i), int(j)) for i, j in g.edges()}


def assert_same_csr(a, b):
    assert a.indptr.dtype == b.indptr.dtype == np.int64
    assert a.indices.dtype == b.indices.dtype == np.int64
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def check_adjacency_consistent(g):
    assert g.indptr[0] == 0 and np.all(np.diff(g.indptr) >= 0)
    for i in range(g.n):
        nbrs = g.adjacency[i]
        assert np.array_equal(g.indices[g.indptr[i]:g.indptr[i + 1]], nbrs)
        assert g.degrees[i] == len(nbrs)
        assert i not in nbrs
        assert len(set(nbrs.tolist())) == len(nbrs)
        assert np.all(np.diff(nbrs) > 0)
        for j in nbrs:
            assert i in g.adjacency[j]


def traced_peak(f, *args):
    """(peak bytes allocated during f(*args), its result), by tracemalloc."""
    tracemalloc.start()
    try:
        result = f(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def lexsort_adjacency(n, pairs_i, pairs_j):
    """Reference builder: per-node neighbor arrays by lexsort and np.split."""
    src = np.concatenate([pairs_i, pairs_j])
    dst = np.concatenate([pairs_j, pairs_i])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    repeat = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if np.any(repeat):
        k = np.argmax(repeat)
        raise ValueError(f"edge {src[k]},{dst[k]} appears twice")
    counts = np.bincount(src, minlength=n)
    return np.split(dst, np.cumsum(counts)[:-1]), counts


class TestCsrLayout:
    @pytest.mark.parametrize("seed", range(8))
    def test_key_sort_matches_lexsort_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, 4 * n))
        a, b = rng.integers(0, n, size=(2, m))
        pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)[a != b]
        pairs = rng.permutation(np.unique(pairs, axis=0))
        indptr, indices = _csr_from_pairs(n, pairs.copy())
        adjacency, counts = lexsort_adjacency(n, pairs[:, 0], pairs[:, 1])
        assert indptr.dtype == indices.dtype == np.int64
        assert np.array_equal(np.diff(indptr), counts)
        assert np.array_equal(indices, np.concatenate(adjacency))
        if len(pairs):
            # a repeated pair is reported as the lexsort reference reports it
            extra = pairs[rng.integers(len(pairs), size=3)]
            twice = rng.permutation(np.concatenate([pairs, extra]))
            with pytest.raises(ValueError) as ref:
                lexsort_adjacency(n, twice[:, 0], twice[:, 1])
            with pytest.raises(ValueError, match=re.escape(str(ref.value))):
                _csr_from_pairs(n, twice)

    def test_peak_memory_is_one_key_buffer(self):
        # the pairs are rewritten into the 2m int64 keys, which are sorted
        # and become `indices` in place; beside them only O(n) arrays, one
        # chunk's temporaries and 2m bools of the repeat check are live:
        # measured 0.139x the key bytes
        rng = np.random.default_rng(0)
        n = 4096
        a, b = rng.integers(0, n, size=(2, 300_000))
        pairs = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)],
                                   axis=1)[a != b], axis=0)
        pairs = rng.permutation(pairs)
        key_bytes = 2 * len(pairs) * 8
        peak, (indptr, indices) = traced_peak(_csr_from_pairs, n, pairs)
        assert indices.nbytes == key_bytes
        assert peak <= 0.25 * key_bytes + 32 * (n + 1)

    def test_row_pointers_hold_two_row_arrays(self):
        # one searchsorted of the row starts: the scaled arange and its
        # result are the only (n + 1)-element arrays live at once
        n = 1 << 20
        pairs = np.array([[0, 1], [2, 5], [7, n - 1]])
        _csr_from_pairs(n, pairs.copy())  # numpy's lazy imports
        peak, (indptr, indices) = traced_peak(_csr_from_pairs, n, pairs)
        assert indptr.dtype == np.int64 and indptr[0] == 0
        assert indptr[-1] == len(indices) == 6
        assert peak <= 2.25 * 8 * (n + 1)

    @pytest.mark.parametrize("indptr,indices", [
        ([0, 1, 2], [1, 0]),  # length n, not n + 1
        ([0, 1, 2, 3], [1, 0]),  # ends past len(indices)
        ([0, 1, 1, 1], [1, 0]),  # ends before len(indices)
    ])
    def test_graph_rejects_mismatched_indptr(self, indptr, indices):
        with pytest.raises(ValueError, match="indptr"):
            GeometricGraph(kind="rgg", n=3, dim=1, p=INF, radius=0.1,
                           indptr=np.array(indptr), indices=np.array(indices))


def brute_force_twins(g):
    """Each node's closed-twin class, named by its smallest node, from the
    closed neighbourhoods as Python sets."""
    first = {}
    return np.array([first.setdefault(frozenset([i, *g.adjacency[i].tolist()]), i)
                     for i in range(g.n)])


def twin_test_graphs():
    """RGGs with many twins (d = 1), some (d = 2) and almost none (d = 3),
    under three metrics, and lattices without twins and complete."""
    for d, gamma in ((1, 16.0), (2, 12.0), (3, 10.0)):
        for p in (INF, 2.0, 1.0):
            metric = MetricSpec(p)
            for n in (64, 777):
                yield build_rgg(sample_uniform_points(n, d, [5, n]),
                                radius_for_gamma(gamma, n, d, metric), metric)
    yield build_dgg(512, 1, 0.01)
    yield build_dgg(9, 1, dgg_radius(4, 9))  # complete
    yield build_dgg(25, 2, dgg_radius(2, 5))  # complete
    yield graph_of(5, [])  # edgeless


class TestClosedTwins:
    def test_matches_brute_force(self):
        for g in twin_test_graphs():
            assert np.array_equal(graphs._closed_twins(g), brute_force_twins(g))

    def test_hash_collisions_are_regrouped(self, monkeypatch):
        # with every weight 0 all nodes of one degree share a hash, so the
        # exact comparison alone separates the classes, over several passes
        monkeypatch.setattr(graphs, "_twin_weights",
                            lambda n: np.zeros(n, dtype=np.uint64))
        for g in twin_test_graphs():
            assert np.array_equal(graphs._closed_twins(g), brute_force_twins(g))

    def test_batches_of_one_row(self, monkeypatch):
        # every batch boundary falls between two rows
        monkeypatch.setattr(graphs, "_TWIN_BATCH", 3)
        for g in twin_test_graphs():
            assert np.array_equal(graphs._closed_twins(g), brute_force_twins(g))

    def test_quotient_of_a_hand_built_graph(self):
        # {0, 1} and {4, 5, 6, 7} are twin classes; 2 and 3 are alone
        g = graph_of(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5),
                         (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6),
                         (5, 7), (6, 7)])
        q, size, degrees = graphs._twin_quotient(g)
        assert q.n == 4 and q.kind == g.kind
        assert edge_set(q) == {(0, 1), (1, 2), (2, 3)}
        assert size.tolist() == [2, 1, 1, 4]
        assert degrees.tolist() == [2, 3, 5, 4]

    def test_quotient_without_twins_is_the_graph(self):
        g = build_dgg(512, 1, 0.01)
        q, size, degrees = graphs._twin_quotient(g)
        assert_same_csr(q, g)
        assert np.all(size == 1) and np.array_equal(degrees, g.degrees)


class TestBuildRgg:
    def test_tie_at_exact_radius_connects(self):
        # binary-fraction coordinates so the wrapped difference is exact
        ps = TorusPointSet(dim=1, points=np.array([[0.25], [0.375]]))
        assert build_rgg(ps, 0.125).edges().shape == (1, 2)
        assert build_rgg(ps, 0.124999).edges().shape == (0, 2)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_axis_tie_connects_for_every_p(self, d, p):
        # the offset is exactly the radius along one axis; (r^p)^(1/p)
        # may round above r, so the comparison has to stay in r^p
        pts = np.zeros((2, d))
        pts[1, 0] = 0.125
        g = build_rgg(TorusPointSet(dim=d, points=pts), 0.125, MetricSpec(p))
        assert g.edges().tolist() == [[0, 1]]

    def test_single_point_graph_is_empty(self):
        ps = TorusPointSet(dim=2, points=np.array([[0.5, 0.5]]))
        g = build_rgg(ps, 0.2)
        assert g.n == 1 and g.degrees[0] == 0 and g.edges().shape == (0, 2)

    def test_radius_out_of_range_rejected(self):
        ps = sample_uniform_points(10, 2, 0)
        for r in (0.0, -0.1, 0.5, 0.7):
            with pytest.raises(ValueError):
                build_rgg(ps, r)

    def test_matches_brute_force_euclidean(self):
        ps = sample_uniform_points(64, 2, 42)
        r = radius_for_gamma(6, 64, 2, MetricSpec(2))
        g = build_rgg(ps, r, MetricSpec(2))
        assert edge_set(g) == brute_force_edges(ps.points, r, 2)

    def test_matches_brute_force_many_instances(self):
        # random points at radii from a few points per ball up to near the
        # 0.5 cap, where most pairs wrap; and lattice points at the radii
        # k/N, where offsets land exactly on the radius, the one place where
        # comparing sum delta^p with r^p and taking the root could part
        rng = np.random.default_rng(3)
        lattice_sides = {1: (5, 8, 12, 33), 2: (5, 7, 10, 12), 3: (4, 5, 7)}
        count = 0
        for d in (1, 2, 3):
            for p in (1.0, 2.0, INF):
                instances = []
                for radius in (0.04, 0.11, 0.26, 0.41):
                    for seed in range(6):
                        n = int(rng.integers(24, 128))
                        ps = sample_uniform_points(n, d, [d, int(p * 10) if p != INF else 0, seed])
                        instances.append((ps, radius, f"seed={seed}"))
                for N in lattice_sides[d]:
                    instances += [(lattice(N, d), k / N, f"lattice N={N}")
                                  for k in range(1, (N + 1) // 2)]
                for ps, radius, label in instances:
                    g = build_rgg(ps, radius, MetricSpec(p))
                    assert edge_set(g) == brute_force_edges(ps.points, radius, p), \
                        f"mismatch at d={d} p={p} r={radius} {label}"
                    count += 1
        assert count >= 200

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
    def test_matches_brute_force_at_cell_list_edges(self, p):
        for label, pts, radii, d in cell_list_edge_cases():
            ps = TorusPointSet(dim=d, points=pts)
            for radius in radii:
                g = build_rgg(ps, radius, MetricSpec(p))
                assert edge_set(g) == brute_force_rule_edges(ps.points, radius, p), \
                    f"mismatch at {label} r={radius}"
                if label.startswith(("one-cell", "duplicates")) and radius == 0.2:
                    assert g.edges().shape[0] > 0

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_candidate_block_size_does_not_change_the_graph(self, monkeypatch,
                                                            block):
        # a block of one candidate, and blocks cut inside one point's
        # candidates, where a crowded cell gives a point more than a block
        crowded = np.concatenate([sample_uniform_points(400, 2, 5).points,
                                  0.6 + 1e-3 * np.random.default_rng(5).random((60, 2))])
        instances = [(sample_uniform_points(500, 1, 4), 0.01, 1.0),
                     (TorusPointSet(dim=2, points=crowded), 0.05, 2.0),
                     (sample_uniform_points(300, 3, 6), 0.12, INF)]
        expect = [build_rgg(ps, r, MetricSpec(p)) for ps, r, p in instances]
        monkeypatch.setattr(graphs, "_PAIR_BLOCK", block)
        for (ps, r, p), g in zip(instances, expect):
            assert_same_csr(build_rgg(ps, r, MetricSpec(p)), g)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_kd_tree_oracle_past_brute_force(self, d, p):
        n = 15_000 + 5_000 * d
        for seed in (1, 2):
            ps = sample_uniform_points(n, d, [seed, d])
            radius = radius_for_gamma(10, n, d, MetricSpec(p))
            g = build_rgg(ps, radius, MetricSpec(p))
            indptr, indices = kd_tree_csr(ps, radius, p)
            assert np.array_equal(g.indptr, indptr)
            assert np.array_equal(g.indices, indices)

    def test_benchmark_graph_matches_kd_tree_oracle(self):
        # the graph_io_d2 graph: n = 131,072, d = 2, gamma = 12, Chebyshev
        ps = sample_uniform_points(131_072, 2, 0)
        radius = radius_for_gamma(12.0, 131_072, 2)
        g = build_rgg(ps, radius)
        indptr, indices = kd_tree_csr(ps, radius, INF)
        assert g.indices.size == 2 * 786_221
        assert np.array_equal(g.indptr, indptr)
        assert np.array_equal(g.indices, indices)

    def test_build_holds_kept_pairs_and_one_key_buffer(self):
        # the kept pairs (as many bytes as the keys) and the 2m keys are
        # live at once; beside them O(n) cell arrays and one candidate
        # block: measured 2.21x the key bytes on the graph_io_d2 graph
        build_rgg(sample_uniform_points(500, 2, 1), 0.05)  # numpy's lazy imports
        ps = sample_uniform_points(131_072, 2, 0)
        peak, g = traced_peak(build_rgg, ps, radius_for_gamma(12.0, 131_072, 2))
        assert peak <= 2.25 * g.indices.nbytes

    def test_build_and_read_load_no_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(rgg_spectra.__file__))
        probe = (
            "import sys\n"
            "from rgg_spectra import build_rgg, read_graph_csv, "
            "sample_uniform_points, write_graph_csv\n"
            "g = build_rgg(sample_uniform_points(2000, 2, 0), 0.05)\n"
            f"write_graph_csv(g, {str(tmp_path / 'graph.csv')!r})\n"
            f"read_graph_csv({str(tmp_path / 'graph.csv')!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", probe],
                                env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_adjacency_structure(self):
        ps = sample_uniform_points(120, 2, 8)
        g = build_rgg(ps, 0.09)
        check_adjacency_consistent(g)

    def test_edges_sorted_lexicographically(self):
        ps = sample_uniform_points(80, 2, 9)
        e = build_rgg(ps, 0.12).edges()
        assert np.all(e[:, 0] < e[:, 1])
        order = np.lexsort((e[:, 1], e[:, 0]))
        assert np.array_equal(order, np.arange(len(e)))

    def test_mean_degree_concentrates(self):
        lo, hi = [], []
        r = radius_for_gamma(12, 4096, 2, MetricSpec(INF))
        for seed in range(20):
            g = build_rgg(sample_uniform_points(4096, 2, seed), r)
            lo.append(g.mean_degree())
        assert 11.0 <= min(lo) and max(lo) <= 13.0


class TestBuildDgg:
    def test_chain_stencil_degree(self):
        g = build_dgg(8, 1, 0.3)  # floor(8 * 0.3) = 2 lattice steps
        assert np.all(g.degrees == 4)

    def test_two_dim_chebyshev_degree(self):
        g = build_dgg(16, 2, 0.26)  # floor(4 * 0.26) = 1
        assert np.all(g.degrees == 8)

    def test_equals_rgg_on_lattice_points(self):
        for N, d, r in ((16, 1, 0.2), (8, 2, 0.18), (3, 3, 0.34)):
            dgg = build_dgg(N ** d, d, r)
            rgg = build_rgg(lattice(N, d), r)
            assert edge_set(dgg) == edge_set(rgg)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    @pytest.mark.parametrize("d,N", [(1, 8), (1, 16), (1, 64), (2, 8),
                                     (2, 16), (3, 8)])
    def test_equals_rgg_on_lattice_points_at_ties(self, d, N, p):
        # dyadic N keeps the coordinates i/N exact, so offsets of exactly
        # k lattice steps tie with the radius k/N in both builders
        pts = lattice(N, d)
        radii = [k / N for k in range(1, (N + 1) // 2)]
        radii += [(k + 0.5) / N for k in range(N // 2)]
        for r in radii:
            dgg = build_dgg(N ** d, d, r, MetricSpec(p))
            rgg = build_rgg(pts, r, MetricSpec(p))
            assert np.array_equal(dgg.edges(), rgg.edges()), f"radius {r}"

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    @pytest.mark.parametrize("d,N", [(1, 44), (1, 45), (1, 47), (1, 49),
                                     (2, 49)])
    def test_tie_shell_matches_all_pairs_oracle(self, d, N, p):
        # N * (k/N) can round below k, so no float bound on the stencil
        # may drop the shell of offsets exactly at the radius k/N
        score = lattice_scores(N, d, p)
        for k in range(1, (N + 1) // 2):
            r = k / N
            within = score <= (r if p == INF else r ** p)
            np.fill_diagonal(within, False)
            g = build_dgg(N ** d, d, r, MetricSpec(p))
            assert np.array_equal(dense_adjacency(g), within), f"k = {k}"

    def test_tie_shell_degrees(self):
        assert np.all(build_dgg(49, 1, 1 / 49).degrees == 2)
        assert np.all(build_dgg(49 ** 2, 2, 2 / 49).degrees == 24)

    def test_build_holds_two_neighbour_tables(self):
        # neighbour ids are accumulated one axis at a time: the n x degree
        # ids and one n x degree scratch table, no n x degree x d array
        peak, g = traced_peak(build_dgg, 25 ** 2, 2, 12.25 / 25)
        assert np.all(g.degrees == 25 ** 2 - 1)
        assert peak <= 2.5 * g.indices.nbytes

    def test_vertex_transitive_and_consistent(self):
        g = build_dgg(49, 2, 0.22)
        assert len(set(g.degrees.tolist())) == 1
        check_adjacency_consistent(g)

    def test_non_power_count_rejected(self):
        with pytest.raises(ValueError):
            build_dgg(10, 2, 0.2)

    def test_radius_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=re.escape("lie in (0, 0.5)")):
            build_dgg(64, 1, 0.5)


class TestDegreeHelpers:
    @pytest.mark.parametrize("gamma,d,expect", [
        (8, 1, 16),
        (28, 1, 56),
        (12, 2, 48),
        (0, 1, 0),
    ])
    def test_dgg_degree_formula(self, gamma, d, expect):
        assert dgg_degree(gamma, d) == expect

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_dgg_degree_exact_on_perfect_powers(self, d):
        # the float root misses some powers: 64 ** (1/3) is 3.9999999999999996
        for k in range(1, 21):
            power = k ** d
            assert dgg_degree(power, d) == (2 * k + 1) ** d - 1
            assert dgg_degree(float(power), d) == (2 * k + 1) ** d - 1
            below = np.nextafter(float(power), 0.0)
            assert dgg_degree(below, d) == (2 * k - 1) ** d - 1

    def test_dgg_degree_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="nonnegative"):
            dgg_degree(-1.0, 2)

    @pytest.mark.parametrize("gamma,d,message", [
        (8.0, 0, "d must be at least 1"),
        (math.inf, 1, "finite"),
        (math.nan, 2, "finite"),
    ])
    def test_dgg_degree_rejects_bad_root(self, gamma, d, message):
        with pytest.raises(ValueError, match=message):
            dgg_degree(gamma, d)

    def test_dgg_for_gamma_exact_on_perfect_powers(self):
        # floor(gamma ** (1/d)) gives k - 1 at each of these cubes
        for gamma, d, k, N in ((64, 3, 4, 9), (64, 3, 4, 10), (125, 3, 5, 11)):
            assert math.floor(gamma ** (1.0 / d)) == k - 1
            g = matched_grid(gamma, N, d)
            assert np.all(g.degrees == (2 * k + 1) ** d - 1)
            assert np.all(g.degrees == dgg_degree(gamma, d))
            below = matched_grid(np.nextafter(float(gamma), 0.0), N, d)
            assert np.all(below.degrees == (2 * k - 1) ** d - 1)

    def test_dgg_radius_selects_k_steps(self):
        for k, N in ((2, 8), (8, 1024), (1, 4)):
            r = dgg_radius(k, N)
            assert r < 0.5
            assert int(N * r) == k

    def test_dgg_radius_full_row_stays_below_half(self):
        r = dgg_radius(3, 7)  # 2k+1 = N
        assert r == pytest.approx(3.25 / 7)
        assert r < 0.5

    def test_dgg_radius_oversized_stencil_rejected(self):
        with pytest.raises(ValueError):
            dgg_radius(4, 7)

    def test_dgg_radius_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            dgg_radius(-1, 8)

    @pytest.mark.parametrize("d,gamma,n,k,ratio", [
        (1, 16, 4096, 16, 33 / 16),
        (2, 12, 4096, 3, 7 / math.sqrt(12)),
    ], ids=["d=1", "d=2"])
    def test_grid_radius_against_rgg_radius(self, d, gamma, n, k, ratio):
        # gamma is the RGG's mean degree n * vol(r); the grid takes
        # k = floor(gamma^(1/d)) steps per side, so under Chebyshev its
        # radius (k + 1/2)/N is (2k+1)/gamma^(1/d) times the RGG's
        # gamma^(1/d)/(2N)
        N = round(n ** (1.0 / d))
        assert dgg_degree(gamma, d) == (2 * k + 1) ** d - 1
        assert matched_grid(gamma, N, d).radius == dgg_radius(k, N)
        assert (dgg_radius(k, N) / radius_for_gamma(gamma, n, d)
                == pytest.approx(ratio, rel=1e-15))

    def test_dgg_for_gamma_realizes_matched_degree(self):
        for gamma, N, d in ((8, 64, 1), (12, 16, 2), (28, 128, 1)):
            g = matched_grid(gamma, N, d)
            assert g.kind == "dgg"
            assert np.all(g.degrees == dgg_degree(gamma, d))


class TestGraphCsv:
    def test_round_trip_rgg(self, tmp_path):
        ps = sample_uniform_points(60, 2, 17)
        g = build_rgg(ps, 0.15, MetricSpec(2))
        path = tmp_path / "graph.csv"
        write_graph_csv(g, path)
        back = read_graph_csv(path)
        assert (back.kind, back.n, back.dim, back.p) == (g.kind, g.n, g.dim, g.p)
        assert back.radius == g.radius
        assert edge_set(back) == edge_set(g)
        assert np.array_equal(back.degrees, g.degrees)
        assert_same_csr(back, g)

    def test_round_trip_dgg_chebyshev_header(self, tmp_path):
        g = build_dgg(25, 2, 0.21)
        path = tmp_path / "graph.csv"
        write_graph_csv(g, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "dgg" and header[3] == "inf" and header[5] == ""
        back = read_graph_csv(path)
        assert back.p == INF and back.seed is None
        assert edge_set(back) == edge_set(g)
        assert_same_csr(back, g)

    def test_writer_bytes_match_line_per_edge_reference(self, tmp_path):
        ps = sample_uniform_points(20000, 1, 3)
        g = build_rgg(ps, radius_for_gamma(8, 20000, 1))
        assert g.edges().shape[0] > 1 << 16  # spans more than one write chunk
        assert g.indices.size > 8 * _CSV_CHUNK  # and several CSR row blocks
        path = tmp_path / "graph.csv"
        write_graph_csv(g, path)
        expect = f"rgg,20000,1,inf,{'%.17g' % g.radius},3\n" + "".join(
            f"{i},{j}\n" for i, j in g.edges())
        assert path.read_bytes() == expect.encode()
        assert_same_csr(read_graph_csv(path), g)

    @pytest.mark.parametrize("pairs", [
        # isolated vertices on row-block boundaries and at the end: a path
        # over more than one block, a gap of isolated vertices, a path
        np.array([(i, i + 1) for i in range(_CSV_CHUNK)]
                 + [(i, i + 1) for i in range(2 * _CSV_CHUNK, 3 * _CSV_CHUNK)]),
        # a star whose centre alone has more entries than a block
        np.array([(0, j) for j in range(1, _CSV_CHUNK + 3)]
                 + [(j, j + 1) for j in range(1, _CSV_CHUNK + 2, 2)]),
    ], ids=["isolated-runs", "large-row"])
    def test_writer_bytes_at_row_block_boundaries(self, tmp_path, pairs):
        n = int(pairs.max()) + 5
        indptr, indices = _csr_from_pairs(n, pairs.copy())
        g = GeometricGraph(kind="rgg", n=n, dim=1, p=2.0, radius=0.25,
                           indptr=indptr, indices=indices, seed=7)
        path = tmp_path / "graph.csv"
        write_graph_csv(g, path)
        expect = f"rgg,{n},1,2,0.25,7\n" + "".join(
            "%d,%d\n" % (i, j) for i, j in g.edges().tolist())
        assert path.read_bytes() == expect.encode()
        assert_same_csr(read_graph_csv(path), g)

    def test_writer_memory_does_not_grow_with_edges(self, tmp_path):
        # ring lattices of degree 12, with 98,304 and 786,432 edges
        peaks = [traced_peak(write_graph_csv, build_dgg(n, 1, 6.5 / n),
                             tmp_path / "graph.csv")[0]
                 for n in (1 << 14, 1 << 17)]
        assert peaks[1] < peaks[0] + (1 << 20)
        assert peaks[1] < 4 << 20

    def test_round_trip_edgeless(self, tmp_path):
        ps = TorusPointSet(dim=1, points=np.array([[0.1], [0.6]]))
        g = build_rgg(ps, 0.05)
        path = tmp_path / "graph.csv"
        write_graph_csv(g, path)
        assert path.read_text() == f"rgg,2,1,inf,{'%.17g' % 0.05},\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's "no data" warning
            back = read_graph_csv(path)
        assert back.n == 2 and back.edges().shape == (0, 2)

    def test_blank_lines_read_as_no_rows(self, tmp_path):
        # a blank line inside the body, and a trailing one: each is counted
        # as a line but parses to no row, and loadtxt's warning stays quiet
        g = build_dgg(_CSV_CHUNK, 1, 1.5 / _CSV_CHUNK)  # a ring
        path = tmp_path / "graph.csv"
        write_graph_csv(g, path)
        header, *lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == _CSV_CHUNK
        path.write_text(header + "".join(lines[:5]) + "\n" + "".join(lines[5:-1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_graph_csv(path)
        assert edge_set(back) == edge_set(g) - {tuple(g.edges()[-1].tolist())}
        path.write_text(header + "".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_csr(read_graph_csv(path), g)

    def test_last_line_without_newline_is_read(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("rgg,4,1,inf,0.1,\n0,1\n1,2")
        assert read_graph_csv(path).edges().tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("body,message", [
        ("0,0\n", "edge 0,0 is not 0 <= i < j < 4"),
        ("0,1\n1,0\n", "edge 1,0 is not 0 <= i < j < 4"),
        ("0,1\n1,2\n0,1\n", "edge 0,1 appears twice"),
        ("0,4\n", "edge 0,4 is not 0 <= i < j < 4"),
        ("-1,2\n", "edge -1,2 is not 0 <= i < j < 4"),
    ])
    def test_malformed_edges_rejected(self, tmp_path, body, message):
        path = tmp_path / "graph.csv"
        path.write_text("rgg,4,1,inf,0.1,\n" + body)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_graph_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("rgg,4,1,inf,0.1,\n0,1,2\n1,2,3\n", "expected 2 columns"),
        ("rgg,4,1,inf,0.1,\n0\n1\n", "expected 2 columns"),
        ("rgg,4,1,inf,0.1,\n0,1\n1,2,3\n", "columns"),
        ("rgg,4,1,inf,0.1\n0,1\n", "expected 6 header fields"),
        ("", "expected 6 header fields"),
        ("rgg,-1,1,inf,0.1,\n", "negative node count -1"),
        ("rgg,-2,1,inf,0.1,\n", "negative node count -2"),
        ("foo,4,1,inf,0.1,\n0,1\n", "kind must be 'rgg' or 'dgg'"),
        # header values that no builder writes; each message names the file
        ("rgg,2,0,inf,0.1,\n", "dimension 0 < 1 in .*graph.csv"),
        ("rgg,2,0,0.5,7,\n", "dimension 0 < 1 in .*graph.csv"),
        ("rgg,2,1,0.5,0.1,\n", "lp exponent 0.5 is not >= 1 in .*graph.csv"),
        ("dgg,3,1,nan,0.1,\n", "lp exponent nan is not >= 1 in .*graph.csv"),
        ("rgg,2,1,inf,0,\n", r"radius 0.0 is not in \(0, 0.5\) in .*graph.csv"),
        ("rgg,2,1,inf,0.5,\n", r"radius 0.5 is not in \(0, 0.5\) in .*graph.csv"),
        ("rgg,2,1,2,7,\n", r"radius 7.0 is not in \(0, 0.5\) in .*graph.csv"),
        ("dgg,3,1,inf,nan,\n", r"radius nan is not in \(0, 0.5\) in .*graph.csv"),
    ], ids=["three-columns", "one-column", "ragged", "short-header", "empty",
            "n=-1", "n=-2", "kind", "dim=0", "dim=0-p=0.5-radius=7", "p=0.5",
            "p=nan", "radius=0", "radius=0.5", "radius=7", "radius=nan"])
    def test_malformed_layout_rejected(self, tmp_path, text, message):
        path = tmp_path / "graph.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_graph_csv(path)
