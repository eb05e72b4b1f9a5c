"""The benchmark's workloads, their inputs and their output checks.

Each workload derives its inputs from the benchmark seed only.  `run` is
the timed part; `check` runs after the timed window and returns a list of
problems, empty when the outputs are correct.  Calls go through module
attributes (`spectra.convergence_study`, not a bound name) so the traced
run's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from rgg_spectra import cli, graphs, spectra, torus

# Seed at which outputs are also compared with recorded reference values.
DEFAULT_SEED = 0


class LevyD1:
    """RGG-vs-lattice Levy convergence study in d = 1 (three dense sizes)."""

    name = "levy_d1"
    # Levy distances at DEFAULT_SEED, one per (n, seed) in study order.
    reference = [0.05157544743269682, 0.05066268518567085,
                 0.052587516605854034, 0.05186713766306639,
                 0.05293861869722605, 0.051412880420684814]

    def params(self, seed: int) -> dict:
        return {"d": 1, "gamma": 16.0, "alpha": 0.1, "p": "inf",
                "n_list": [1024, 2048, 4096], "seeds": [seed, seed + 1]}

    def run(self, p: dict, workdir: str):
        return spectra.convergence_study(
            p["d"], p["gamma"], p["alpha"], torus.MetricSpec(),
            p["n_list"], p["seeds"])

    def check(self, p: dict, rows, seed: int) -> list[str]:
        problems = []
        expected = [(n, s) for n in p["n_list"] for s in p["seeds"]]
        got = [(r.n, r.seed) for r in rows]
        if got != expected:
            problems.append(f"rows {got} != expected {expected}")
        for r in rows:
            if not 0.0 <= r.levy <= 1.0:
                problems.append(f"levy {r.levy} at n={r.n} outside [0, 1]")
        if seed == DEFAULT_SEED:
            for r, ref in zip(rows, self.reference):
                if abs(r.levy - ref) > 1e-9:
                    problems.append(f"levy {r.levy!r} at n={r.n} seed={r.seed} "
                                    f"!= reference {ref!r}")
        return problems


class SpecdimD2:
    """The `specdim` CLI command on the 64 x 64 lattice, called in-process."""

    name = "specdim_d2"
    # Criterion-6 bands around d; the Monte Carlo estimate gets the
    # heat-trace band.  The goldens for (d, N, gamma') = (2, 64, 8) do not
    # depend on the seed, so they are checked at every seed.
    bands = {"cdf_slope": 0.2, "heat_trace": 0.25, "monte_carlo": 0.25}
    golden = {"cdf_slope": 1.8245475910612836, "heat_trace": 2.162467519487647}
    mc_reference = 2.1483632969069508  # at DEFAULT_SEED

    def params(self, seed: int) -> dict:
        return {"d": 2, "N": 64, "gamma_prime": 8, "alpha": 0.1,
                "walkers": 1_000_000, "tmax": 512, "seed": seed}

    def argv(self, p: dict, out: str) -> list[str]:
        return ["specdim", "--d", str(p["d"]), "--N", str(p["N"]),
                "--gamma-prime", str(p["gamma_prime"]),
                "--alpha", str(p["alpha"]), "--walkers", str(p["walkers"]),
                "--tmax", str(p["tmax"]), "--seed", str(p["seed"]),
                "--out", out]

    def run(self, p: dict, workdir: str):
        out = os.path.join(workdir, "specdim")
        code = cli.main(self.argv(p, out))
        return code, out

    def check(self, p: dict, result, seed: int) -> list[str]:
        code, out = result
        if code != 0:
            return [f"cli.main returned {code}"]
        problems = []
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        for name, digest in manifest["outputs"].items():
            with open(os.path.join(out, name), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != digest:
                    problems.append(f"{name} does not match its manifest sha256")
        with open(os.path.join(out, "estimates.csv")) as fh:
            d_s = {row["method"]: float(row["d_s"]) for row in csv.DictReader(fh)}
        if sorted(d_s) != ["cdf_slope", "heat_trace", "monte_carlo"]:
            return problems + [f"estimates for {sorted(d_s)}"]
        for method, band in self.bands.items():
            if abs(d_s[method] - p["d"]) > band:
                problems.append(f"{method} d_s {d_s[method]} outside {p['d']} +- {band}")
        references = dict(self.golden)
        if seed == DEFAULT_SEED:
            references["monte_carlo"] = self.mc_reference
        for method, ref in references.items():
            if abs(d_s[method] - ref) > 1e-9:
                problems.append(f"{method} d_s {d_s[method]!r} != reference {ref!r}")
        return problems


class GraphIoD2:
    """Sample, build and CSV round-trip a large d = 2 RGG; no eigensolve."""

    name = "graph_io_d2"
    reference_edges = 786_221  # at DEFAULT_SEED
    checked_vertices = 256

    def params(self, seed: int) -> dict:
        return {"n": 131_072, "d": 2, "gamma": 12.0, "p": "inf", "seed": seed}

    def run(self, p: dict, workdir: str):
        metric = torus.MetricSpec()
        pts = torus.sample_uniform_points(p["n"], p["d"], p["seed"])
        radius = torus.radius_for_gamma(p["gamma"], p["n"], p["d"], metric)
        g = graphs.build_rgg(pts, radius, metric)
        points_path = os.path.join(workdir, "points.csv")
        graph_path = os.path.join(workdir, "graph.csv")
        torus.write_points_csv(pts, points_path)
        graphs.write_graph_csv(g, graph_path)
        return pts, g, torus.read_points_csv(points_path), \
            graphs.read_graph_csv(graph_path)

    def check(self, p: dict, result, seed: int) -> list[str]:
        pts, g, pts_back, g_back = result
        problems = []
        if not np.array_equal(pts.points, pts_back.points):
            problems.append("points.csv does not round-trip exactly")
        for field in ("kind", "n", "dim", "p", "radius", "seed"):
            if getattr(g, field) != getattr(g_back, field):
                problems.append(f"graph.csv changes {field}")
        if not np.array_equal(g.degrees, g_back.degrees) or not np.array_equal(
                np.concatenate(g.adjacency), np.concatenate(g_back.adjacency)):
            problems.append("graph.csv does not round-trip the adjacency")
        # brute-force neighbour sets of sampled vertices, Chebyshev metric
        rng = np.random.default_rng([seed, 256])
        sample = rng.choice(p["n"], size=self.checked_vertices, replace=False)
        for v in sample:
            delta = np.abs(pts.points - pts.points[v])
            dist = np.minimum(delta, 1.0 - delta).max(axis=1)
            nbrs = np.flatnonzero(dist <= g.radius)
            nbrs = nbrs[nbrs != v]
            if not np.array_equal(nbrs, g.adjacency[v]):
                problems.append(f"vertex {v}: {len(g.adjacency[v])} neighbours, "
                                f"brute force finds {len(nbrs)}")
                break
        edges = int(g.degrees.sum()) // 2
        if seed == DEFAULT_SEED and edges != self.reference_edges:
            problems.append(f"{edges} edges != reference {self.reference_edges}")
        return problems


WORKLOADS = {w.name: w for w in (LevyD1(), SpecdimD2(), GraphIoD2())}
