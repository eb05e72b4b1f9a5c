#!/usr/bin/env python3
"""Levy-distance convergence of RGG spectra toward the matched grid.

For each size n and seed, samples a random geometric graph at the radius
solving the mean-degree equation, takes the degree-matched grid graph on
the same n, and records the Levy distance between the two regularized
spectra (the grid's from its closed form).  Medians of the cubed distance should fall as n grows.

Usage:
  python scripts/run_convergence.py
  python scripts/run_convergence.py --quick --out results/convergence_quick
"""

import argparse
import sys

from rgg_spectra.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=1, help="dimension (default 1)")
    parser.add_argument("--gamma", type=float, default=16.0,
                        help="target mean degree (default 16)")
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--seeds", type=int, default=10,
                        help="trials per size (default 10)")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes only, 3 seeds")
    parser.add_argument("--out", default="results/convergence")
    args = parser.parse_args()

    if args.quick:
        n_list, seeds = "256,512,1024", 3
    else:
        n_list, seeds = "256,1024,4096", args.seeds

    return cli_main([
        "levy", "--d", str(args.d), "--gamma", str(args.gamma),
        "--alpha", str(args.alpha), "--n-list", n_list,
        "--seeds", str(seeds), "--out", args.out, "--svg",
    ])


if __name__ == "__main__":
    sys.exit(main())
