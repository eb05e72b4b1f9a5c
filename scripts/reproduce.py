#!/usr/bin/env python3
"""Reproduce the paper's experiments as runs of the rgg-spectra CLI.

Each experiment is a list of CLI runs, (subdirectory of --out, argv):
  convergence        Levy distance between RGG and matched-grid spectra,
                     d = 1, gamma 16, n = 256, 1024, 4096, 10 seeds each
  convergence-quick  the same at n = 256, 512, 1024 with 3 seeds
  specdim            cdf, heat and walk estimates of d_s on the closed-form
                     grid spectrum at n = 4096, for d = 1 and d = 2
  curves             numeric vs closed-form chain spectra at gamma 8 and 28,
                     plus the heat-trace and walk curves at gamma 8

Every argument other than the experiment name and --out is appended to each
run's argv.  The CLI keeps the last value of a repeated flag, so forwarded
flags override the table.  Every run also writes its SVG plots.

Usage:
  python scripts/reproduce.py convergence
  python scripts/reproduce.py convergence-quick --gamma 8 --alpha 0.2
  python scripts/reproduce.py specdim --walkers 200000 --out results/specdim_big
"""

import argparse
import sys

from rgg_spectra.cli import main as cli_main

# name -> [(subdirectory of --out, CLI argv)]; n = N^d = 4096 in specdim
EXPERIMENTS = {
    "convergence": [
        ("", "levy --d 1 --gamma 16 --alpha 0.1 --n-list 256,1024,4096 "
             "--seeds 10".split())],
    "convergence-quick": [
        ("", "levy --d 1 --gamma 16 --alpha 0.1 --n-list 256,512,1024 "
             "--seeds 3".split())],
    "specdim": [
        ("d1", "specdim --d 1 --N 4096 --gamma-prime 16 --alpha 0.1 "
               "--walkers 100000 --tmax 512 --seed 0".split()),
        ("d2", "specdim --d 2 --N 64 --gamma-prime 8 --alpha 0.1 "
               "--walkers 100000 --tmax 512 --seed 0".split())],
    "curves": [
        ("gamma8", "spectrum --kind dgg --d 1 --N 512 --gamma 8 "
                   "--alpha 0.1".split()),
        ("gamma28", "spectrum --kind dgg --d 1 --N 512 --gamma 28 "
                    "--alpha 0.1".split()),
        ("diffusion", "diffusion --d 1 --N 512 --gamma 8 --alpha 0.1 "
                      "--walkers 50000 --tmax 256".split())],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, allow_abbrev=False,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--out", help="output root (default results/<experiment>)")
    args, forwarded = parser.parse_known_args(argv)
    out = args.out or f"results/{args.experiment}"

    for subdir, run in EXPERIMENTS[args.experiment]:
        code = cli_main(run + ["--out", f"{out}/{subdir}" if subdir else out,
                               "--svg"] + forwarded)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
