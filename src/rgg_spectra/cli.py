"""Command-line driver.

Five subcommands share one output convention: every run writes its data
files plus a manifest.json (resolved configuration, toolkit version, PRNG
algorithm, dense eigensolver route, BLAS thread count in effect, wall time,
sha256 per file) into the --out directory.  Floats are printed with 17
significant digits so runs round-trip exactly.

Only a run that succeeds writes files, the manifest last: each handler
computes everything and returns (file name, write) pairs, which are
written after it returns.  A failed run leaves --out absent or empty.

Thread pinning must precede BLAS initialization, so this module holds only
what runs before numpy may load: the option registry and parsers, the
config merge and the thread pin.  It imports the standard library and the
package root; `main` imports the handlers, in `_commands`, once
`_apply_threads` has set the BLAS environment.

Exit codes: 0 success, 2 bad parameters or regime, 3 problem size beyond
the dense eigensolver cap or the walk's int32 table, 4 estimation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections import namedtuple
from pathlib import Path

from . import __version__
from .errors import CapacityError, EstimationError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_ESTIMATION = 4

THREADS_ENV = "RGG_SPECTRA_THREADS"

_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# small parsing helpers

def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> list[int]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty size list")
    return [int(s) for s in items]


_KINDS = ("rgg", "dgg")


def _parse_kind(text: str) -> str:
    if text not in _KINDS:
        raise ValueError(f"unknown kind {text!r}; choose from {', '.join(_KINDS)}")
    return text


_METHOD_NAMES = ("cdf", "heat", "mc")


def _parse_methods(text: str) -> tuple[str, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty method list")
    for item in items:
        if item not in _METHOD_NAMES:
            raise ValueError(
                f"unknown method {item!r}; choose from {', '.join(_METHOD_NAMES)}")
    return tuple(dict.fromkeys(items))


# ---------------------------------------------------------------------------
# option registry; argparse defaults stay None so config files can fill gaps

Opt = namedtuple("Opt", "conv default help")

_COMMON = {
    "out": Opt(str, None, "output directory (required)"),
    "threads": Opt(int, None,
                   f"BLAS thread cap; falls back to ${THREADS_ENV}"),
    "svg": Opt(_parse_bool, False, "also write SVG plots"),
}

_GRID = {
    "d": Opt(int, 1, "ambient dimension"),
    "N": Opt(int, None, "grid side, n = N^d"),
    "gamma": Opt(float, None, "target mean degree"),
    "gamma_prime": Opt(int, None, "exact grid degree (2k+1)^d - 1"),
    "alpha": Opt(float, 0.1, "regularizer weight"),
}

_METRIC_P = Opt(float, math.inf, "torus metric exponent; inf for Chebyshev")

_WALK = {
    "seed": Opt(int, 0, "PRNG seed"),
    "walkers": Opt(int, 100000, "random walkers for the return-probability run"),
    "tmax": Opt(int, 512, "walk length in steps"),
}

_OPTS: dict[str, dict[str, Opt]] = {
    "spectrum": {
        "kind": Opt(_parse_kind, "rgg", "graph family: rgg or dgg"),
        "n": Opt(int, None, "number of random points (rgg)"),
        **_GRID,
        "N": Opt(int, None, "grid side (dgg), n = N^d"),
        "radius": Opt(float, None, "connection radius; overrides gamma"),
        "p": _METRIC_P,
        "seed": Opt(int, 0, "PRNG seed for the point sample"),
        **_COMMON,
    },
    "analytic-spectrum": {**_GRID, **_COMMON},
    "levy": {
        "d": _GRID["d"],
        "gamma": Opt(float, 8.0, "target mean degree"),
        "alpha": _GRID["alpha"],
        "p": _METRIC_P,
        "n_list": Opt(_parse_int_list, [1024, 2048, 4096],
                      "comma-separated point counts"),
        "seeds": Opt(int, 10, "number of trials per size, seeds 0..s-1"),
        **_COMMON,
    },
    "specdim": {
        **_GRID,
        **_WALK,
        "methods": Opt(_parse_methods, ("cdf", "heat", "mc"),
                       "comma-separated estimators: cdf, heat, mc"),
        **_COMMON,
    },
    "diffusion": {**_GRID, **_WALK, **_COMMON},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgg-spectra",
        description="Spectra of random geometric and grid graphs on the "
                    "unit torus: eigenvalue distributions, Levy-distance "
                    "convergence, and spectral-dimension estimates.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "spectrum": "eigensolve one graph and dump its spectrum",
        "analytic-spectrum": "closed-form grid spectrum, no eigensolver",
        "levy": "RGG-vs-grid Levy distances over sizes and seeds",
        "specdim": "spectral-dimension estimates by cdf, heat, and mc routes",
        "diffusion": "raw heat-trace and random-walk return curves",
    }
    for command, opts in _OPTS.items():
        sp = sub.add_parser(command, help=helps[command])
        for name, opt in opts.items():
            flag = "--" + name.replace("_", "-")
            if name == "svg":
                sp.add_argument(flag, action="store_true", default=None,
                                help=opt.help)
            elif name == "kind":
                sp.add_argument(flag, choices=_KINDS, default=None,
                                help=opt.help)
            else:
                sp.add_argument(flag, type=opt.conv, default=None,
                                metavar=name.upper(), help=opt.help)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="key=value file; explicit flags win")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def _merge(args: argparse.Namespace, opts: dict[str, Opt]) -> dict:
    raw = _read_config_file(args.config) if args.config else {}
    known = {k.replace("-", "_") for k in opts}
    unknown = sorted(k for k in raw if k.replace("-", "_") not in known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    cfg = {}
    for name, opt in opts.items():
        cli_val = getattr(args, name)
        if cli_val is not None:
            cfg[name] = cli_val
            continue
        for key in (name, name.replace("_", "-")):
            if key in raw:
                cfg[name] = opt.conv(raw[key])
                break
        else:
            cfg[name] = opt.default
    return cfg


def _apply_threads(cfg: dict) -> None:
    threads = cfg.get("threads")
    if threads is None:
        env = os.environ.get(THREADS_ENV)
        if env:
            threads = int(env)
    if threads is not None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        for var in _BLAS_ENV:
            os.environ[var] = str(threads)
    cfg["threads"] = threads


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = _merge(args, _OPTS[args.command])
        _apply_threads(cfg)
        from . import _commands
        _commands.run(args.command, cfg, start)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
