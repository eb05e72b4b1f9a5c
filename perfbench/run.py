"""rgg-spectra benchmark: one workload, closed loop, one run per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload levy_d1 --seed 0 --seconds 25 --trace 0

Each run is a fresh child process (child.py) with the BLAS thread count
pinned through the environment before numpy loads.  Runs follow each
other until --seconds have passed (at least one).  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 then adds one traced run
and reports the per-layer metrics.  The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from child import BLAS_ENV

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_PIN = 2
SETUP_PROBES = 7  # set-up-only processes per untraced invocation
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


def git_revision(root: str) -> str:
    """HEAD's commit read from the .git files; no git process is started."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Spawns child processes one at a time and returns their reports."""

    def __init__(self, root: str, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = os.path.join(root, ".perfbench_work",
                                 f"{workload}-seed{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        paths = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        for var in BLAS_ENV:
            self.env[var] = str(BLAS_PIN)
        self.count = 0

    def spawn(self, mode: str) -> dict:
        self.count += 1
        job = {"mode": mode, "workload": self.workload, "seed": self.seed,
               "pin": BLAS_PIN,
               "workdir": os.path.join(self.work, f"{mode}{self.count}"),
               "spans_path": os.path.join(
                   self.root, ".perfbench_work",
                   f"spans-{self.workload}-seed{self.seed}.json")}
        job["spawned"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"ok": False, "error": f"{mode} run passed the deadline"}
        finally:
            shutil.rmtree(job["workdir"], ignore_errors=True)
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            report = {"ok": False, "error": f"exit {proc.returncode}, no report"}
        if not report.get("ok"):
            tail = "\n".join(stderr.strip().splitlines()[-20:])
            print(f"{mode} run failed: {report.get('error') or report.get('problems')}"
                  f"\n{tail}", file=sys.stderr)
        return report

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports if key in r)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rgg_spectra", "__init__.py")):
        print("error: run from the root of an rgg-spectra checkout "
              "(src/rgg_spectra not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    runner = Runner(root, args.workload, args.seed, start + DEADLINE_S)
    try:
        probes = [] if args.trace else [runner.spawn("setup")
                                         for _ in range(SETUP_PROBES)]
        runs = []
        loop_start = time.monotonic()
        while not runs or time.monotonic() - loop_start < args.seconds:
            runs.append(runner.spawn("run"))
        traced = runner.spawn("trace") if args.trace else None
    finally:
        runner.close()

    attempted = runs + ([traced] if traced else [])
    failed = sum(not r.get("ok") for r in attempted)
    timed = [r for r in runs if "wall_s" in r]
    if not timed or (traced and "layers" not in traced):
        print("error: no run produced metrics", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = values["trace.wall_s"] - median_of(timed, "wall_s")
        declared = bench["per_layer"]
    else:
        values = {
            "wall_s": median_of(timed, "wall_s"),
            "setup_s": median_of(probes + runs, "setup_s"),
            "cpu_s": median_of(timed, "cpu_s"),
            "peak_rss_mb": median_of(timed, "peak_rss_mb"),
            "ok_frac": (len(attempted) - failed) / len(attempted),
        }
        declared = bench["end_to_end"]

    provenance = {"git_revision": git_revision(root),
                  "nproc": len(os.sched_getaffinity(0)),
                  "blas_threads_pinned": BLAS_PIN,
                  "seed": args.seed, "workload": args.workload,
                  "params": timed[0].get("params"),
                  **timed[0].get("provenance", {})}
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"runs: {len(runs)} untraced, {1 if traced else 0} traced, "
          f"{len(probes)} set-up probes; {failed} of {len(attempted)} failed")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
