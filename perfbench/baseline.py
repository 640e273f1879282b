"""Measure the benchmark's baseline, its run-to-run spread and the machine; write baseline.json.

    python3 perfbench/baseline.py --runs 10 --first-seed 1

Two sets of runs are made, one after the other.  In each, every workload is
run ``--runs`` times with `run.py --trace 0`, with the seeds ``--first-seed``,
``--first-seed + 1``, ... and for BENCHMARK.json's `run_seconds`, as the
benchmark is driven.  Each workload is then run once with `--trace 1`.
For each end-to-end metric and set the record holds the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median next
to the metric's bound, and the change of the second set's median from the
first's.  The environment record holds the core count, the
Python, numpy, scipy and OpenBLAS versions, the BLAS thread variables (none
is set by the benchmark) and the CPU/wall ratio of energy-volume with one
stream and with the CLI default: with one stream the CLI runs one Python
thread, so a ratio above 1 is BLAS threads at work.

Exits 1 if a run fails the correctness gate, a spread other than that of
setup_s exceeds its bound, or a median of the second set is worse than the
first's by more than the bound.  setup_s is exempt from the spread check
only, as in the benchmark's acceptance rule: its median, not its spread, is
what a later change must hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from workloads import ROOT, WORKLOADS, check_source_tree, cli_argv, run_child

BENCH = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_bench(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One `run.py` invocation; its last stdout line parsed."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if res.returncode != 0:
        sys.exit(f"error: {' '.join(argv[1:])} exited {res.returncode}: {res.stderr[-2000:]}")
    return json.loads(res.stdout.splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {"runs": len(results),
           "cli_runs": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "correct": all(r["correct"] for r in results),
           "metrics": {}}
    for key, bound in bounds.items():
        values = [r["metrics"][key]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out["metrics"][key] = {"unit": results[0]["metrics"][key]["unit"], "median": median,
                               "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound,
                               "values": values}
    return out


def cpu_per_wall(extra: list[str], repeats: int = 3) -> dict:
    runs = [run_child(cli_argv(WORKLOADS["energy-volume"], 1) + extra) for _ in range(repeats)]
    if any(r.returncode != 0 for r in runs):
        sys.exit("error: energy-volume run failed")
    wall = statistics.median(r.wall_s for r in runs)
    cpu = statistics.median(r.cpu_s for r in runs)
    return {"wall_s": wall, "cpu_s": cpu, "cpu_per_wall": cpu / wall, "runs": repeats}


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads_env": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "energy_volume_1_stream": cpu_per_wall(["--streams", "1"]),
        "energy_volume_default_streams": cpu_per_wall([]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args()
    check_source_tree()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    record = {"run_seconds": seconds, "seeds": [seeds[0], seeds[-1]],
              "environment": environment(), "sets": [{}, {}], "per_layer": {}}
    ok = True
    for set_no, sets in enumerate(record["sets"], 1):
        for name in WORKLOADS:
            results = [run_bench(name, seed, seconds, 0) for seed in seeds]
            summary = sets[name] = summarize(results, {k: m["bound"] for k, m in metrics.items()})
            ok &= summary["correct"]
            for key, m in summary["metrics"].items():
                steady = key == "setup_s" or m["spread"] <= m["bound"]
                line = (f"set {set_no} {name} {key}: median {m['median']:.6g} {m['unit']}, "
                        f"spread {m['spread']:.4f} ({m['spread'] / m['bound']:.2f} of bound {m['bound']})")
                if set_no == 2:
                    first = record["sets"][0][name]["metrics"][key]["median"]
                    m["median_change"] = (m["median"] - first) / first
                    worse = m["median_change"] * (1 if metrics[key]["better"] == "lower" else -1)
                    steady &= worse <= m["bound"]
                    line += f", median {m['median_change']:+.4f} vs set 1"
                ok &= steady
                print(line + ("" if steady else "  OUT OF BOUND"))
    for name in WORKLOADS:
        traced = run_bench(name, args.first_seed, seconds, 1)
        ok &= traced["correct"]
        record["per_layer"][name] = {"attempted": traced["attempted"], "failed": traced["failed"],
                                     "metrics": traced["metrics"]}
    out = BENCH / "baseline.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
