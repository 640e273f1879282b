"""Regenerate reference.json, the values the correctness gate compares against.

Each workload is run with ``--runs`` seeds taken from a range the benchmark
never uses (1e9 and up).  The reference of every reported volume is the mean
of those estimates and its error is their empirical standard deviation over
sqrt(runs), which stays honest for heavy-tailed weights.  The runs use the
workload's own flags and sample count, so the support box is the one the
benchmark sees.

    python3 perfbench/reference.py --runs 40
"""

from __future__ import annotations

import argparse
import json
import math
import statistics

from gate import REFERENCE_PATH, estimates, parse_csv
from workloads import OUT_DIR, WORKLOADS, check_source_tree, cli_argv, run_child

SEED_BASE = 1_000_000_000


def reference_for(name: str, runs: int) -> dict:
    workload = WORKLOADS[name]
    per_label: dict[str, list[float]] = {}
    raw = []
    for k in range(runs):
        seed = SEED_BASE + k
        res = run_child(cli_argv(workload, seed))
        if res.returncode != 0:
            raise SystemExit(f"{name} seed {seed} exited {res.returncode}: {res.stderr.decode()}")
        got = estimates(*parse_csv(res.stdout.decode()))
        raw.append({"seed": seed, "wall_s": res.wall_s, "values": got})
        for label, (est, _) in got.items():
            per_label.setdefault(label, []).append(est)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"reference-raw-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    values = {
        label: [statistics.fmean(xs), statistics.stdev(xs) / math.sqrt(len(xs))]
        for label, xs in per_label.items()
    }
    return {"samples": workload.samples, "runs": runs, "seed_base": SEED_BASE, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=40)
    args = parser.parse_args()
    check_source_tree()
    ref = {}
    for name in WORKLOADS:
        ref[name] = reference_for(name, args.runs)
        REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(ref[name]['values'])} reference values from {args.runs} runs")


if __name__ == "__main__":
    main()
