"""gaussvol benchmark: end-to-end CLI timings or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

``--trace 0`` drives the `gaussvol` CLI as a child process in a closed loop
(one client; the next run starts when the previous one exits) for
``--seconds`` and reports the end-to-end metrics.  The runs cycle through
SEEDS_PER_RUN program seeds derived from ``--seed N``, the first being N
itself; the first two runs both get N, and every repeat of a seed must give
the bytes of its first run.  ``--trace 1`` runs
`gaussvol.cli.main` in-process, after one warm-up run, with the layer
wrappers of tracing.py and reports the per-layer metrics.  Every run passes the correctness gate of
gate.py or counts as failed.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

``--all`` runs every workload both ways, prints every metric by name with
its unit, and exits 1 if any run fails the gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from gate import GateError, check_output, load_reference, rel_err, time_to_1pct
from workloads import OUT_DIR, SRC, WORKLOADS, check_source_tree, cli_argv, run_child

# The reported error bar, and with it time_to_1pct_s, varies from seed to
# seed.  Every invocation cycles through the same SEEDS_PER_RUN seeds, whatever
# its run count, so a faster commit runs more cycles of the same seeds rather
# than other seeds, and the error factor is the mean over exactly those seeds.
SEEDS_PER_RUN = 9
SEED_STRIDE = 1_000_003
_SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import gaussvol.cli as cli; cli.build_parser(); "
    "print(repr(time.perf_counter() - t0))"
)


class Gate:
    """Counts runs and failures; a run fails on a non-zero exit, a CSV the
    gate rejects, or bytes that differ from the first run of the same argv."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self._first: dict[tuple, str] = {}

    def check(self, argv: list[str], code: int, text: str, stderr: str = ""):
        """Return (kind, rows) of a passing run, or None after counting a failure."""
        self.attempted += 1
        try:
            if code != 0:
                raise GateError(f"exit code {code}: {stderr.strip()[-500:]}")
            parsed = check_output(text, self.reference)
            first = self._first.setdefault(tuple(argv), text)
            if text != first:
                raise GateError("CSV differs from the first run with the same seed")
            return parsed
        except GateError as exc:
            self.failed += 1
            print(f"gate: {' '.join(argv)}: {exc}", file=sys.stderr)
            return None


def measure_setup() -> float:
    """Seconds for `import gaussvol.cli` + `build_parser()` in a fresh interpreter."""
    res = run_child([sys.executable, "-c", _SETUP_CODE])
    if res.returncode != 0:
        sys.exit(f"error: importing gaussvol.cli failed: {res.stderr.decode()}")
    return float(res.stdout)


def program_seeds(seed: int) -> list[int]:
    """The program seeds one invocation with benchmark seed ``seed`` cycles through."""
    return [seed + k * SEED_STRIDE for k in range(SEEDS_PER_RUN)]


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Gate, dict]:
    workload = WORKLOADS[name]
    gate = Gate(load_reference(name))
    seeds = program_seeds(seed)
    runs, setups, rel_errs = [], [], {}
    t_end = time.perf_counter() + seconds
    # one cycle of the seeds plus the repeat of the first: the determinism check
    while gate.attempted <= SEEDS_PER_RUN or time.perf_counter() < t_end:
        # set-up is timed once per CLI run, so its median samples the whole window
        setups.append(measure_setup())
        program_seed = seeds[max(gate.attempted - 1, 0) % SEEDS_PER_RUN]
        argv = cli_argv(workload, program_seed)
        res = run_child(argv)
        parsed = gate.check(argv[3:], res.returncode, res.stdout.decode(), res.stderr.decode())
        if parsed is not None:
            kind, rows = parsed
            runs.append((res, sum(int(r["n_samples"]) for r in rows)))
            rel_errs[program_seed] = rel_err(kind, rows, gate.reference)
    if not runs:
        return gate, {}
    wall = statistics.median(r.wall_s for r, _ in runs)
    rms_rel_err = statistics.fmean(e * e for e in rel_errs.values()) ** 0.5
    return gate, {
        "wall_s": (wall, "s"),
        "samples_per_s": (statistics.median(n / r.wall_s for r, n in runs), "1/s"),
        "time_to_1pct_s": (time_to_1pct(wall, rms_rel_err), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r, _ in runs), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r, _ in runs), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def traced(name: str, seed: int, seconds: float) -> tuple[Gate, dict]:
    """Alternate untraced, traced and single-stream in-process runs for ``seconds``."""
    sys.path.insert(0, str(SRC))
    import gaussvol.cli as cli
    from tracing import Tracer, installed, layer_metrics, run_in_process

    workload = WORKLOADS[name]
    gate = Gate(load_reference(name))
    argv = workload.argv(seed)
    one_stream = argv + ["--streams", "1"]
    untraced_walls, one_stream_walls, traces = [], [], []
    gate.check(argv, *run_in_process(cli.main, argv)[:2])  # warm-up: lazy imports, page faults
    t_end = time.perf_counter() + seconds
    while not traces or time.perf_counter() < t_end:
        code, out, wall = run_in_process(cli.main, argv)
        if gate.check(argv, code, out):
            untraced_walls.append(wall)
        tracer = Tracer()
        with installed(tracer):
            code, out, _ = run_in_process(tracer.wrap("cli.main", cli.main), argv)
        if gate.check(argv, code, out):
            traces.append(tracer.spans)
        code, out, wall = run_in_process(cli.main, one_stream)
        if gate.check(one_stream, code, out):
            one_stream_walls.append(wall)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump([[[trace_id, s.name, s.start, s.end, s.parent, s.points] for s in spans]
                   for trace_id, spans in enumerate(traces)], fh)
    if not (traces and untraced_walls and one_stream_walls):
        return gate, {}
    return gate, layer_metrics(traces, untraced_walls, one_stream_walls)


def report(name: str, mode: str, gate: Gate, metrics: dict) -> dict:
    error_rate = gate.failed / gate.attempted
    print(f"{name} [{mode}] runs={gate.attempted} failed={gate.failed} error_rate={error_rate:g}")
    for key, (value, unit) in metrics.items():
        print(f"{name} [{mode}] {key} = {value:.6g} {unit}")
    return {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="gaussvol benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    check_source_tree()
    if args.all:
        results = []
        for name in WORKLOADS:
            results.append(report(name, "end-to-end", *end_to_end(name, args.seed, args.seconds)))
            results.append(report(name, "traced", *traced(name, args.seed, args.seconds)))
        ok = all(r["correct"] for r in results)
        print(json.dumps({"correct": ok}))
        return 0 if ok else 1
    measure = traced if args.trace else end_to_end
    result = report(args.workload, "traced" if args.trace else "end-to-end",
                    *measure(args.workload, args.seed, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
