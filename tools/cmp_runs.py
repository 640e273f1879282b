"""Compare gaussvol runs at a git revision with the working tree's, byte for byte.

Run from the repository root:

    python tools/cmp_runs.py --rev REV [--seeds K] CMD [CMD ...]

Each CMD is one quoted gaussvol command line without ``--sampler`` and
``--seed``, such as "volume --set separable --E 8 --samples 4000000".
REV's ``src/`` is extracted with ``git archive`` into a temporary
directory.  Each CMD runs under the qmc and the pseudo sampler at the
seeds 1 + k * 1_000_003, k = 0 .. K - 1 (K = 9 by default), once with
REV's package and once with the tree's, one run at a time.  Each run
whose stdout, stderr or exit code differs is printed.  Where only stdout
differs and both sides print CSV rows under the same header, the run is
given by column: each differing column with its largest relative
difference |tree - rev| / |rev| over the rows (inf where rev reads 0 or
a field is no finite number); otherwise both outputs are printed in
full.  A summary follows, with each such column's largest difference over
all runs.  Exits 1 if any run differs, else 0.
"""

import argparse
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SAMPLERS = ("qmc", "pseudo")
SEED_STEP = 1_000_003


def extract_src(rev: str, dest: str) -> None:
    """Write REV's ``src/`` under ``dest`` with ``git archive``."""
    archive = subprocess.run(["git", "archive", rev, "src"], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run(src: str, argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``python -m gaussvol argv`` with ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "gaussvol", *argv], env=env,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def differences(old: tuple, new: tuple) -> list:
    return [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]


def csv_rows(out: bytes) -> list:
    """The rows of CSV output, header first, without its ``#`` comment lines."""
    return [line.split(",") for line in out.decode(errors="replace").splitlines()
            if not line.startswith("#")]


def relative(old: str, new: str) -> float:
    """|new - old| / |old|, or inf where old is 0 or a field is not a finite number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    rel = abs(b - a) / abs(a) if a else math.inf
    return rel if math.isfinite(rel) else math.inf


def column_differences(old: bytes, new: bytes) -> dict | None:
    """Each differing column's largest relative difference, or None where the CSV shapes differ."""
    old_rows, new_rows = csv_rows(old), csv_rows(new)
    if (len(old_rows) != len(new_rows) or not old_rows or old_rows[0] != new_rows[0]
            or any(len(r) != len(old_rows[0]) for r in old_rows + new_rows)):
        return None
    cols = {}
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        for name, a, b in zip(old_rows[0], old_row, new_row):
            if a != b:
                cols[name] = max(cols.get(name, 0.0), relative(a, b))
    return cols


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare with")
    parser.add_argument("--seeds", type=int, default=9, help="program seeds per sampler")
    parser.add_argument("commands", nargs="+", metavar="CMD", help="one quoted gaussvol command")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    tree = str(Path("src").resolve())
    runs = differ = 0
    maxima = {}  # column: its largest relative difference over all runs
    with tempfile.TemporaryDirectory() as tmp:
        extract_src(args.rev, tmp)
        old_src = str(Path(tmp) / "src")
        for command in args.commands:
            for sampler in SAMPLERS:
                for k in range(args.seeds):
                    seed = 1 + k * SEED_STEP
                    cmd = [*shlex.split(command), "--sampler", sampler, "--seed", str(seed)]
                    old, new = run(old_src, cmd), run(tree, cmd)
                    runs += 1
                    moved = differences(old, new)
                    if not moved:
                        continue
                    differ += 1
                    print(f"DIFFERS ({', '.join(moved)}): {shlex.join(cmd)}")
                    cols = column_differences(old[1], new[1]) if moved == ["stdout"] else None
                    if cols is not None:
                        for name, rel in cols.items():
                            print(f"  {name}: {rel:.3g}")
                            maxima[name] = max(maxima.get(name, 0.0), rel)
                        continue
                    for label, (code, out, err) in (("rev", old), ("tree", new)):
                        print(f"  {label}: exit {code}")
                        for line in (out + err).decode(errors="replace").splitlines():
                            print(f"    {line}")
    print(f"{differ} of {runs} runs differ from {args.rev}")
    for name, rel in maxima.items():
        print(f"  {name}: largest relative difference {rel:.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
