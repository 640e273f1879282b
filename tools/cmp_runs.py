"""Compare gaussvol runs at a git revision with the working tree's, byte for byte.

Run from the repository root:

    python tools/cmp_runs.py --rev REV [--seeds K] CMD [CMD ...]

Each CMD is one quoted gaussvol command line without ``--sampler`` and
``--seed``, such as "volume --set separable --E 8 --samples 4000000".
REV's ``src/`` is extracted with ``git archive`` into a temporary
directory.  Each CMD runs under the qmc and the pseudo sampler at the
seeds 1 + k * 1_000_003, k = 0 .. K - 1 (K = 9 by default), once with
REV's package and once with the tree's, one run at a time.  Each run
whose stdout, stderr or exit code differs is printed, then a summary.
Exits 1 if any run differs, else 0.
"""

import argparse
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
                    if moved:
                        differ += 1
                        print(f"DIFFERS ({', '.join(moved)}): {shlex.join(cmd)}")
                        for label, (code, out, err) in (("rev", old), ("tree", new)):
                            print(f"  {label}: exit {code}")
                            for line in (out + err).decode(errors="replace").splitlines():
                                print(f"    {line}")
    print(f"{differ} of {runs} runs differ from {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
