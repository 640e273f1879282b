"""Workload definitions and the child-process runner shared by the benchmark scripts.

Every workload is one `gaussvol` CLI invocation.  The benchmark seed is passed
to the program unchanged as ``--seed``; everything else is fixed here, so the
same seed always gives the same inputs and the same CSV bytes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
# A run must end within 180 s; no single CLI run comes near this.
CHILD_TIMEOUT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    samples: int

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--samples", str(self.samples), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "energy-volume",
            ("volume", "--set", "separable", "--E", "8"),
            4_000_000,
        ),
        Workload(
            "damped-volume",
            ("volume", "--set", "entangled", "--kappa", "5"),
            8_000_000,
        ),
    )
}


def check_source_tree() -> None:
    """Exit with an error unless the package source sits next to the benchmark."""
    if not (SRC / "gaussvol" / "cli.py").is_file():
        sys.exit(f"error: no gaussvol source under {SRC}; run from a checkout of the repository")


def child_env() -> dict:
    """The caller's environment with the checkout's source first on PYTHONPATH.

    No BLAS or thread variable is set or removed: the runs measure what a user
    of this machine pays.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ChildRun:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str]) -> ChildRun:
    """Run ``argv`` to completion and return its output with wall, CPU and peak RSS.

    The child is reaped with ``os.wait4`` so its own resource usage is read,
    not that of every child so far.  Output is small (a CSV of a few rows), so
    it fits the pipe buffers and is read after exit.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stdout, proc.stderr:
        out, err = proc.stdout.read(), proc.stderr.read()
    return ChildRun(
        returncode=proc.returncode,
        stdout=out,
        stderr=err,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_argv(workload: Workload, seed: int) -> list[str]:
    return [sys.executable, "-m", "gaussvol", *workload.argv(seed)]
