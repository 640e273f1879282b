"""CSV parsing, the correctness gate and the time-to-accuracy formula.

The gate is tolerance-based: an estimate passes when it lies within
``N_SIGMA`` combined standard errors of the stored reference, so a change
that moves only the last bits of the arithmetic still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DOMAINS = ("classical", "quantum", "separable", "entangled")
N_SIGMA = 4.0
ROUNDING = 1e-9  # relative slack for identities that hold up to float rounding
_HEADERS = {"# gaussvol-volume-csv v1": "volume", "# gaussvol-sweep-csv v1": "sweep"}


class GateError(Exception):
    """A run's output failed a correctness check."""


def parse_csv(text: str) -> tuple[str, list[dict]]:
    """Parse volume or sweep CSV into (kind, rows); numeric fields become floats."""
    lines = text.splitlines()
    if not lines or lines[0] not in _HEADERS:
        raise GateError(f"unknown CSV header: {lines[0] if lines else '<empty>'!r}")
    kind = _HEADERS[lines[0]]
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    rows = []
    for raw in reader:
        if None in raw or any(v is None for v in raw.values()):
            raise GateError(f"ragged CSV row: {raw}")
        row = {}
        for key, val in raw.items():
            try:
                row[key] = float(val)
            except ValueError:
                row[key] = val
        rows.append(row)
    if not rows:
        raise GateError("CSV has no data rows")
    return kind, rows


def estimates(kind: str, rows: list[dict]) -> dict:
    """Map 'label' -> (estimate, std_error) for every volume a CSV reports."""
    if kind == "volume":
        (row,) = rows
        return {row["set"]: (row["estimate"], row["std_error"])}
    out = {}
    for row in rows:
        for dom in DOMAINS:
            out[f"{row['param_name']}={row['param_value']!r}/{dom}"] = (
                row[f"vol_{dom}"], row[f"err_{dom}"])
    return out


def reported_labels(kind: str, rows: list[dict]) -> list[str]:
    """The labels whose relative error sets time-to-accuracy: the reported
    class of a volume run, the entangled volume of every sweep row."""
    if kind == "volume":
        return [rows[0]["set"]]
    return [f"{row['param_name']}={row['param_value']!r}/entangled" for row in rows]


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_output(text: str, reference: dict) -> tuple[str, list[dict]]:
    """Raise GateError unless ``text`` is a valid CSV that agrees with ``reference``.

    ``reference`` holds the sample count and a (mean, std_error) pair per label.
    """
    kind, rows = parse_csv(text)
    for row in rows:
        if int(row["n_samples"]) != reference["samples"]:
            raise GateError(f"n_samples {row['n_samples']} != {reference['samples']}")
    got = estimates(kind, rows)
    want = reference["values"]
    if set(got) != set(want):
        raise GateError(f"reported volumes {sorted(got)} != reference {sorted(want)}")
    for label, (est, se) in got.items():
        ref, ref_se = want[label]
        if not (math.isfinite(est) and math.isfinite(se) and se >= 0.0):
            raise GateError(f"{label}: non-finite estimate or error ({est}, {se})")
        tol = N_SIGMA * math.hypot(se, ref_se)
        if abs(est - ref) > tol:
            raise GateError(f"{label}: estimate {est!r} is {abs(est - ref) / math.hypot(se, ref_se):.2f} "
                            f"combined std errors from reference {ref!r}")
    if kind == "sweep":
        for row in rows:
            c, q, s, e = (row[f"vol_{d}"] for d in DOMAINS)
            where = f"{row['param_name']}={row['param_value']!r}"
            if abs(q - (s + e)) > ROUNDING * max(abs(q), 1e-300):
                raise GateError(f"{where}: vol_quantum {q!r} != vol_separable + vol_entangled {s + e!r}")
            slack = ROUNDING * abs(c)
            if not (c + slack >= q and q + slack >= e):
                raise GateError(f"{where}: classical >= quantum >= entangled fails ({c!r}, {q!r}, {e!r})")
    return kind, rows


def rel_err(kind: str, rows: list[dict], reference: dict) -> float:
    """Largest std_error / reference volume over the labels that set accuracy.

    The stored reference is the denominator rather than the run's own
    estimate, so the figure tracks the error bar and not the luck of the draw.
    """
    got = estimates(kind, rows)
    return max(got[label][1] / reference["values"][label][0] for label in reported_labels(kind, rows))


def time_to_1pct(wall_s: float, rel: float) -> float:
    """Wall time the same estimator would need for a 1% relative std error.

    The std error falls as 1/sqrt(samples) and cost grows linearly with them,
    so the time scales as (rel / 0.01)^2.
    """
    return wall_s * (rel / 0.01) ** 2
