"""Self-tests of the benchmark code: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gaussvol.cli as cli  # noqa: E402
from gate import GateError, check_output, estimates, parse_csv, time_to_1pct  # noqa: E402
from tracing import Span, Tracer, installed, layer_metrics, run_in_process, self_times  # noqa: E402


def _cli_csv(*argv: str) -> str:
    code, out, _ = run_in_process(cli.main, list(argv))
    assert code == 0
    return out


def _reference_of(text: str) -> dict:
    kind, rows = parse_csv(text)
    return {"samples": int(rows[0]["n_samples"]),
            "values": {k: [est, 0.0] for k, (est, _) in estimates(kind, rows).items()}}


def test_time_to_1pct_formula():
    assert time_to_1pct(2.0, 0.02) == pytest.approx(8.0)
    assert time_to_1pct(3.0, 0.01) == pytest.approx(3.0)
    assert time_to_1pct(1.5, 0.001) == pytest.approx(0.015)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", None, 0, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0),
        Span("b", 0, 0, 3.0, 6.0),  # overlaps a: the union [1, 6] is covered once
        Span("a.child", 1, 0, 2.0, 3.0),
        Span("c", 0, 0, 8.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_parse_volume_csv():
    kind, rows = parse_csv(_cli_csv("volume", "--set", "separable", "--E", "8", "--samples", "10000"))
    assert kind == "volume" and len(rows) == 1
    assert rows[0]["set"] == "separable" and rows[0]["n_samples"] == 10000.0
    (est, se), = estimates(kind, rows).values()
    assert est > 0.0 and se > 0.0


def test_parse_sweep_csv():
    kind, rows = parse_csv(_cli_csv("sweep", "--E", "4,8", "--samples", "10000"))
    assert kind == "sweep" and [r["param_value"] for r in rows] == [4.0, 8.0]
    got = estimates(kind, rows)
    assert len(got) == 8 and "E=8.0/entangled" in got


def test_parse_rejects_unknown_header():
    with pytest.raises(GateError):
        parse_csv("# something else\na,b\n1,2\n")


def _edit_last_row(text: str, column: str, fn) -> str:
    """Replace one column of the last CSV row by ``fn(row)``, row mapping names to strings."""
    *head, last = text.splitlines()
    names = head[1].split(",")
    fields = last.split(",")
    fields[names.index(column)] = repr(fn(dict(zip(names, fields))))
    return "\n".join([*head, ",".join(fields)]) + "\n"


@pytest.mark.parametrize("argv,est,se", [
    (("volume", "--set", "separable", "--E", "8", "--samples", "20000"), "estimate", "std_error"),
    (("sweep", "--E", "6,8", "--samples", "20000"), "vol_entangled", "err_entangled"),
])
def test_gate_rejects_estimate_shifted_by_ten_std_errors(argv, est, se):
    text = _cli_csv(*argv)
    reference = _reference_of(text)
    check_output(text, reference)
    shifted = _edit_last_row(text, est, lambda row: float(row[est]) + 10.0 * float(row[se]))
    with pytest.raises(GateError, match="combined std errors"):
        check_output(shifted, reference)


def test_gate_rejects_broken_sweep_identity():
    text = _cli_csv("sweep", "--E", "6,8", "--samples", "20000")
    reference = _reference_of(text)
    broken = _edit_last_row(text, "vol_separable", lambda row: float(row["vol_separable"]) * (1.0 + 1e-6))
    with pytest.raises(GateError, match="vol_separable"):
        check_output(broken, reference)


def test_traced_run_reports_every_per_layer_metric():
    argv = ["volume", "--set", "separable", "--E", "8", "--samples", "20000", "--streams", "2"]
    slogdet = np.linalg.slogdet
    tracer = Tracer()
    with installed(tracer):
        code, _, _ = run_in_process(tracer.wrap("cli.main", cli.main), argv)
    assert code == 0 and np.linalg.slogdet is slogdet
    metrics = layer_metrics([tracer.spans], [1.0], [1.5])
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in metrics.items()}
    assert metrics["integrate.probe_s"][0] == 0.0
    assert metrics["integrate.probe_sample_share"][0] == 0.0
    assert metrics["twomode.domain_mask.calls"][0] > 0
    assert 0.0 < metrics["integrate.accept_classical"][0] < 1.0
    assert metrics["integrate.speedup_vs_1_stream"][0] == pytest.approx(1.5)


def test_worker_layers_are_children_of_their_own_stream():
    argv = ["volume", "--set", "separable", "--E", "8", "--samples", "20000", "--streams", "2"]
    tracer = Tracer()
    with installed(tracer):
        run_in_process(tracer.wrap("cli.main", cli.main), argv)
    spans = tracer.spans
    streams = [i for i, s in enumerate(spans) if s.name == "integrate.stream"]
    assert len(streams) == 2
    assert all(spans[spans[i].parent].name == "integrate.mc_joint_volumes" for i in streams)
    for s in spans:
        if s.name in ("twomode.domain_mask", "twomode.metric_components", "numpy.linalg.slogdet"):
            assert s.parent in streams
    owner = next(i for i, s in enumerate(spans) if s.name == "integrate.mc_joint_volumes")
    # the pool owner only waits while its streams run, so that time is not its own
    assert self_times(spans)[owner] < min(spans[i].duration for i in streams)
