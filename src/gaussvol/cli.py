"""Command-line interface: classify, metric, volume, sweep.

Exit codes: 0 success, 2 parse or argument error, 3 asymmetric matrix,
4 domain error, 5 numeric failure.  Reports and CSV go to stdout, all
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DomainError,
    InvalidArgumentError,
    MatrixParseError,
    NumericError,
)
from .integrate import (DEFAULT_EPS_TAIL, DOMAIN_ORDER, IntegrationRequest, _SAMPLERS,
                        _sweep_specs, mc_volume, sweep)
from .regularizers import RegularizerSpec
# states and metric are imported inside cmd_classify and cmd_metric, so that a
# volume or sweep run loads neither
from .twomode import (
    DEFAULT_TOL,
    CanonicalPoint,
    DomainTag,
    canonical_chart,
    canonical_embed,
    in_domain,
)

_FMT = "%.12g"

# Every run setting of volume and sweep, in --write-config order: the config
# key, which is also the long flag, and its (type, default, choices, help).
_SETTINGS = {
    "set": (str, "classical", tuple(tag.value for tag in DomainTag),
            "domain to integrate (default classical)"),
    "reg": (str, None, ("energy", "adj"),
            "regularizer kind; inferred from --E/--kappa if omitted"),
    "E": (str, None, None, "energy bound; sweep accepts a list or start:stop:lin|log:count"),
    "kappa": (str, None, None, "damping scale; sweep accepts a list or start:stop:lin|log:count"),
    "m": (int, 4, (4,), "regularizer exponent; volume integrals take only 4, the chart's "
                        "parameter count (default 4)"),
    "samples": (int, 100_000, None, "sample count (default 100000)"),
    "seed": (int, 12345, None, "integer seed (default 12345)"),
    "streams": (int, 4, None,
                "substream count, part of the determinism key; for qmc also half the replicate "
                "count, so the error bar has 2 * streams - 1 degrees of freedom; the substreams "
                "run on at most one thread per usable core (default 4)"),
    "eps-tail": (float, DEFAULT_EPS_TAIL, None,
                 "--kappa only: the largest fraction of each checked class's mass, relative to "
                 "the mass inside, that the support box may leave out; the box side stops at "
                 "max(8, 8 sqrt(kappa)), with a warning if more is left out there (default 1e-3)"),
    "tol": (float, DEFAULT_TOL, None, "domain tolerance, below 1 (default 1e-9)"),
    "sampler": (str, "qmc", _SAMPLERS, "qmc (default) or pseudo"),
    "out": (str, None, None, "write CSV here instead of stdout"),
}

_VOLUME_COLUMNS = (
    "set,reg,param_name,param_value,m,estimate,std_error,acceptance_fraction,"
    "empty,n_samples,seed,streams,sampler,box_a_lo,box_a_hi,box_b_lo,box_b_hi,"
    "box_c_lo,box_c_hi,box_d_lo,box_d_hi"
)
_SWEEP_COLUMNS = (
    "param_name,param_value,vol_classical,err_classical,vol_quantum,err_quantum,"
    "vol_separable,err_separable,vol_entangled,err_entangled,ratio_qc,err_qc,"
    "ratio_sc,err_sc,ratio_ec,err_ec,n_samples,seed"
)


def _g(x: float) -> str:
    return _FMT % float(x)


def parse_matrix_file(path: str) -> np.ndarray:
    """Whitespace-separated decimal rows; lines starting with '#' are comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc.strerror or exc}", line=0, column=0)
    rows = []
    width = None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = []
        for m in re.finditer(r"\S+", raw):
            tok, col = m.group(), m.start() + 1
            try:
                row.append(float(tok))
            except ValueError:
                raise MatrixParseError(
                    f"{path}: not a number: {tok!r}", line=lineno, column=col
                ) from None
            if not math.isfinite(row[-1]):
                raise MatrixParseError(
                    f"{path}: non-finite entry {tok!r}", line=lineno, column=col
                )
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixParseError(
                f"{path}: row has {len(row)} entries, expected {width}", line=lineno, column=1
            )
        rows.append(row)
    if not rows:
        raise MatrixParseError(f"{path}: no matrix rows found", line=0, column=0)
    arr = np.asarray(rows, dtype=float)
    n_rows, n_cols = arr.shape
    if n_rows != n_cols or n_rows % 2 != 0:
        raise MatrixParseError(
            f"{path}: expected a square even-dimension matrix, got {n_rows}x{n_cols}",
            line=len(lines), column=1,
        )
    return arr


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config {path}: {exc.strerror or exc}")
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidArgumentError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SETTINGS:
            raise InvalidArgumentError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags"""
    merged = {key: default for key, (_, default, _, _) in _SETTINGS.items()}
    if args.config:
        for key, raw in _read_config(args.config).items():
            conv = _SETTINGS[key][0]
            try:
                merged[key] = conv(raw)
            except ValueError:
                raise InvalidArgumentError(f"config key {key!r}: bad value {raw!r}") from None
    for key, (_, _, choices, _) in _SETTINGS.items():
        flag_val = getattr(args, key.replace("-", "_"), None)
        if flag_val is not None:
            merged[key] = flag_val
        if choices and merged[key] is not None and merged[key] not in choices:
            raise InvalidArgumentError(f"{key} must be one of {choices}, got {merged[key]!r}")
    return merged


def _write_config(path: str, merged: dict) -> None:
    out = ["# gaussvol config v1"]
    for key in _SETTINGS:
        val = merged[key]
        if val is None:
            continue
        out.append(f"{key} = {val}")
    _write(path, "\n".join(out) + "\n")


def parse_value_list(text: str) -> list[float]:
    """A scalar, a comma list, or a range 'start:stop:lin|log:count'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 4:
            raise InvalidArgumentError(f"range must be start:stop:lin|log:count, got {text!r}")
        s_start, s_stop, kind, s_count = parts
        try:
            start, stop, count = float(s_start), float(s_stop), int(s_count)
        except ValueError:
            raise InvalidArgumentError(f"bad range bounds or count in {text!r}") from None
        if kind not in ("lin", "log"):
            raise InvalidArgumentError(f"range kind must be lin or log, got {kind!r}")
        if count < 1:
            raise InvalidArgumentError("range count must be >= 1")
        if not (start < stop) and count > 1:
            raise InvalidArgumentError("range needs start < stop")
        if kind == "log" and start <= 0:
            raise InvalidArgumentError("log range needs start > 0")
        arr = np.linspace(start, stop, count) if kind == "lin" else np.geomspace(start, stop, count)
        return [float(v) for v in arr]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidArgumentError(f"bad numeric value in {text!r}") from None


def _regularizer_inputs(merged: dict) -> tuple[str, list[float]]:
    """Resolve which parameter drives the regularizer and its value list."""
    e_vals = parse_value_list(merged["E"]) if merged["E"] is not None else None
    k_vals = parse_value_list(merged["kappa"]) if merged["kappa"] is not None else None
    if (e_vals is None) == (k_vals is None):
        raise InvalidArgumentError("exactly one of --E and --kappa is required")
    param = "E" if e_vals is not None else "kappa"
    reg = merged["reg"]
    if reg is not None:
        if param == "E" and reg != "energy":
            raise InvalidArgumentError("--E goes with --reg energy")
        if param == "kappa" and reg != "adj":
            raise InvalidArgumentError("--kappa goes with --reg adj")
    return param, e_vals if e_vals is not None else k_vals


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror or exc}")


def _check_out(path: str | None) -> None:
    """Fail now, before any pass runs, when the CSV cannot be written to ``path``.

    A regular file is opened to append, which truncates nothing, and one that
    did not exist is removed again (through a dangling link, the file it
    made), so a run that fails later leaves ``path`` as it was.  A named pipe
    or a device is not opened, since its reader would see the probe.
    """
    if not path:
        return
    existed = os.path.exists(path)
    if existed and not (os.path.isfile(path) or os.path.isdir(path)):
        return
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror or exc}")
    if not existed:
        os.remove(os.path.realpath(path))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_classify(args: argparse.Namespace) -> int:
    from .states import (
        classify,
        partial_transpose_two_mode,
        require_covariance,
        symplectic_eigenvalues,
    )

    V = require_covariance(parse_matrix_file(args.matrix))
    tag = classify(V, tol=args.tol)
    lines = []
    head = tag.value
    if np.linalg.eigvalsh(V)[0] > 0.0:
        nu = symplectic_eigenvalues(V)
        head += ", nu=(" + ",".join(_g(v) for v in nu) + ")"
    lines.append(head)
    if V.shape[0] == 4:
        Vpt = partial_transpose_two_mode(V)
        if np.linalg.eigvalsh(Vpt)[0] > 0.0:
            nu_pt = symplectic_eigenvalues(Vpt)
            lines.append("ppt_nu=(" + ",".join(_g(v) for v in nu_pt) + ")")
    lines.append("det_V=" + _g(np.linalg.det(V)))
    lines.append("tr_V=" + _g(np.trace(V)))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_metric(args: argparse.Namespace) -> int:
    from .metric import bound_matrix, metric_closed_form

    missing = [name for name in ("a", "b", "c", "d") if getattr(args, name) is None]
    if missing:
        raise InvalidArgumentError("metric needs --a --b --c --d")
    p = CanonicalPoint(args.a, args.b, args.c, args.d)
    if not in_domain(p, DomainTag.CLASSICAL, tol=args.tol):
        raise DomainError(f"point (a={p.a:g}, b={p.b:g}, c={p.c:g}, d={p.d:g}) "
                          "is outside the classical domain")
    chart = canonical_chart()
    at = metric_closed_form(canonical_embed(p), chart)
    bm = bound_matrix(chart)
    lam_min = float(np.linalg.eigvalsh(canonical_embed(p))[0])
    rhs = (1.0 / lam_min) ** (2 * chart.m) * bm.det
    lines = ["g:"]
    for row in at.g:
        lines.append(" ".join(_g(v) for v in row))
    lines.append("det_g = " + _g(at.det_g))
    lines.append("sqrt_det_g = " + _g(math.sqrt(max(at.det_g, 0.0))))
    lines.append(f"det_bound: {_g(at.det_g)} <= {_g(rhs)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _request(merged: dict, param: str, value: float) -> IntegrationRequest:
    """The request of the merged settings, with its regularizer at ``param`` = ``value``."""
    build = RegularizerSpec.energy if param == "E" else RegularizerSpec.adjugate
    return IntegrationRequest(
        domain=DomainTag(merged["set"]),
        regularizer=build(value, merged["m"]),
        n_samples=merged["samples"],
        seed=merged["seed"],
        streams=merged["streams"],
        tol=merged["tol"],
        eps_tail=merged["eps-tail"],
        sampler=merged["sampler"],
    )


def cmd_volume(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    param, vals = _regularizer_inputs(merged)
    if len(vals) != 1:
        raise InvalidArgumentError("volume takes a single --E or --kappa value; use sweep for lists")
    req = _request(merged, param, vals[0])
    _check_out(merged["out"])
    # only a configuration that passed every check is recorded
    if args.write_config:
        _write_config(args.write_config, merged)
    res = mc_volume(req)
    row = [
        merged["set"],
        "energy" if param == "E" else "adj",
        param,
        repr(vals[0]),
        str(merged["m"]),
        repr(res.estimate),
        repr(res.std_error),
        repr(res.acceptance_fraction),
        str(int(res.empty_domain)),
        str(res.n_samples),
        str(merged["seed"]),
        str(res.streams),
        res.sampler,
    ]
    for lo, hi in zip(res.box.lo, res.box.hi):
        row.append(repr(lo))
        row.append(repr(hi))
    text = "# gaussvol-volume-csv v1\n" + _VOLUME_COLUMNS + "\n" + ",".join(row) + "\n"
    _emit(text, merged["out"])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    merged = _merge_config(args)
    param, vals = _regularizer_inputs(merged)
    template = _request(merged, param, vals[0])
    _sweep_specs(param, vals, template)  # checks every value before anything is written
    _check_out(merged["out"])
    if args.write_config:
        _write_config(args.write_config, merged)
    table = sweep(param, vals, template)
    lines = ["# gaussvol-sweep-csv v1", _SWEEP_COLUMNS]
    failed = []
    for row in table.rows:
        if row.error is not None:
            failed.append((row.value, row.error))
            continue
        fields = [table.param_name, repr(row.value)]
        for tag in DOMAIN_ORDER:
            res = row.results[tag]
            fields.append(repr(res.estimate))
            fields.append(repr(res.std_error))
        for key in ("qc", "sc", "ec"):
            r, se = row.ratios[key]
            fields.append(repr(r))
            fields.append(repr(se))
        fields.append(str(table.n_samples))
        fields.append(str(table.seed))
        lines.append(",".join(fields))
    _emit("\n".join(lines) + "\n", merged["out"])
    if failed:
        for value, msg in failed:
            print(f"sweep row {table.param_name}={value:g} failed: {msg}", file=sys.stderr)
        return 5
    return 0


def _add_run_flags(p: argparse.ArgumentParser, with_set: bool) -> None:
    for key, (conv, _, choices, text) in _SETTINGS.items():
        # sweep reports all four domains, so only volume takes --set
        if key != "set" or with_set:
            p.add_argument("--" + key, type=conv, choices=choices, default=None, help=text)
    p.add_argument("--config", default=None, help="key = value file; flags override it")
    p.add_argument("--write-config", default=None, metavar="PATH",
                   help="record the effective configuration to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussvol",
        description="Fisher-Rao volumes of Gaussian state families",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cls = sub.add_parser("classify", help="classify a covariance matrix file")
    p_cls.add_argument("matrix", help="matrix file: whitespace rows, '#' comments")
    p_cls.add_argument("--tol", type=float, default=DEFAULT_TOL, help="classification tolerance")
    p_cls.set_defaults(func=cmd_classify)

    p_met = sub.add_parser("metric", help="metric at a standard-form point")
    p_met.add_argument("--a", type=float, default=None)
    p_met.add_argument("--b", type=float, default=None)
    p_met.add_argument("--c", type=float, default=None)
    p_met.add_argument("--d", type=float, default=None)
    p_met.add_argument("--tol", type=float, default=DEFAULT_TOL, help="domain tolerance, below 1")
    p_met.set_defaults(func=cmd_metric)

    p_vol = sub.add_parser("volume", help="one regularized volume estimate, CSV out")
    _add_run_flags(p_vol, with_set=True)
    p_vol.set_defaults(func=cmd_volume)

    p_swp = sub.add_parser("sweep", help="volumes and ratios across parameter values, CSV out")
    _add_run_flags(p_swp, with_set=False)
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one plain stderr line, like the ``error:`` lines.

    The line goes out in one write, which keeps it whole when the stream
    threads warn at once; ``print`` writes the newline separately.
    """
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except MatrixParseError as exc:
        print(f"error: {exc} (line {exc.line}, column {exc.column})", file=sys.stderr)
        return 2
    except AsymmetricMatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
