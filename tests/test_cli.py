"""CLI surface: reports, CSV shapes, exit codes, config round trips."""

import math
import os
import subprocess
import sys
import warnings

import pytest

import gaussvol.cli as cli
from gaussvol.cli import main, parse_matrix_file, parse_value_list
from gaussvol.errors import InvalidArgumentError, MatrixParseError, NumericError
from gaussvol.integrate import upsilon_box

VOLUME_HEADER = (
    "set,reg,param_name,param_value,m,estimate,std_error,acceptance_fraction,"
    "empty,n_samples,seed,streams,sampler,box_a_lo,box_a_hi,box_b_lo,box_b_hi,"
    "box_c_lo,box_c_hi,box_d_lo,box_d_hi"
)
SWEEP_HEADER = (
    "param_name,param_value,vol_classical,err_classical,vol_quantum,err_quantum,"
    "vol_separable,err_separable,vol_entangled,err_entangled,ratio_qc,err_qc,"
    "ratio_sc,err_sc,ratio_ec,err_ec,n_samples,seed"
)


def write_matrix(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
    return str(path)


def identity_file(tmp_path):
    return write_matrix(tmp_path / "id.txt", [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)])


def tms_file(tmp_path):
    ch, sh = math.cosh(1.0), math.sinh(1.0)
    rows = [
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ]
    return write_matrix(tmp_path / "tms.txt", rows, header="# two-mode squeezed vacuum")


# ---------------------------------------------------------------- classify


def test_classify_identity(tmp_path, capsys):
    assert main(["classify", identity_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == "QuantumSeparable, nu=(1,1)\nppt_nu=(1,1)\ndet_V=1\ntr_V=4\n"


def test_classify_two_mode_squeezed(tmp_path, capsys):
    assert main(["classify", tms_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "QuantumEntangled, nu=(1,1)",
        "ppt_nu=(0.367879441171,2.71828182846)",
        "det_V=1",
        "tr_V=6.17232253926",
    ]


def test_classify_thermal_half(tmp_path, capsys):
    path = write_matrix(tmp_path / "th.txt", [[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)])
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ClassicalOnly, nu=(0.5,0.5)\n")
    assert "det_V=0.0625" in out


def test_classify_indefinite(tmp_path, capsys):
    path = write_matrix(tmp_path / "bad.txt", [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    # no nu line for an indefinite matrix
    assert out.splitlines()[0] == "NotAState"


def test_classify_tol_widens_the_classes(tmp_path, capsys):
    # a larger tol widens the classes, as in the volume commands' labels:
    # the positive definite standard form (0.6, 0.6, 0.1, 0.1) is never
    # NotAState, and classify refuses a tol of 1 or more, as they do
    path = write_matrix(tmp_path / "sf.txt", [[0.6, 0, 0.1, 0], [0, 0.6, 0, 0.1],
                                              [0.1, 0, 0.6, 0], [0, 0.1, 0, 0.6]])
    for tol in ("0", "1e-9", "0.5"):
        assert main(["classify", path, "--tol", tol]) == 0
        assert capsys.readouterr().out.startswith("ClassicalOnly, nu=(0.5,0.7)\n"), tol
    assert main(["classify", path, "--tol", "1.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: tol must be finite and below 1\n"


def test_classify_parse_error_position(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("1 0\n0 oops\n", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "(line 2, column 3)" in err


def test_classify_parse_error_column_of_repeated_token(tmp_path, capsys):
    # "e5" also occurs inside "1e5"; the column is that of the bad token itself
    path = tmp_path / "junk.txt"
    path.write_text("0 0 1e5 e5\n", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "(line 1, column 9)" in capsys.readouterr().err
    with pytest.raises(MatrixParseError) as err:
        parse_matrix_file(str(path))
    assert (err.value.line, err.value.column) == (1, 9)


def test_classify_ragged_rows(tmp_path, capsys):
    path = tmp_path / "ragged.txt"
    path.write_text("1 0\n0 1 2\n", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "expected 2" in capsys.readouterr().err


def test_classify_rejects_non_finite(tmp_path, capsys):
    path = tmp_path / "inf.txt"
    path.write_text("1 0\n0 inf\n", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_classify_odd_dimension(tmp_path, capsys):
    path = write_matrix(tmp_path / "odd.txt", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert main(["classify", path]) == 2
    assert "even-dimension" in capsys.readouterr().err


def test_classify_missing_file(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.txt")]) == 2


def test_classify_comments_only(tmp_path, capsys):
    path = tmp_path / "comments.txt"
    path.write_text("# a header\n\n# and nothing else\n", encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "no matrix rows found" in capsys.readouterr().err


def test_classify_asymmetric_exit_code(tmp_path, capsys):
    path = write_matrix(tmp_path / "asym.txt", [[1, 0.2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert main(["classify", path]) == 3
    assert "symmetric" in capsys.readouterr().err.lower()


def test_parse_matrix_file_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# header\n\n1 0\n# middle\n0 1\n\n", encoding="utf-8")
    M = parse_matrix_file(str(path))
    assert M.shape == (2, 2)
    with pytest.raises(MatrixParseError):
        parse_matrix_file(str(tmp_path / "empty.txt"))


# ------------------------------------------------------------------ metric


def test_metric_identity_point(capsys):
    assert main(["metric", "--a", "1", "--b", "1", "--c", "0", "--d", "0"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "g:\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        "det_g = 1\nsqrt_det_g = 1\ndet_bound: 1 <= 1\n"
    )


def test_metric_diag_point(capsys):
    assert main(["metric", "--a", "2", "--b", "1", "--c", "0", "--d", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0.25 0 0 0"
    assert lines[5] == "det_g = 0.0625"
    assert lines[6] == "sqrt_det_g = 0.25"
    assert lines[7] == "det_bound: 0.0625 <= 1"


def test_metric_outside_domain(capsys):
    assert main(["metric", "--a", "1", "--b", "1", "--c", "1.5", "--d", "0"]) == 4
    assert "outside the classical domain" in capsys.readouterr().err


def test_metric_singular_boundary(capsys):
    # c = sqrt(ab) is inside at default tolerance but the metric diverges there
    assert main(["metric", "--a", "1", "--b", "1", "--c", "1", "--d", "0"]) == 4
    assert "singular" in capsys.readouterr().err


def test_metric_missing_flags(capsys):
    assert main(["metric", "--a", "1", "--b", "1", "--c", "0"]) == 2
    assert "--d" in capsys.readouterr().err


# ------------------------------------------------------------------ volume


def test_volume_csv_shape(capsys):
    code = main(["volume", "--E", "6", "--samples", "20000", "--seed", "77", "--streams", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# gaussvol-volume-csv v1"
    assert lines[1] == VOLUME_HEADER
    assert len(lines) == 3
    fields = lines[2].split(",")
    assert len(fields) == len(VOLUME_HEADER.split(","))
    assert fields[0] == "classical"
    assert fields[1] == "energy"
    assert fields[2] == "E"
    assert fields[3] == "6.0"
    assert fields[4] == "4"
    assert float(fields[5]) > 0.0
    assert fields[8] == "0"
    assert fields[9:13] == ["20000", "77", "2", "qmc"]
    assert fields[13:] == ["0.0", "3.0", "0.0", "3.0", "-1.5", "1.5", "-1.5", "1.5"]


def test_volume_requires_one_parameter(capsys):
    assert main(["volume", "--samples", "20000"]) == 2
    assert main(["volume", "--E", "6", "--kappa", "1", "--samples", "20000"]) == 2
    assert main(["volume", "--E", "4,6", "--samples", "20000"]) == 2
    assert main(["volume", "--E", "6", "--reg", "adj", "--samples", "20000"]) == 2
    assert main(["volume", "--kappa", "1", "--reg", "energy", "--samples", "20000"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [("--E", "inf"), ("--E", "8", "--tol", "nan"),
                                   ("--E", "8", "--seed", "-1"), ("--kappa", "inf")])
def test_volume_rejects_out_of_range_input(flags, capsys):
    assert main(["volume", *flags, "--samples", "10000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


# the data row of each benchmark workload at 200k samples and seed 1, with
# the pseudo sampler, recorded when their passes began to draw c and d inside
# the scored class, over the boxes fitted to it; the kappa row re-recorded
# when damped quantum-class passes began to draw through the polynomial maps
# (integrate._fold_ab), and the E row when passes under the energy cutoff
# began to draw a and b on their class's triangle (integrate._triangle_ab).
# A kernel speed-up must keep these bytes
_PINNED_ROWS = {
    ("--set", "entangled", "--kappa", "5"):
        "entangled,adj,kappa,5.0,4,0.2980692495117169,0.00184580484944417,1.0,0,200000,"
        "1,4,pseudo,0.999999999,6.324555320336758,0.999999999,6.324555320336758,"
        "-6.324555320336758,6.324555320336758,-6.324555320336758,6.324555320336758",
    ("--set", "separable", "--E", "8"):
        "separable,energy,E,8.0,4,5.18879976790259,0.015046458189722178,1.0,0,200000,1,4,pseudo,"
        "0.999999999,3.000000001,0.999999999,3.000000001,-2.0,2.0,-2.0,2.0",
}


@pytest.mark.parametrize("flags", sorted(_PINNED_ROWS), ids=lambda flags: flags[1])
def test_volume_benchmark_rows_pinned(flags, capsys):
    argv = ["volume", *flags, "--sampler", "pseudo", "--samples", "200000", "--seed", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == VOLUME_HEADER
    assert lines[2:] == [_PINNED_ROWS[flags]]


# the same rows with the default sampler, qmc: 8 replicates, two scrambles
# of the numpy Sobol' generator per stream
_PINNED_QMC_ROWS = {
    ("--set", "entangled", "--kappa", "5"):
        "entangled,adj,kappa,5.0,4,0.29670201556319126,0.00015043639381577743,1.0,0,200000,"
        "1,4,qmc,0.999999999,6.324555320336758,0.999999999,6.324555320336758,"
        "-6.324555320336758,6.324555320336758,-6.324555320336758,6.324555320336758",
    ("--set", "separable", "--E", "8"):
        "separable,energy,E,8.0,4,5.186675102982909,0.0001559303038436243,1.0,0,200000,1,4,qmc,"
        "0.999999999,3.000000001,0.999999999,3.000000001,-2.0,2.0,-2.0,2.0",
}


@pytest.mark.parametrize("flags", sorted(_PINNED_QMC_ROWS), ids=lambda flags: flags[1])
def test_volume_benchmark_rows_pinned_qmc(flags, capsys):
    assert main(["volume", *flags, "--samples", "200000", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == VOLUME_HEADER
    assert lines[2:] == [_PINNED_QMC_ROWS[flags]]


# one stream of 400k samples runs 7 tiles, so these rows cover a stream whose
# sums span several tiles: the classical row draws inside the classical
# slice, on its triangle a + b <= E/2, and the quantum row is a separable
# and an entangled pass, each through the polynomial maps.  Both re-recorded
# when the triangle draw came in and the split sums became plain sums, and
# the quantum row again when one quantum pass split at d = -d2 became two
_PINNED_MULTI_TILE_ROWS = {
    ("--set", "quantum", "--kappa", "5"):
        "quantum,adj,kappa,5.0,4,0.47230616740184644,0.001647484657504159,1.0,0,400000,1,1,pseudo,"
        "0.999999999,6.324555320336758,0.999999999,6.324555320336758,-6.324555320336758,"
        "6.324555320336758,-6.324555320336758,6.324555320336758",
    ("--set", "classical", "--E", "8"):
        "classical,energy,E,8.0,4,46.559535228584146,0.16337616149206463,1.0,0,400000,1,1,pseudo,"
        "0.0,4.0,0.0,4.0,-2.0,2.0,-2.0,2.0",
}


@pytest.mark.parametrize("flags", sorted(_PINNED_MULTI_TILE_ROWS), ids=lambda flags: flags[1])
def test_volume_multi_tile_rows_pinned(flags, capsys):
    argv = ["volume", *flags, "--sampler", "pseudo", "--streams", "1", "--samples", "400000",
            "--seed", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == VOLUME_HEADER
    assert lines[2:] == [_PINNED_MULTI_TILE_ROWS[flags]]


def test_volume_out_file(tmp_path, capsys):
    out = tmp_path / "vol.csv"
    code = main(["volume", "--E", "6", "--samples", "20000", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# gaussvol-volume-csv v1\n")


def test_volume_deterministic_bytes(tmp_path):
    argv = ["volume", "--E", "6", "--samples", "20000", "--seed", "5", "--streams", "3"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_volume_quantum_empty_at_small_energy(capsys):
    code = main(["volume", "--set", "quantum", "--E", "0.5", "--samples", "20000", "--seed", "1"])
    assert code == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert fields[0] == "quantum"
    assert float(fields[5]) == 0.0
    assert fields[8] == "1"


def test_volume_entangled_empty_just_above_threshold(capsys):
    # below E = 4 the run keeps phi_box(3.9), which holds points with
    # min(a, b) >= 1 - tol, but none inside tr V <= 3.9: the run must report
    # an empty domain, not the share that passed the box
    code = main(["volume", "--set", "entangled", "--E", "3.9", "--samples", "100000",
                 "--seed", "3"])
    assert code == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert float(fields[5]) == 0.0
    assert float(fields[7]) == 0.0
    assert fields[8] == "1"
    assert fields[13:15] == ["0.0", "1.95"]
    # just above the threshold the box fitted to the quantum classes finds
    # the entangled points inside tr V <= 4.05 that phi_box(4.05) missed
    code = main(["volume", "--set", "entangled", "--E", "4.05", "--samples", "100000",
                 "--seed", "3"])
    assert code == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert float(fields[5]) > 0.0 and float(fields[7]) > 0.0
    assert fields[8] == "0"


def test_volume_entangled_empty_where_no_damped_box_is_fitted(capsys):
    # at tol = -10 the quantum classes start at a, b = 11, past the kappa = 5
    # box's side: the run keeps the unfitted box and reports an empty class
    code = main(["volume", "--set", "entangled", "--kappa", "5", "--tol=-10", "--samples",
                 "20000", "--seed", "1"])
    assert code == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert float(fields[5]) == 0.0 and fields[8] == "1"
    L = "6.324555320336758"
    assert fields[13:] == ["0.0", L, "0.0", L, "-" + L, L, "-" + L, L]


def test_volume_tol_sets_the_fitted_box(capsys):
    # the a and b sides of a quantum class's E box start at 1 - tol
    assert main(["volume", "--set", "quantum", "--E", "8", "--tol", "1e-3", "--samples", "20000",
                 "--seed", "1"]) == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert fields[13:17] == ["0.999", "3.001", "0.999", "3.001"]
    # and those of its kappa box, whose c and d sides are upsilon_box's
    assert main(["volume", "--set", "entangled", "--kappa", "5", "--tol", "1e-3", "--samples",
                 "20000", "--seed", "1"]) == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    L = "6.324555320336758"
    assert fields[13:] == ["0.999", L, "0.999", L, "-" + L, L, "-" + L, L]


def test_volume_adjugate_kind(capsys):
    code = main(["volume", "--kappa", "1", "--samples", "20000", "--seed", "9"])
    assert code == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert fields[1] == "adj"
    assert fields[2] == "kappa"
    # the kappa = 1 classical tail passes its test first at L = 8
    L = "8.0"
    assert fields[13:] == ["0.0", L, "0.0", L, "-" + L, L, "-" + L, L]


def test_volume_box_does_not_depend_on_samples(capsys):
    boxes = []
    for samples in ("20000", "1000000"):
        assert main(["volume", "--kappa", "1", "--samples", samples, "--seed", "9"]) == 0
        boxes.append(capsys.readouterr().out.splitlines()[2].split(",")[13:])
    assert boxes[0] == boxes[1] == ["0.0", "8.0", "0.0", "8.0", "-8.0", "8.0", "-8.0", "8.0"]


# ------------------------------------------------------------------ config


# the config keys, in the order in which --write-config lists them
_CONFIG_KEYS = ("set", "reg", "E", "kappa", "m", "samples", "seed", "streams", "eps-tail", "tol",
                "sampler", "out")
_OPTIONAL_KEYS = ("reg", "E", "kappa", "out")


# one non-default value of each setting; m has none, since only m = 4 runs
@pytest.mark.parametrize("flags", [
    ["--E", "6", "--set", "separable"],
    ["--E", "6", "--reg", "energy"],
    ["--E", "7"],
    ["--kappa", "2"],
    ["--E", "6", "--samples", "30000"],
    ["--E", "6", "--seed", "11"],
    ["--E", "6", "--streams", "2"],
    ["--kappa", "2", "--eps-tail", "0.01"],
    ["--E", "6", "--tol", "1e-6"],
    ["--E", "6", "--sampler", "pseudo"],
    ["--E", "6", "--out"],
], ids=["set", "reg", "E", "kappa", "samples", "seed", "streams", "eps-tail", "tol", "sampler",
        "out"])
def test_config_round_trip(flags, tmp_path, capsys):
    cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    argv = ["volume", *flags] + ([str(out)] if flags[-1] == "--out" else [])
    if "--samples" not in argv:
        argv += ["--samples", "20000"]

    def run(argv):
        out.unlink(missing_ok=True)
        assert main(argv) == 0
        return capsys.readouterr().out, out.read_text(encoding="utf-8") if out.exists() else None

    first = run(argv + ["--write-config", str(cfg)])
    lines = cfg.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# gaussvol config v1"
    keys = [line.partition(" = ")[0] for line in lines[1:]]
    assert keys == [k for k in _CONFIG_KEYS if k not in _OPTIONAL_KEYS or "--" + k in argv]
    assert run(["volume", "--config", str(cfg)]) == first


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# gaussvol config v1\nE = 6\nsamples = 20000\nseed = 11\n", encoding="utf-8")
    assert main(["volume", "--config", str(cfg), "--seed", "12"]) == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert fields[10] == "12"


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = 20000\nbogus = 1\n", encoding="utf-8")
    assert main(["volume", "--E", "6", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_unreadable_path(tmp_path, capsys):
    assert main(["volume", "--E", "6", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config")


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples 20000\n", encoding="utf-8")
    assert main(["volume", "--E", "6", "--config", str(cfg)]) == 2
    assert "key = value" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    *((key, "many", f"config key {key!r}: bad value 'many'")
      for key in ("m", "samples", "seed", "streams", "eps-tail", "tol")),
    *((key, "many", f"{key} must be one of") for key in ("set", "reg", "sampler")),
    ("m", "3", "m must be one of (4,), got 3"),
], ids=["m", "samples", "seed", "streams", "eps-tail", "tol", "set", "reg", "sampler", "m3"])
def test_config_bad_value(key, value, message, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert main(["volume", "--E", "6", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_m_flag_takes_only_4(capsys):
    # volume integrals use the 4-parameter chart, so any other m is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--E", "7", "--m", "3"])
    assert exc.value.code == 2
    assert "--m: invalid choice: 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["volume", "--E", "inf"],
    ["volume", "--E", "8", "--seed", "-1"],
    ["volume", "--kappa", "5", "--eps-tail", "2"],
    ["sweep", "--E", "4,inf"],
    ["sweep", "--E", "6,4"],
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_write_config_only_after_validation(argv, tmp_path, capsys):
    cfg = tmp_path / "wc.cfg"
    assert main(argv + ["--samples", "10000", "--write-config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not cfg.exists()


@pytest.mark.parametrize("argv", [
    ["volume", "--E", "8", "--out"],
    ["sweep", "--E", "4,8", "--out"],
    ["volume", "--E", "8", "--write-config"],
], ids=["volume_out", "sweep_out", "write_config"])
def test_unwritable_output_exits_2(argv, tmp_path, capsys, monkeypatch):
    # the path is checked before any pass runs, so a typo costs no estimate
    def never(*args, **kwargs):
        raise AssertionError("a pass ran before the output path was checked")

    monkeypatch.setattr(cli, "mc_volume", never)
    monkeypatch.setattr(cli, "sweep", never)
    path = tmp_path / "missing" / "x.csv"
    assert main(argv + [str(path), "--samples", "10000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["volume", "--E", "1e70", "--samples", "10000"],
    ["volume", "--E", "1e45", "--samples", "100000"],
    ["volume", "--kappa", "1e30", "--samples", "10000"],
], ids=["E1e70", "E1e45", "kappa1e30"])
def test_underflowed_weights_exit_5(argv, capsys):
    # the run prints no row rather than an estimate or error bar of 0
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("error: ") and "underflow" in last


def test_sweep_records_underflowed_row_as_failed(capsys):
    # at kappa = 0.01 every squared quantum-class weight underflows.  At
    # E = 1e70 every weight underflows too, but the row's entangled pass
    # fails first: pd = ab - d^2 cancels on its sliver at d1, about 1/ab
    # wide, and leaves a non-finite weight
    for argv, kept, failed, reason in (
            (["--kappa", "0.01,1"], ["kappa", "1.0"], "kappa=0.01", "quantum domain underflow"),
            (["--E", "8,1e70"], ["E", "8.0"], "E=1e+70", "non-finite integrand weight")):
        assert main(["sweep", *argv, "--samples", "10000"]) == 5
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[2:]
        assert [row.split(",")[:2] for row in rows] == [kept]
        assert captured.err.startswith(f"sweep row {failed} failed: ") and reason in captured.err


@pytest.mark.parametrize("argv", [["volume", "--E", "8"], ["sweep", "--E", "4,8"]],
                         ids=["volume", "sweep"])
def test_failed_run_leaves_output_path_alone(argv, tmp_path, capsys, monkeypatch):
    # checking the path before the run neither truncates an existing file nor
    # leaves a new one behind when the run then fails
    def fail(*args, **kwargs):
        raise NumericError("the pass failed")

    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "mc_volume", fail)
    monkeypatch.setattr(cli, "sweep", fail)
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("earlier results\n", encoding="utf-8")
    # a dangling link stays dangling, and a named pipe is not opened, which
    # would hand its reader an end of file before the run
    link, pipe = tmp_path / "link.csv", tmp_path / "pipe"
    link.symlink_to(tmp_path / "target.csv")
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # so that opening it to write cannot block
    try:
        for path in (old, new, link, pipe):
            assert main(argv + ["--samples", "10000", "--out", str(path)]) == 5
            assert capsys.readouterr().err == "error: the pass failed\n"
    finally:
        os.close(reader)
    assert old.read_text(encoding="utf-8") == "earlier results\n"
    assert not new.exists()
    assert link.is_symlink() and not (tmp_path / "target.csv").exists()
    assert opened == [str(old), str(new), str(link)]


# ---------------------------------------------------------------- warnings

_CAPPED_50 = ("warning: support box capped at L=56.5685 (kappa=50): outside the capped box "
              "lies classical 0.011 of the mass inside (eps_tail=0.001)")
_CAPPED_100 = ("warning: support box capped at L=80 (kappa=100): outside the capped box "
               "lies classical 0.0234 of the mass inside (eps_tail=0.001)")


def test_capped_box_warning_is_one_plain_line(capsys):
    shown = warnings.showwarning
    argv = ["volume", "--set", "classical", "--kappa", "50", "--samples", "20000", "--seed", "8"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [_CAPPED_50]
    assert captured.out.startswith("# gaussvol-volume-csv v1\n")
    # the CLI's warning format ends with the run; library callers get the RuntimeWarning
    assert warnings.showwarning is shown
    with pytest.warns(RuntimeWarning, match="support box capped at L=56.5685"):
        upsilon_box(50.0)


def test_warning_is_one_write(monkeypatch):
    # a line written in pieces can be split by another stream thread's warning
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stderr", Sink())
    cli._show_warning(RuntimeWarning("overflow encountered in square"), RuntimeWarning, "f.py", 1)
    assert writes == ["warning: overflow encountered in square\n"]


def test_overflowing_run_writes_whole_stderr_lines():
    # the weights of this run overflow in every stream thread; numpy's
    # overflow warnings are silenced there, and the one error line names the
    # bad point with plain floats.  There ab overflows, and so do the slice
    # half-width h and c, drawn on [0, h]; the point re-recorded when a and
    # b began to be drawn on the triangle a + b <= E/2
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "gaussvol", "volume", "--E", "1e300",
                               "--samples", "10000"], capture_output=True, text=True)
        assert proc.returncode == 5 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: non-finite integrand weight at (a, b, c, d) = "
            "(1.1176884533464262e+299, 8.735195793584637e+298, inf, nan)"]


def test_sweep_prints_one_warning_per_capped_row(capsys):
    assert main(["sweep", "--kappa", "1,50,100", "--samples", "10000"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [_CAPPED_50, _CAPPED_100]
    assert len(captured.out.splitlines()) == 5


# ------------------------------------------------------------- value lists


def test_parse_value_list_forms():
    assert parse_value_list("6") == [6.0]
    assert parse_value_list("4, 6, 8") == [4.0, 6.0, 8.0]
    assert parse_value_list("4:8:lin:3") == [4.0, 6.0, 8.0]
    assert parse_value_list("1:4:log:3") == pytest.approx([1.0, 2.0, 4.0])


@pytest.mark.parametrize(
    "text",
    ["4:8:lin", "4:8:geom:3", "8:4:lin:3", "0:8:log:3", "4:8:lin:0", "4:8:lin:x", "a,b"],
)
def test_parse_value_list_rejects(text):
    with pytest.raises(InvalidArgumentError):
        parse_value_list(text)


# ------------------------------------------------------------------- sweep


def test_sweep_csv_shape(capsys):
    # start above E = 4: at the threshold the quantum slice has measure zero
    code = main(["sweep", "--E", "6:8:lin:3", "--samples", "20000", "--seed", "21", "--streams", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# gaussvol-sweep-csv v1"
    assert lines[1] == SWEEP_HEADER
    assert len(lines) == 5
    values = [line.split(",")[1] for line in lines[2:]]
    assert values == ["6.0", "7.0", "8.0"]
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 18
        assert fields[0] == "E"
        assert fields[16] == "20000"
        assert fields[17] == "21"
        # classical volume dominates the nested ones
        assert float(fields[2]) >= float(fields[4]) > 0.0


# every row of two sweeps at 200k samples and seed 8, under each sampler,
# recorded when each row became passes drawn inside their classes; the
# kappa rows' quantum columns and ratios re-recorded when the damped quantum
# pass began to draw through the polynomial maps, and again when its split
# sums became plain sums; the E rows when every pass began to draw on its
# class's triangle, where E = 4's quantum classes, a, b >= 1 - tol with
# a + b <= 2, read about 1e-31 rather than 0; and the quantum, separable and
# entangled columns and their ratios of every row when the quantum pass
# became a separable and an entangled pass.  A kernel change must keep these
# bytes or re-record them
_PINNED_SWEEP_ROWS = {
    (("--kappa", "1:16:log:3"), "qmc"): [
        "kappa,1.0,0.03920099204778679,0.00010604242163263031,0.00023086621532531553,"
        "2.3244162545705337e-07,6.299133021851992e-05,5.042696510774055e-08,"
        "0.0001678748851067956,2.26905774353893e-07,0.005889295226097467,1.6998790656825776e-05,"
        "0.0016068810233611495,4.533114261424134e-06,0.004282414202736317,1.2949939373099242e-05,"
        "200000,8",
        "kappa,4.0,5.943284408356673,0.03992121673414756,0.22811272357730042,"
        "0.00016593647576485193,0.08273169354283871,7.322547214311229e-05,0.14538103003446168,"
        "0.0001489058233202368,0.038381593055946975,0.00025931770739305555,0.013920197631214177,"
        "9.43106281390341e-05,0.024461395424732794,0.00016620715145262852,200000,8",
        "kappa,16.0,150.30576375728464,2.6825174553574223,8.850940138540004,0.01194386608626816,"
        "3.744970634877258,0.003530885041390872,5.105969503662745,0.011410030145060479,"
        "0.058886232419088046,0.0010539466114020902,0.024915682148587973,0.00044529199208498226,"
        "0.03397055027050007,0.0006110088064286994,200000,8",
    ],
    (("--kappa", "1:16:log:3"), "pseudo"): [
        "kappa,1.0,0.03943372044099305,0.0005124161029205005,0.0002274810035408361,"
        "2.301061014141152e-06,6.157144614848634e-05,1.0023011461503994e-06,"
        "0.00016590955739234978,2.071297709945604e-06,0.0057686924032752385,"
        "9.499527970654573e-05,0.0015613907452790119,3.25222560200301e-05,0.004207301657996227,"
        "7.581508586854394e-05,200000,8",
        "kappa,4.0,5.968747334501896,0.09714594792646553,0.22688717292407834,"
        "0.0020822444718855884,0.08297905368979085,0.0012417680922493395,0.14390811923428745,"
        "0.0016714526753005986,0.03801252762243328,0.0007102609203524986,0.013902256041252854,"
        "0.00030737727920593865,0.024110271581180422,0.00048208629831823964,200000,8",
        "kappa,16.0,148.75620325296651,4.217673824215129,8.782877159686564,0.08030060270646601,"
        "3.693609878839446,0.05355826840881897,5.089267280847117,0.059830583150012835,"
        "0.05904209012884586,0.0017588997875487358,0.02482995530988579,0.0007907261947681465,"
        "0.03421213481896007,0.0010500937428086369,200000,8",
    ],
    (("--E", "4:16:log:4"), "qmc"): [
        "E,4.0,0.07057469593613724,8.817519870178303e-05,1.1870805484036423e-31,"
        "5.69424697476044e-36,3.6968160549471686e-36,1.7186308062503887e-40,"
        "1.1870435802430929e-31,5.694246972166865e-36,1.6820200677560506e-30,"
        "2.103044480088385e-33,5.238160796742791e-35,6.549025849596428e-38,"
        "1.6819676861480833e-30,2.1029790833027343e-33,200000,8",
        "E,6.3496042078727974,11.007837724943931,0.003772955607842418,1.4273946791215355,"
        "2.717054754508426e-05,0.8100886391559282,2.1160669305299217e-05,0.6173060399656075,"
        "1.7043025800938394e-05,0.12967075957951643,4.4513366090942885e-05,0.07359198594654559,"
        "2.5296926843312304e-05,0.05607877363297084,1.928335321791974e-05,200000,8",
        "E,10.079368399158986,144.3127162623346,0.07387107974015895,29.365543023456432,"
        "0.0015050747021221275,19.284644321774877,0.0010475076390426754,10.08089870168156,"
        "0.0010807301259404456,0.20348548474463712,0.00010468137583088141,0.13363094272800505,"
        "6.878731619865907e-05,0.06985454201663212,3.653307306116387e-05,200000,8",
        "E,16.0,831.7450489481134,0.7645971287146375,179.66240260293432,0.0190595876351242,"
        "124.68488013902325,0.012731625387243158,54.97752246391104,0.014183567809965334,"
        "0.2160065789753107,0.0001998859283846624,0.14990757119228904,0.00013865286236497315,"
        "0.06609900778302161,6.311028820386248e-05,200000,8",
    ],
    (("--E", "4:16:log:4"), "pseudo"): [
        "E,4.0,0.0716920622017161,0.0009954004385592508,1.1833499940637605e-31,"
        "3.6064702703493348e-34,3.7081021030410835e-36,1.3519336581892753e-38,"
        "1.18331291304273e-31,3.6064702678153823e-34,1.650601137311732e-30,"
        "2.3463199998957206e-32,5.172263133689467e-35,7.424833074324937e-37,"
        "1.6505494146803955e-30,2.3462498561143287e-32,200000,8",
        "E,6.3496042078727974,11.012416306697627,0.07072274924710922,1.419391159850865,"
        "0.003378559590827429,0.8047118328813456,0.002599912827306342,0.6146793269695193,"
        "0.0021575722929208993,0.12889007465033875,0.0008827703178992675,0.07307313948819107,"
        "0.0005253228599010649,0.055816935162147675,0.00040850946581457397,200000,8",
        "E,10.079368399158986,145.04140386614907,0.6455620300527395,29.3367060100645,"
        "0.06647352003974068,19.30678021850044,0.051932204738945824,10.029925791564061,"
        "0.041494276441769846,0.20226435506055754,0.0010101998786793858,0.13311219902640786,"
        "0.0006922550599463437,0.06915215603414968,0.00042021245945890576,200000,8",
        "E,16.0,827.3129928539895,4.435130538789997,179.7334528333272,0.43675738990610796,"
        "124.59932893235985,0.3147199212271579,55.134123900967374,0.30283392944048976,"
        "0.21724964358809232,0.0012787155175229934,0.15060724297648023,0.0008925184497494954,"
        "0.06664240061161213,0.0005114933277379861,200000,8",
    ],
}


@pytest.mark.parametrize("flags,sampler", sorted(_PINNED_SWEEP_ROWS),
                         ids=lambda x: x if isinstance(x, str) else x[0].lstrip("-"))
def test_sweep_rows_pinned(flags, sampler, capsys):
    argv = ["sweep", *flags, "--sampler", sampler, "--samples", "200000", "--seed", "8"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# gaussvol-sweep-csv v1"
    assert lines[2:] == _PINNED_SWEEP_ROWS[(flags, sampler)]


def test_sweep_deterministic_bytes(tmp_path):
    argv = ["sweep", "--E", "4,8", "--samples", "20000", "--seed", "2", "--streams", "2"]
    f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_rejects_bad_ranges(capsys):
    assert main(["sweep", "--E", "8,4", "--samples", "20000"]) == 2
    assert main(["sweep", "--kappa", "1", "--reg", "energy", "--samples", "20000"]) == 2
    capsys.readouterr()


def test_sweep_takes_no_set_flag(tmp_path, capsys):
    # a sweep reports all four domains, so --set is a usage error there
    argv = ["sweep", "--E", "4,8", "--samples", "20000", "--seed", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--set", "entangled"])
    assert exc.value.code == 2
    assert "--set" in capsys.readouterr().err
    # but the set key of a recorded configuration is still read
    cfg = tmp_path / "run.cfg"
    assert main(argv + ["--write-config", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert "set = classical" in cfg.read_text(encoding="utf-8")
    cfg.write_text(cfg.read_text(encoding="utf-8").replace("classical", "entangled"),
                   encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == first


# -------------------------------------------------------------- subprocess


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gaussvol", "classify", identity_file(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "QuantumSeparable, nu=(1,1)"


@pytest.mark.parametrize("flags", [("--kappa", "5", "--set", "entangled"),
                                   ("--E", "8", "--set", "separable")])
def test_optimized_interpreter_same_bytes(flags):
    # python -O strips assert statements, so no invariant may rest on one
    argv = ["-m", "gaussvol", "volume", *flags, "--samples", "100000", "--seed", "3"]
    plain, optimized = (subprocess.run([sys.executable, *opt, *argv], capture_output=True)
                        for opt in ((), ("-O",)))
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout and plain.stdout.startswith(b"# gaussvol-volume-csv")


def test_optimized_interpreter_rejects_bad_input():
    # the argument checks raise typed errors, not asserts, so -O still exits 2
    proc = subprocess.run([sys.executable, "-O", "-m", "gaussvol", "volume", "--E", "inf",
                           "--samples", "10000"], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("error: ")


def test_volume_capped_box_exits_zero():
    # no side passes at eps_tail 1e-300, so the box stops at 2 L0 = 8 sqrt(5)
    # with a warning instead of failing the run
    proc = subprocess.run([sys.executable, "-m", "gaussvol", "volume", "--set", "classical",
                           "--kappa", "5", "--samples", "10000", "--eps-tail", "1e-300"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    L = "17.88854381999832"
    assert proc.stdout.splitlines()[2].split(",")[13:] == ["0.0", L, "0.0", L,
                                                           "-" + L, L, "-" + L, L]
    assert "support box capped at L=17.8885 (kappa=5)" in proc.stderr


def test_sweep_capped_boxes_keep_every_row():
    proc = subprocess.run([sys.executable, "-m", "gaussvol", "sweep", "--kappa", "1,5",
                           "--samples", "10000", "--eps-tail", "1e-300"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[1] == SWEEP_HEADER
    assert [line.split(",")[:2] for line in lines[2:]] == [["kappa", "1.0"], ["kappa", "5.0"]]
    assert proc.stderr.count("support box capped") == 2 and "failed" not in proc.stderr


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "gaussvol", "volume", "--sampler", "random"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
