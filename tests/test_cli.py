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
# the scored class, over the boxes fitted to it; a kernel speed-up must keep
# these bytes
_PINNED_ROWS = {
    ("--set", "entangled", "--kappa", "5"):
        "entangled,adj,kappa,5.0,4,0.2919487395767134,0.0036779189660585054,1.0,0,200000,"
        "1,4,pseudo,0.999999999,6.324555320336758,0.999999999,6.324555320336758,"
        "-6.324555320336758,6.324555320336758,-6.324555320336758,6.324555320336758",
    ("--set", "separable", "--E", "8"):
        "separable,energy,E,8.0,4,5.193507038844113,0.017504252359814548,0.500105,0,200000,1,4,"
        "pseudo,0.999999999,3.000000001,0.999999999,3.000000001,-2.0,2.0,-2.0,2.0",
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
        "entangled,adj,kappa,5.0,4,0.29559956278976335,0.00074628845099116,1.0,0,200000,"
        "1,4,qmc,0.999999999,6.324555320336758,0.999999999,6.324555320336758,"
        "-6.324555320336758,6.324555320336758,-6.324555320336758,6.324555320336758",
    ("--set", "separable", "--E", "8"):
        "separable,energy,E,8.0,4,5.1901640461083085,0.0018729094389481793,0.50005,0,200000,1,4,"
        "qmc,0.999999999,3.000000001,0.999999999,3.000000001,-2.0,2.0,-2.0,2.0",
}


@pytest.mark.parametrize("flags", sorted(_PINNED_QMC_ROWS), ids=lambda flags: flags[1])
def test_volume_benchmark_rows_pinned_qmc(flags, capsys):
    assert main(["volume", *flags, "--samples", "200000", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == VOLUME_HEADER
    assert lines[2:] == [_PINNED_QMC_ROWS[flags]]


# one stream of 400k samples runs 7 tiles, so these rows cover a stream whose
# sums span several tiles: the classical row draws inside the classical
# slice, and the quantum row inside its class, which it splits at d = -d2
_PINNED_MULTI_TILE_ROWS = {
    ("--set", "quantum", "--kappa", "5"):
        "quantum,adj,kappa,5.0,4,0.47561416336978984,0.003439444812276747,1.0,0,400000,1,1,"
        "pseudo,0.999999999,6.324555320336758,0.999999999,6.324555320336758,"
        "-6.324555320336758,6.324555320336758,-6.324555320336758,6.324555320336758",
    ("--set", "classical", "--E", "8"):
        "classical,energy,E,8.0,4,46.94372662953762,0.17552083838035876,0.5015025,0,400000,1,1,"
        "pseudo,0.0,4.0,0.0,4.0,-2.0,2.0,-2.0,2.0",
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
    assert main(["sweep", "--E", "8,1e70", "--samples", "10000"]) == 5
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[2:]
    assert [row.split(",")[:2] for row in rows] == [["E", "8.0"]]
    assert captured.err.startswith("sweep row E=1e+70 failed: ") and "underflow" in captured.err


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
    # half-width h and c, drawn on [0, h]
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "gaussvol", "volume", "--E", "1e300",
                               "--samples", "10000"], capture_output=True, text=True)
        assert proc.returncode == 5 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: non-finite integrand weight at (a, b, c, d) = "
            "(1.99120803270489e+299, 6.131174392066896e+298, inf, nan)"]


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
# recorded when each row became two passes drawn inside the classical and
# the quantum class; a kernel change must keep these bytes or re-record them
_PINNED_SWEEP_ROWS = {
    (("--kappa", "1:16:log:3"), "qmc"): [
        "kappa,1.0,0.03920099204778679,0.00010604242163263031,0.00023342297317165887,"
        "1.4063751348658964e-06,6.259797565141512e-05,1.4752544762603855e-06,"
        "0.00017082499752024376,1.8890805510274889e-06,0.005954516989955551,"
        "3.932608206593856e-05,0.0015968467220193545,3.7880187836851565e-05,"
        "0.004357670267936196,4.961041724858351e-05,200000,8",
        "kappa,4.0,5.943284408356673,0.03992121673414756,0.2295785360437664,"
        "0.002943235053366668,0.08062224193745383,0.0013001131752080222,0.14895629410631256,"
        "0.003521938234910745,0.03862822646026546,0.0005590762301845522,0.013565267350169769,"
        "0.00023697164021081139,0.025062959110095692,0.0006160402847874763,200000,8",
        "kappa,16.0,150.30576375728464,2.6825174553574223,8.664030764107162,"
        "0.18558875140249442,3.745558884629254,0.06745926393981563,4.918471879477908,"
        "0.18390322549614155,0.057642704760796346,0.0016071464984294384,0.024919595835843144,"
        "0.0006318455857161449,0.0327231089249532,0.0013557613881662394,200000,8",
    ],
    (("--kappa", "1:16:log:3"), "pseudo"): [
        "kappa,1.0,0.03943372044099305,0.0005124161029205005,0.00022776462877684565,"
        "8.664312562081e-06,6.75358317022617e-05,4.44075191845788e-06,0.00016022879707458396,"
        "7.4470294053360695e-06,0.005775884857673092,0.00023218366617801023,"
        "0.0017126416413921547,0.00011479099437258249,0.004063243216280938,"
        "0.00019609132937204888,200000,8",
        "kappa,4.0,5.968747334501896,0.09714594792646553,0.23300072915154,"
        "0.008239919337283672,0.08338453097104484,0.0037355997670087066,0.14961619818049518,"
        "0.007352980515040302,0.03903678880905157,0.0015196986692500932,0.013970189438083066,"
        "0.0006658830939395361,0.025066599370968508,0.001297712252491614,200000,8",
        "kappa,16.0,148.75620325296651,4.217673824215129,8.575583791951276,"
        "0.3897562511679328,3.6499695396242418,0.14472269856014222,4.925614252327033,"
        "0.362139558961351,0.057648579383060186,0.003088128584296451,0.02453658711238621,"
        "0.0011960275120438829,0.03311199227067397,0.0026092018007116634,200000,8",
    ],
    (("--E", "4:16:log:4"), "qmc"): [
        "E,4.0,0.07099090164110004,0.0003294396492602916,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,"
        "0.0,0.0,0.0,200000,8",
        "E,6.3496042078727974,10.974852927732751,0.016765858248983953,1.4276160169248258,"
        "0.002611375513825514,0.8117594616457059,0.0029586585713264565,0.6158565552791196,"
        "0.0039837458286408,0.13008065131491023,0.0003100089995889779,0.07396540682512853,"
        "0.0002923078454248484,0.05611524448978168,0.0003729738195854817,200000,8",
        "E,10.079368399158986,144.4674449143846,0.23336155423860563,29.345781431644287,"
        "0.02512786402706573,19.264382715509495,0.027033081163093116,10.081398716134794,"
        "0.041177488001023825,0.20313075689152948,0.00037137186789769306,0.1333475699450911,"
        "0.0002853272576767697,0.06978318694643841,0.00030650965117778986,200000,8",
        "E,16.0,832.3363950958735,2.391796996380742,179.2556867088424,0.1505410258439567,"
        "124.9073159691776,0.22281077771509045,54.34837073966481,0.33597866932905895,"
        "0.21536447014093943,0.0006447577414328489,0.15006830976649774,0.0005075663744290233,"
        "0.06529616037444168,0.00044513592344612224,200000,8",
    ],
    (("--E", "4:16:log:4"), "pseudo"): [
        "E,4.0,0.07172499188304603,0.0010163492611005571,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,"
        "0.0,0.0,0.0,200000,8",
        "E,6.3496042078727974,10.917708834622196,0.07364002457958088,1.419839868716753,"
        "0.015069399765488233,0.8015782320272298,0.0116711213939058,0.6182616366895233,"
        "0.009789157786902147,0.13004925211177662,0.001635420136288005,0.07342000452377591,"
        "0.0011781426371040168,0.05662924758800073,0.0009745996259050045,200000,8",
        "E,10.079368399158986,144.78851935623496,0.6973283749306896,29.11124494445041,"
        "0.17928937084304877,19.30112724270546,0.1353128254630531,9.81011770174495,"
        "0.12541367760391364,0.20106045060676148,0.0015719539774867151,0.13330564694302405,"
        "0.001133838032329369,0.06775480366373746,0.00092561407261734,200000,8",
        "E,16.0,834.3662609398315,4.929557131910408,179.86304734513507,0.9818964512600442,"
        "123.61922225467063,0.6348164269881424,56.24382509046444,0.7941393277056743,"
        "0.21556845688191784,0.0017340646611947188,0.1481594211580724,0.0011597868162670278,"
        "0.06740903572384543,0.00103175203155626,200000,8",
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
