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
    assert fields[9:13] == ["20000", "77", "2", "pseudo"]
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


# the data row of each benchmark workload at 200k samples and seed 1, recorded
# when c and d were first drawn on the classical slice; a kernel speed-up must
# keep these bytes
_PINNED_ROWS = {
    ("--set", "entangled", "--kappa", "5"):
        "entangled,adj,kappa,5.0,4,0.30792443751505333,0.010900892475236009,0.047965,0,200000,"
        "1,4,pseudo,0.0,6.324555320336758,0.0,6.324555320336758,-6.324555320336758,"
        "6.324555320336758,-6.324555320336758,6.324555320336758",
    ("--set", "separable", "--E", "8"):
        "separable,energy,E,8.0,4,5.320990753223119,0.07710493086603686,0.023835,0,200000,1,4,"
        "pseudo,0.0,4.0,0.0,4.0,-2.0,2.0,-2.0,2.0",
}


@pytest.mark.parametrize("flags", sorted(_PINNED_ROWS), ids=lambda flags: flags[1])
def test_volume_benchmark_rows_pinned(flags, capsys):
    assert main(["volume", *flags, "--samples", "200000", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == VOLUME_HEADER
    assert lines[2:] == [_PINNED_ROWS[flags]]


# one stream of 400k samples runs 7 tiles, so these rows cover a stream whose
# labelling and sums span several tiles; recorded with the slice draw, like
# the rows above
_PINNED_MULTI_TILE_ROWS = {
    ("--set", "quantum", "--kappa", "5"):
        "quantum,adj,kappa,5.0,4,0.4675754138882343,0.008295633642229258,0.4691,0,400000,1,1,"
        "pseudo,0.0,6.324555320336758,0.0,6.324555320336758,-6.324555320336758,"
        "6.324555320336758,-6.324555320336758,6.324555320336758",
    ("--set", "classical", "--E", "8"):
        "classical,energy,E,8.0,4,46.96024098709306,0.17550442441542016,0.5015025,0,400000,1,1,"
        "pseudo,0.0,4.0,0.0,4.0,-2.0,2.0,-2.0,2.0",
}


@pytest.mark.parametrize("flags", sorted(_PINNED_MULTI_TILE_ROWS), ids=lambda flags: flags[1])
def test_volume_multi_tile_rows_pinned(flags, capsys):
    argv = ["volume", *flags, "--streams", "1", "--samples", "400000", "--seed", "1"]
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
    # entangled points lie in phi_box(4.05) but none inside tr V <= 4.05, so
    # the run must report an empty domain, not the share that passed the box
    code = main(["volume", "--set", "entangled", "--E", "4.05", "--samples", "100000",
                 "--seed", "3"])
    assert code == 0
    fields = capsys.readouterr().out.splitlines()[2].split(",")
    assert float(fields[5]) == 0.0
    assert float(fields[7]) == 0.0
    assert fields[8] == "1"


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


def test_config_round_trip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    argv = ["volume", "--E", "6", "--samples", "20000", "--seed", "11", "--streams", "2"]
    assert main(argv + ["--write-config", str(cfg)]) == 0
    first = capsys.readouterr().out
    text = cfg.read_text(encoding="utf-8")
    assert text.startswith("# gaussvol config v1\n")
    assert "seed = 11" in text
    assert main(["volume", "--config", str(cfg)]) == 0
    second = capsys.readouterr().out
    assert first == second


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


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples 20000\n", encoding="utf-8")
    assert main(["volume", "--E", "6", "--config", str(cfg)]) == 2
    assert "key = value" in capsys.readouterr().err


def test_config_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = many\n", encoding="utf-8")
    assert main(["volume", "--E", "6", "--config", str(cfg)]) == 2
    assert "bad value" in capsys.readouterr().err


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
