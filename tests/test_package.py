"""The lazy package namespace, what a CLI run loads, and its one-thread BLAS default."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussvol

ROOT = Path(__file__).resolve().parent.parent
BLAS_VAR = "OPENBLAS_NUM_THREADS"


def run_child(code, **env_overrides):
    """Run ``code`` in a fresh interpreter without BLAS_VAR, plus ``env_overrides``."""
    env = {k: v for k, v in os.environ.items() if k != BLAS_VAR}
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# ---------------------------------------------------------------- lazy names


def test_import_loads_no_numpy():
    loaded = run_child("import sys, gaussvol; print('numpy' in sys.modules, 'scipy' in sys.modules)")
    assert loaded == ["False", "False"]


def test_every_exported_name_is_its_submodules_object():
    exported = {name for names in gaussvol._EXPORTS.values() for name in names}
    assert exported | {"__version__"} == set(gaussvol.__all__)
    for module, names in gaussvol._EXPORTS.items():
        sub = importlib.import_module(f"gaussvol.{module}")
        for name in names:
            assert getattr(gaussvol, name) is getattr(sub, name), name
    assert isinstance(gaussvol.__version__, str)


def test_dir_lists_all():
    assert set(gaussvol.__all__) <= set(dir(gaussvol))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gaussvol.no_such_name  # noqa: B018


def test_private_submodule_still_imports():
    from gaussvol import _quad

    assert _quad.__name__ == "gaussvol._quad"


# ---------------------------------------------------------------- what a run loads

# modules that no volume or sweep run uses
_UNUSED_BY_RUNS = ("gaussvol.states", "gaussvol.metric", "concurrent.futures", "logging")
# and what a pseudo run does not use either: scipy, which only --sampler qmc
# needs, takes most of a second to import
_UNUSED_BY_PSEUDO_RUNS = (*_UNUSED_BY_RUNS, "numpy.polynomial", "scipy")


def _loaded(code, names):
    """Which of ``names`` are in sys.modules after ``code`` runs in a fresh interpreter."""
    return run_child(f"import sys; {code}; print(*[n for n in {names!r} if n in sys.modules])")


def test_parser_loads_only_the_volume_path():
    assert _loaded("import gaussvol.cli as cli; cli.build_parser()", _UNUSED_BY_RUNS) == []


def test_volume_run_loads_only_the_volume_path():
    argv = ["volume", "--set", "entangled", "--kappa", "5", "--samples", "10000", "--seed", "1",
            "--out", os.devnull]
    code = f"import gaussvol.cli as cli; assert cli.main({argv!r}) == 0"
    assert _loaded(code, _UNUSED_BY_PSEUDO_RUNS) == []


def test_energy_sweep_loads_only_the_volume_path():
    argv = ["sweep", "--E", "4,8", "--samples", "10000", "--seed", "1", "--out", os.devnull]
    code = f"import gaussvol.cli as cli; assert cli.main({argv!r}) == 0"
    assert _loaded(code, _UNUSED_BY_PSEUDO_RUNS) == []


# ---------------------------------------------------------------- BLAS default

_THREADS = (
    "import os, scipy.linalg; "
    "task = '/proc/self/task'; "
    "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
    "len(os.listdir(task)) if os.path.isdir(task) else 'skip')"
)


def test_entry_point_defaults_blas_to_one_thread():
    value, threads = run_child("import gaussvol.__main__; " + _THREADS)
    assert value == "1"
    if threads == "skip":
        pytest.skip("no /proc/self/task to count threads")
    assert threads == "1"


def test_entry_point_keeps_the_users_setting():
    value, _ = run_child("import gaussvol.__main__; " + _THREADS, **{BLAS_VAR: "2"})
    assert value == "2"


def test_cli_import_sets_nothing():
    assert run_child("import os, gaussvol.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))") \
        == ["None"]


def test_installed_script_gets_the_default():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gaussvol"]
    module, _, attr = target.partition(":")
    out = run_child(
        f"import importlib, os; main = getattr(importlib.import_module({module!r}), {attr!r}); "
        "import gaussvol.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'), main is gaussvol.cli.main)"
    )
    assert out == ["1", "True"]
