"""What importing the package loads: the CLI, config loading and certify
need neither numpy nor scipy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermodelay
from thermodelay.cli import main

SRC = str(Path(thermodelay.__file__).resolve().parents[1])

# the names `thermodelay/__init__` imported eagerly, by defining module
EAGER_EXPORTS = {
    "constants": ["LyapunovConstants", "certify", "check_conditions", "find_beta0",
                  "lyapunov_constants", "n0_from_constants"],
    "delay": ["HistoryBuffer", "init_history"],
    "discretization": ["Grid", "State", "assemble_generator", "build_operators"],
    "integrate": ["expm_oracle", "factor_implicit", "simulate", "step_imex"],
    "observables": ["Trajectory", "check_decay_inequality", "decay_rate_fit",
                    "energy", "lyapunov_components"],
    "params": ["PhysParams"],
    "spectral": ["dissipativity_test", "spectral_abscissa", "spectrum_dense"],
}

# names moved to thermodelay.grid, still importable from their old modules
MOVED = {
    "discretization": ["Grid", "grad_u", "DenseSizeError"],
    "integrate": ["Grid", "grad_u", "step_count", "MAX_STEPS", "MAX_RECORDS",
                  "DenseSizeError", "NumericalBlowupError"],
}


# numpy = None in sys.modules makes any import of numpy (and so of scipy)
# raise ImportError
MAIN_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                      "from thermodelay.cli import main; sys.exit(main(sys.argv[1:]))")


def _python(code, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_cli_loads_no_scipy():
    proc = _python("import sys, json, thermodelay.cli; print(json.dumps(sorted("
                   "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_importing_the_cli_and_loading_a_config_loads_no_numpy():
    proc = _python("import sys, json, thermodelay.cli; "
                   "from thermodelay.config import load_config; "
                   "load_config(sys.argv[1]); print(json.dumps(sorted("
                   "m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))))",
                   os.devnull)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_exported_name_is_the_object_of_its_defining_module():
    names = {name for names in EAGER_EXPORTS.values() for name in names}
    assert set(thermodelay.__all__) == names
    assert names | set(EAGER_EXPORTS) <= set(dir(thermodelay))
    for module, exported in EAGER_EXPORTS.items():
        assert getattr(thermodelay, module) is importlib.import_module(
            f"thermodelay.{module}")
        for name in exported:
            obj = getattr(thermodelay, name)
            home = sys.modules[obj.__module__]
            assert obj is getattr(home, obj.__qualname__), name
            assert obj is getattr(importlib.import_module(f"thermodelay.{module}"), name)
    with pytest.raises(AttributeError):
        thermodelay.no_such_name


def test_moved_names_keep_their_old_import_paths():
    grid = importlib.import_module("thermodelay.grid")
    for module, moved in MOVED.items():
        old = importlib.import_module(f"thermodelay.{module}")
        for name in moved:
            assert getattr(old, name) is getattr(grid, name), (module, name)


@pytest.mark.parametrize("overrides", [["--override", "model.beta=4.5"], []],
                         ids=["beta-given", "beta0-search"])
def test_certify_without_scipy_writes_the_same_bytes(tmp_path, capsys, overrides):
    # scipy = None in sys.modules makes any import of scipy raise ImportError
    args = ["certify", "--config", os.devnull] + overrides
    code = main(args + ["--out", str(tmp_path / "with")])
    stdout = capsys.readouterr().out
    proc = _python("import sys; sys.modules['scipy'] = None; "
                   "from thermodelay.cli import main; sys.exit(main(sys.argv[1:]))",
                   *args, "--out", str(tmp_path / "without"))
    assert proc.stderr == ""
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert ((tmp_path / "without" / "summary.json").read_bytes()
            == (tmp_path / "with" / "summary.json").read_bytes())


@pytest.mark.parametrize("overrides", [["--override", "model.beta=4.5"], []],
                         ids=["beta-given", "beta0-search"])
def test_certify_without_numpy_writes_the_same_bytes(tmp_path, capsys, overrides):
    args = ["certify", "--config", os.devnull] + overrides
    code = main(args + ["--out", str(tmp_path / "with")])
    stdout = capsys.readouterr().out
    proc = _python(MAIN_WITHOUT_NUMPY, *args, "--out", str(tmp_path / "without"))
    assert proc.stderr == ""
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert ((tmp_path / "without" / "summary.json").read_bytes()
            == (tmp_path / "with" / "summary.json").read_bytes())


def test_config_error_without_numpy_is_one_line_exit_1(tmp_path):
    proc = _python(MAIN_WITHOUT_NUMPY,
                   "certify", "--config", os.devnull, "--out", str(tmp_path / "bad"),
                   "--override", "lyapunov.lambda_grid=-1e308:1e308:3")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "lyapunov.lambda_grid needs" in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_the_cli_and_certify_load_no_multiprocessing_or_pickle(tmp_path):
    # only a sweep forks helpers, and it pickles their reports
    listed = ("json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('multiprocessing', 'pickle', '_pickle')))")
    proc = _python(f"import sys, json, thermodelay.cli; print({listed}); "
                   f"thermodelay.cli.main(sys.argv[1:]); print({listed})",
                   "certify", "--config", os.devnull, "--out", str(tmp_path / "c"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("beta0 = "), lines
    assert (json.loads(lines[0]), json.loads(lines[-1])) == ([], [])
