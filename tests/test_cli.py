"""End-to-end CLI: exit codes, file formats, determinism."""

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import thermodelay
from thermodelay import cli, spectral
from thermodelay.cli import main
from thermodelay.config import load_config
from thermodelay.grid import Grid
from thermodelay.params import PhysParams

import oracles

BASE = """
[model]
alpha = 1.0
beta = 4.6
tau = 1.0

[grid]
nx = 8
nrho = 8

[time]
t_end = 6.0

[lyapunov]
lambda_grid = 0.5
"""


@pytest.fixture
def cfgfile(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE)
    return str(path)


def _run(args):
    return main(args)


def test_usage_errors(tmp_path, cfgfile):
    assert _run(["simulate", "--config", "/missing.ini",
                 "--out", str(tmp_path)]) == 1
    assert _run(["simulate", "--config", cfgfile, "--out", str(tmp_path / "o"),
                 "--override", "nodot"]) == 1
    assert _run(["bogus", "--config", cfgfile, "--out", str(tmp_path)]) == 1


def test_certify_witness_large_beta(tmp_path, cfgfile):
    out = tmp_path / "cert"
    code = _run(["certify", "--config", cfgfile, "--out", str(out),
                 "--override", "lyapunov.lambda_grid=6",
                 "--override", f"model.beta={math.exp(24.0)}"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["certification"]["certified"] is True


def test_certify_beta_zero_exit_2(tmp_path, cfgfile, capsys):
    out = tmp_path / "cert0"
    code = _run(["certify", "--config", cfgfile, "--out", str(out),
                 "--override", "model.beta=0"])
    assert code == 2
    assert "xi-bound failed" in capsys.readouterr().out


@pytest.mark.parametrize("overrides, built", [
    (["model.beta=4.6"], True),                           # certified
    (["model.beta=4.0"], True),                           # fails eqfond2
    (["model.beta=0"], False),                            # beta <= 0
    (["model.beta=4.6", "lyapunov.lambda_grid=0.05"], False),  # infeasible lambda
    (["model.beta=4.6", "model.alpha=1e300"], False),     # past the float range
])
def test_certify_returns_the_record_summary_json_stores(tmp_path, cfgfile, overrides,
                                                        built):
    out = tmp_path / "rec"
    argv = ["certify", "--config", cfgfile, "--out", str(out)]
    for ov in overrides:
        argv += ["--override", ov]
    _run(argv)
    stored = json.loads((out / "summary.json").read_text())["certification"]
    p, lam = load_config(cfgfile, overrides=overrides).params, stored["lambda"]
    rep = thermodelay.certify(p, lam)
    # compared as JSON text: a failed record's eps4 is NaN
    assert json.dumps(rep, sort_keys=True) == json.dumps(stored["conditions"], sort_keys=True)
    assert rep["verdict"] == all(r["satisfied"] for r in rep["conditions"])
    assert rep["verdict"] == stored["certified"]
    if built:
        consts = thermodelay.lyapunov_constants(p, lam)
        assert thermodelay.check_conditions(consts, p) == rep


def test_certify_threshold_search(tmp_path, cfgfile):
    out = tmp_path / "certb"
    code = _run(["certify", "--config", cfgfile, "--out", str(out),
                 "--override", "model.beta="])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 < summary["beta0"] < 10.0
    assert summary["lambda_star"] == 0.5


def test_simulate_outputs(tmp_path, cfgfile):
    out = tmp_path / "sim"
    assert _run(["simulate", "--config", cfgfile, "--out", str(out)]) == 0
    lines = (out / "traj.csv").read_text().split("\n")
    assert lines[0] == "# schema_version=1"
    header = lines[1].split(",")
    assert header == ["t", "E", "V", "Vtilde", "V1", "V2", "V3", "V4", "V5",
                      "V6", "theta_mass"]
    # full-precision scientific notation with '.' decimal separator
    first = lines[2].split(",")
    assert all("e" in c for c in first[1:])
    assert "," not in first[0] and "." in first[1]

    summary = json.loads((out / "summary.json").read_text())
    assert summary["a0"] > 0.0
    assert summary["r2"] >= 0.99
    assert summary["certification"]["certified"] is True
    assert summary["conservation_drift"] <= 1e-9
    assert summary["non_decaying_energy"] is False


def test_default_neumann_run_keeps_the_theta_mass_exactly(tmp_path):
    # the theta mean is its own Fourier mode and no step touches it, so the
    # recorded mass is one number; the default config at beta = 4.5
    out = tmp_path / "mass"
    assert _run(["simulate", "--config", os.devnull, "--out", str(out),
                 "--override", "model.beta=4.5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["conservation_drift"] == 0.0


def test_simulate_weights_come_from_the_certifying_lambda(tmp_path, cfgfile):
    # lambda = 0.5 has feasible constants but does not certify beta = 0.6;
    # lambda = 0.75 does, so V, Vtilde and n0 are the ones of lambda = 0.75
    model = ["--override", "model.alpha=0.2", "--override", "model.tau=0.1",
             "--override", "model.beta=0.6", "--override", "time.t_end=1"]
    outs = {}
    for lam in ("0.5:3.0:11", "0.75"):
        outs[lam] = tmp_path / f"sim{lam}"
        assert _run(["simulate", "--config", cfgfile, "--out", str(outs[lam]),
                     *model, "--override", f"lyapunov.lambda_grid={lam}"]) == 0
    grid, only = (json.loads((outs[k] / "summary.json").read_text())
                  for k in ("0.5:3.0:11", "0.75"))
    assert grid["certification"]["certified"] is True
    assert grid["certification"]["lambda"] == 0.75
    assert grid["n0"] == only["n0"] == pytest.approx(0.03718, rel=1e-3)
    assert ((outs["0.5:3.0:11"] / "traj.csv").read_bytes()
            == (outs["0.75"] / "traj.csv").read_bytes())


def test_simulate_beta_zero_flags_growth(tmp_path, cfgfile):
    out = tmp_path / "sim0"
    code = _run(["simulate", "--config", cfgfile, "--out", str(out),
                 "--override", "model.beta=0",
                 "--override", "time.t_end=20"])
    assert code in (0, 3)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["non_decaying_energy"] is True


def test_sweep_crossing_and_determinism(tmp_path, cfgfile):
    cfg2 = tmp_path / "sweep.ini"
    cfg2.write_text(BASE + "\n[sweep]\nbeta = 3.0:6.0:4\nworkers = 2\n")
    out1, out2 = tmp_path / "sw1", tmp_path / "sw2"
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out1)]) == 0
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out2)]) == 0
    data1 = (out1 / "sweep.csv").read_bytes()
    assert data1 == (out2 / "sweep.csv").read_bytes()
    rows = data1.decode().strip().split("\n")[2:]
    certified = [r.split(",")[2] for r in rows]
    flips = sum(1 for a, b in zip(certified, certified[1:]) if a != b)
    assert flips == 1 and certified[0] == "false" and certified[-1] == "true"


# Runs `main` with every _sweep_point logged (its value and whether the main
# process ran it) and announced by a warning of its own.  argv[1] = "one"
# pins the process to one CPU first, "all" leaves it on every CPU, "two"
# gives it two usable CPUs and "nofork" two without os.fork.  Exit code 99
# means a sweep helper outlived `main`.
SWEEP_MAIN = """
import os, sys, warnings
from thermodelay import cli

cpus, log = sys.argv[1], open(sys.argv[2], "a")
if cpus == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
elif cpus in ("two", "nofork"):
    cli._usable_cpus = lambda: 2
    if cpus == "nofork":
        del os.fork
main_pid, point = os.getpid(), cli._sweep_point

def logged(cfg, name, value, want_spectrum):
    log.write(f"{value} {os.getpid() == main_pid}\\n")
    log.flush()
    warnings.warn(f"point {value}")
    return point(cfg, name, value, want_spectrum)

cli._sweep_point = logged
code = cli.main(sys.argv[3:])
try:
    os.waitpid(-1, os.WNOHANG)
    code = 99
except ChildProcessError:       # no child is left
    pass
sys.exit(code)
"""


def _sweep_main_runs(tmp_path, modes):
    """Exit code, stdout, stderr, sweep.csv and summary.json, and the sorted
    point log, of SWEEP_MAIN per mode, sweeping tau over 6, 3 and 4.5.

    tau = 4.5 is off the step grid of t_end = 6: a row error.  f0 = zero
    differs from u0_x, so the history warns at the other points, by the
    same text: shown once.  sweep.workers is accepted and changes nothing.
    """
    cfg2 = tmp_path / "sweep.ini"
    cfg2.write_text(BASE + "\n[init]\nf0 = zero\n"
                    "[sweep]\ntau = 6.0,3.0,4.5\nworkers = 1\n")
    src = str(Path(thermodelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs, logs = {}, {}
    for cpus in modes:
        out, log = tmp_path / cpus, tmp_path / f"{cpus}.log"
        proc = subprocess.run([sys.executable, "-c", SWEEP_MAIN, cpus, str(log),
                               "sweep", "--config", str(cfg2), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        runs[cpus] = (proc.returncode, proc.stdout, proc.stderr,
                      (out / "sweep.csv").read_bytes(),
                      (out / "summary.json").read_bytes())
        logs[cpus] = sorted(log.read_text().splitlines())
    return runs, logs


@pytest.mark.skipif(cli._usable_cpus() < 2 or not hasattr(os, "fork"),
                    reason="a sweep forks helpers only on two or more CPUs")
def test_sweep_on_every_cpu_writes_what_one_cpu_writes(tmp_path, cfgfile):
    runs, logs = _sweep_main_runs(tmp_path, ("one", "all"))
    assert runs["one"] == runs["all"]
    code, _, err, csv_bytes, _ = runs["all"]
    assert code == 0
    assert [r.split(",")[-1] for r in csv_bytes.decode().split("\n")[2:-1]] == [
        "", "", "ValueError"]
    assert [line.split(": ", 2)[-1] for line in err.split("\n")
            if "UserWarning" in line] == [
        "point 6.0", "history datum at s=0 differs from u0_x by 3.078e+00; "
        "keeping the supplied history", "point 3.0", "point 4.5"]
    # the main process ran 6 and 4.5, a helper 3, and one CPU ran all three
    assert logs == {"one": ["3.0 True", "4.5 True", "6.0 True"],
                    "all": ["3.0 False", "4.5 True", "6.0 True"]}


@pytest.mark.skipif(not hasattr(os, "fork"),
                    reason="compared with a sweep that forks a helper")
def test_sweep_without_fork_runs_every_point_in_the_command(tmp_path):
    # without os.fork two usable CPUs fork nothing: the command runs every
    # point itself and writes, prints and returns what a two-CPU run does
    runs, logs = _sweep_main_runs(tmp_path, ("two", "nofork"))
    assert runs["nofork"] == runs["two"]
    assert runs["two"][0] == 0 and runs["two"][2].count("UserWarning") == 4
    assert logs == {"two": ["3.0 False", "4.5 True", "6.0 True"],
                    "nofork": ["3.0 True", "4.5 True", "6.0 True"]}


def _sweep_with_failures(tmp_path, monkeypatch, capsys, cpus, fail):
    """main's exit code, stdout and stderr for a sweep over beta = 6, 3, 4.5 on
    `cpus` CPUs, whose point at value v raises fail[v] (a callable) instead
    of running; afterwards no child may be left."""
    point = cli._sweep_point

    def failing(cfg, name, value, want_spectrum):
        if value in fail:
            fail[value]()
        return point(cfg, name, value, want_spectrum)

    monkeypatch.setattr(cli, "_sweep_point", failing)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    cfg2 = tmp_path / "sweep.ini"
    cfg2.write_text(BASE + "\n[sweep]\nbeta = 6.0,3.0,4.5\n")
    capsys.readouterr()
    code = _run(["sweep", "--config", str(cfg2), "--out", str(tmp_path / f"sw{cpus}")])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, *capsys.readouterr()


def _raise(exc):
    def go():
        raise exc
    return go


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("fail,code", [
    # the helper runs 3, the main process 6 and 4.5
    ({3.0: _raise(OSError("disk full"))}, 1),
    ({6.0: _raise(FloatingPointError("overflow"))}, 3),
    # on one CPU the points run in order: 3 stops the sweep, 4.5 is never reached
    ({3.0: _raise(FloatingPointError("overflow")), 4.5: _raise(OSError("disk full"))}, 3),
    ({3.0: _raise(OSError("disk full")), 6.0: _raise(FloatingPointError("overflow"))}, 3),
], ids=["helper", "caller", "helper-first", "caller-first"])
def test_sweep_on_two_cpus_raises_what_one_cpu_raises(tmp_path, monkeypatch, capsys,
                                                      fail, code):
    one_cpu = _sweep_with_failures(tmp_path, monkeypatch, capsys, 1, fail)
    forked = _sweep_with_failures(tmp_path, monkeypatch, capsys, 2, fail)
    assert forked == one_cpu
    assert forked[0] == code and forked[2].count("\n") == 1, forked


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("end,message", [
    (lambda: os._exit(7), "exited with 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
])
def test_sweep_helper_that_dies_is_one_line_exit_1(tmp_path, monkeypatch, capsys,
                                                   end, message):
    main_pid = os.getpid()

    def die():      # only ever in the helper, which runs beta = 3
        if os.getpid() != main_pid:
            end()

    code, out, err = _sweep_with_failures(tmp_path, monkeypatch, capsys, 2, {3.0: die})
    assert (code, out) == (1, "")
    assert err == (f"sweep failed: the sweep helper for beta = 3.0 {message} "
                   "without reporting\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_sweep_helper_is_killed_when_the_main_process_fails(tmp_path, monkeypatch,
                                                            capsys):
    main_pid = os.getpid()

    def stall():
        if os.getpid() != main_pid:
            time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _sweep_with_failures(tmp_path, monkeypatch, capsys, 2,
                             {3.0: stall, 6.0: _raise(KeyboardInterrupt())})
    assert time.perf_counter() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_single_point_matches_simulate(tmp_path, cfgfile):
    # ell also sets the grid spacing, so the swept point must rebuild the grid
    for name, value in (("beta", 4.6), ("ell", 2.0)):
        cfg2 = tmp_path / f"sweep_{name}.ini"
        cfg2.write_text(BASE + f"\n[sweep]\n{name} = {value}\n")
        outs, outw = tmp_path / f"sim_{name}", tmp_path / f"sw_{name}"
        assert _run(["simulate", "--config", cfgfile, "--out", str(outs),
                     "--override", f"model.{name}={value}"]) == 0
        assert _run(["sweep", "--config", str(cfg2), "--out", str(outw)]) == 0
        summary = json.loads((outs / "summary.json").read_text())
        row = (outw / "sweep.csv").read_text().strip().split("\n")[2].split(",")
        assert row[0] == name and float(row[1]) == value
        assert float(row[3]) == pytest.approx(summary["a0"], rel=1e-12)
        assert float(row[5]) == pytest.approx(summary["final_E"], rel=1e-12)


# (command, space-separated overrides); a simulate case's id is its overrides.
# time.theta_weight, lyapunov.xi_factor and output.* are refused as unknown
BAD_CONFIGS = [("simulate", o) for o in [
    "time.record_every=0", "time.t_end=-1", "time.theta_weight=0.2",
    "init.u0=sine:x", "init.u0=bump:7", "sweep.foo=1:2:3", "sweep.workers=0",
    "time.dt=0.01", "time.delay_mode=ring", "plot.style=dark",
    "lyapunov.lambda=0.5", "lyapunov.lambda_grid=-1", "lyapunov.xi_factor=0",
    "output.fit_start_fraction=2",
    "time.t_end=0.3", "model.alpha=0", "model.gamma=0", "model.kappa=0",
    "lyapunov.xi_factor=inf",
]] + [
    ("certify", "model.beta=5 lyapunov.lambda_grid=0.5:3:0"),
] + [("sweep", o) for o in [
    "sweep.beta=4.5:inf:3", "sweep.beta=1:2:0", "sweep.beta=1:2:-1",
    "sweep.beta=1,nan",
]]


@pytest.mark.parametrize(
    "command, overrides", BAD_CONFIGS,
    ids=[o if c == "simulate" else f"{c} {o}" for c, o in BAD_CONFIGS])
def test_bad_config_is_one_line_exit_1(tmp_path, cfgfile, capsys, command,
                                       overrides):
    args = [command, "--config", cfgfile, "--out", str(tmp_path / "bad")]
    for o in overrides.split():
        args += ["--override", o]
    code = _run(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and err.count("\n") == 1, err
    if command == "sweep":      # the message names the bad range
        assert "sweep.beta" in err, err


@pytest.mark.parametrize("name,rule", [("beta", "finite and nonnegative"),
                                       ("gamma", "finite and nonnegative"),
                                       ("tau", "finite and strictly positive"),
                                       ("ell", "finite and strictly positive")])
def test_an_infinite_parameter_is_refused_as_not_finite(tmp_path, cfgfile, capsys,
                                                         name, rule):
    # inf breaks no sign rule, so the message names the finiteness it lacks
    code = _run(["simulate", "--config", cfgfile, "--out", str(tmp_path / "bad"),
                 "--override", f"model.{name}=inf"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"config error: bad config value: {name} must be {rule}, got inf\n", err


@pytest.mark.parametrize("command, override, key", [
    ("simulate", "time.t_end=1e300", "time.t_end"),     # 8e300 steps
    ("simulate", "time.t_end=200000", "time.t_end"),    # 1.6e6 records
    ("sweep", "sweep.beta=1:2:3000000", "sweep.beta"),
    ("certify", "lyapunov.lambda_grid=0.5:3:5000", "lyapunov.lambda_grid"),
])
def test_run_size_limit_is_one_line_exit_1(tmp_path, cfgfile, capsys, command,
                                           override, key):
    code = _run([command, "--config", cfgfile, "--out", str(tmp_path / "big"),
                 "--override", "model.beta=", "--override", override])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert key in err, err


def test_spectrum_needs_no_lyapunov_constants(tmp_path, cfgfile):
    # gamma = 0 and an empty lambda grid rule out the constants, not a spectrum
    assert _run(["spectrum", "--config", cfgfile, "--out", str(tmp_path / "s"),
                 "--override", "model.gamma=0",
                 "--override", "lyapunov.lambda_grid="]) == 0


NO_LAMBDA = ["lyapunov.lambda_grid="]
LOW_LAMBDAS = ["lyapunov.lambda_grid=0.1,0.2"]   # below the feasible 0.4516...
EMPTY = "config error: lyapunov.lambda_grid is empty\n"


@pytest.mark.parametrize("command, overrides, code, err", [
    ("certify", NO_LAMBDA, 1, EMPTY),
    ("certify", NO_LAMBDA + ["model.beta=5"], 1, EMPTY),
    ("simulate", NO_LAMBDA, 1, EMPTY),
    ("simulate", LOW_LAMBDAS, 1, "config error: no feasible lambda for the "
     "functional weights; extend lyapunov.lambda_grid\n"),
    ("certify", LOW_LAMBDAS, 2, "certification failed: no feasible lambda on "
     "the grid\n"),
])
def test_a_lambda_list_without_a_feasible_lambda_is_one_line(tmp_path, capsys, command,
                                                             overrides, code, err):
    args = [a for o in overrides for a in ("--override", o)]
    assert _run([command, "--config", os.devnull, "--out", str(tmp_path / "o"),
                 *args]) == code
    assert capsys.readouterr() == ("", err)


def test_sweep_points_without_a_feasible_lambda_are_row_errors(tmp_path):
    out = tmp_path / "sw"
    args = [a for o in LOW_LAMBDAS + ["grid.nx=8", "grid.nrho=8", "sweep.beta=4.5,5"]
            for a in ("--override", o)]
    assert _run(["sweep", "--config", os.devnull, "--out", str(out), *args]) == 0
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]
    assert [(r[2], r[-1]) for r in rows] == [("false", "ConfigError")] * 2


def test_simulate_from_the_bump_preset(tmp_path):
    args = [a for o in ["init.u0=bump", "model.beta=4.5", "grid.nx=8", "grid.nrho=8",
                        "time.t_end=2"] for a in ("--override", o)]
    assert _run(["simulate", "--config", os.devnull, "--out", str(tmp_path / "b"),
                 *args]) == 0


def test_only_the_commands_that_step_need_t_end_on_the_step_grid(tmp_path, capsys):
    # the default t_end = 40 is 1066.7 steps of tau/nrho = 0.3/8: certify and
    # spectrum take no step and run; simulate refuses it in one line
    args = ["--config", os.devnull, "--override", "model.tau=0.3",
            "--override", "grid.nx=8", "--override", "grid.nrho=8"]
    assert _run(["certify", *args, "--out", str(tmp_path / "c")]) == 0
    assert "beta0" in json.loads((tmp_path / "c" / "summary.json").read_text())
    assert _run(["spectrum", *args, "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert _run(["simulate", *args, "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == ("config error: time.t_end = 40.0 is not a "
                                       "multiple of the step tau/Nrho = 0.0375\n")


def test_a_swept_tau_is_not_checked_at_the_base_tau(tmp_path, capsys):
    # t_end = 40 is off the step grid of the base tau = 0.3 but on those of
    # the swept tau = 1 and 0.5: the sweep runs both points; sweeping beta
    # steps at the base tau, which is refused in one line
    args = ["--config", os.devnull, "--override", "model.beta=4.5",
            "--override", "model.tau=0.3", "--override", "grid.nx=8",
            "--override", "grid.nrho=8"]
    out = tmp_path / "tau"
    assert _run(["sweep", *args, "--override", "sweep.tau=1,0.5", "--out", str(out)]) == 0
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]
    assert [(r[0], float(r[1]), r[-1]) for r in rows] == [("tau", 1.0, ""), ("tau", 0.5, "")]
    assert json.loads((out / "summary.json").read_text())["failed_points"] == 0
    capsys.readouterr()
    assert _run(["sweep", *args, "--override", "sweep.beta=1,0.5",
                 "--out", str(tmp_path / "beta")]) == 1
    assert capsys.readouterr().err == ("config error: time.t_end = 40.0 is not a "
                                       "multiple of the step tau/Nrho = 0.0375\n")


def test_sweep_point_off_the_step_grid_is_a_row_error(tmp_path, cfgfile):
    # t_end = 6 is 48 steps of tau/nrho at tau = 1, but not a whole number at 0.7
    cfg2 = tmp_path / "sweep_tau.ini"
    cfg2.write_text(BASE + "\n[sweep]\ntau = 1.0,0.7\n")
    out = tmp_path / "sw_tau"
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out)]) == 0
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]
    assert [r[-1] for r in rows] == ["", "ValueError"]
    assert json.loads((out / "summary.json").read_text())["failed_points"] == 1


def test_abscissa_that_shift_invert_contradicts_is_refused(tmp_path, cfgfile):
    # the even parity block falls back to QR, whose rightmost eigenvalue +1.708
    # has no Ritz value within its rounding error 0.40; shift-invert at it finds
    # -0.0384 and -2.236, and a 60-digit eigensolve gives the abscissa
    # -0.038384388433287654.  It was written as growth.
    ell, beta = 7.265097614332945e-06, 27.07840418942574
    p = PhysParams(alpha=1.0, beta=beta, gamma=1.0, kappa=1.0, tau=1.0, ell=ell,
                   theta_bc="dirichlet")
    with pytest.raises(FloatingPointError, match="shift-invert finds no eigenvalue"):
        spectral.spectral_abscissa(Grid(Nx=6, Nrho=3, ell=ell), p)
    cfg2 = tmp_path / "sweep_ell.ini"
    cfg2.write_text(BASE + f"\n[sweep]\nbeta = {beta!r}\nspectrum = true\n")
    out = tmp_path / "sw_ell"
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out),
                 "--override", "model.theta_bc=dirichlet", "--override", f"model.ell={ell!r}",
                 "--override", "grid.nx=6", "--override", "grid.nrho=3"]) == 0
    row = (out / "sweep.csv").read_text().strip().split("\n")[2].split(",")
    assert (row[2], row[6], row[7]) == ("true", "", "FloatingPointError")


# beta = 4.5, 8x8: the rightmost 60-digit eigenvalues (mpmath.eig) of every
# block; the even parity block holds the Dirichlet ones.  QR's rightmost
# real part, +8.461e-10 (Dirichlet, gamma = 1e6), +6.205e-9 (Neumann, 1e7)
# and +4.290e-9 (Dirichlet, 1e7), lies within the rounding error
# n eps ||B||_1 of its block B, so spectrum exited 3 there and at Dirichlet
# 1e5; inverse iteration wrote the Dirichlet 1e4 value 2.8e-8 and the
# Neumann 1e6 value 4.9e-5 off.  At Dirichlet 1e5, 1e6 and 1e7 the even
# block's count failed on QR's poles and shift-invert wrote its value up to
# 1.7e-10 off; counted on poles polished where QR cannot place them, every
# Dirichlet value is within 1e-12
LARGE_GAMMA = [
    ("neumann", "1e4", -9.769791994274596e-08, 1e-10),
    ("neumann", "1e5", -9.7697953982987e-10, 1e-10),
    ("neumann", "1e6", -9.769795432339e-12, 1e-10),
    ("neumann", "1e7", -9.7697954326794e-14, 1e-10),
    ("dirichlet", "1e4", -3.790074888997368e-07, 1e-12),
    ("dirichlet", "1e5", -3.7900799701477302e-09, 1e-12),
    ("dirichlet", "1e6", -3.7900800209593083e-11, 1e-12),
    ("dirichlet", "1e7", -3.7900800214674234e-13, 1e-12),
]


@pytest.mark.parametrize("overrides, abscissa, rel", [
    pytest.param([f"model.theta_bc={bc}", f"model.gamma={gamma}", "model.beta=4.5",
                  "grid.nx=8", "grid.nrho=8"], ref, rel, id=f"{bc}-{gamma}")
    for bc, gamma, ref, rel in LARGE_GAMMA] + [
    # at ell = 5.5e-30 the odd block's entries reach 2e60: its rightmost QR
    # eigenvalue, 2.7e28, lies far inside its rounding error of 5.2e45, and
    # neither the count nor shift-invert confirms it
    pytest.param(["model.theta_bc=dirichlet", "model.beta=0", "grid.nx=3",
                  "grid.nrho=2", "model.ell=5.477282865432251e-30"], None, None,
                 id="dirichlet-ell-5.5e-30")])
def test_spectrum_refuses_an_abscissa_below_its_rounding_error(tmp_path, capfd, monkeypatch,
                                                               overrides, abscissa, rel):
    # spectrum writes the abscissa of the sweep's rule, from the same
    # function, as its abscissa and row 0; it exits 3 exactly where that
    # rule has no value of known sign.  Where it has one, every Dirichlet
    # count settles: no parity block falls back to shift-invert
    sharpened = []
    sharpen = spectral._sharpened

    def recorded(M, w):
        sharpened.append(M.shape[0])
        return sharpen(M, w)

    monkeypatch.setattr(spectral, "_sharpened", recorded)
    out = tmp_path / "spec"
    code = _run(["spectrum", "--config", os.devnull, "--out", str(out)]
                + [arg for o in overrides for arg in ("--override", o)])
    stdout, err = capfd.readouterr()
    if abscissa is None:
        assert (code, stdout) == (3, "")
        assert err.startswith("numerical failure: the rightmost eigenvalue")
        assert err.count("\n") == 1, err
        return
    assert (code, err, sharpened) == (0, "", [])
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["abscissa"] - abscissa) <= rel * abs(abscissa)
    rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=2)
    assert rows[0, 0] == summary["abscissa"]
    run = load_config(os.devnull, overrides=overrides)
    assert summary["abscissa"] == spectral.spectral_abscissa(run.grid, run.params)[0]
    # a row whose polish is not confirmed keeps its QR eigenvalue (one of
    # them may have given way to row 0)
    w = oracles.reduced_eigvals(run.grid, run.params)[0]
    kept = [z for z, f in zip(w[np.argsort(-w.real)], summary["rightmost_refined"]) if not f]
    listed = [((rows[:, 0] == z.real) & (rows[:, 1] == z.imag)).any() for z in kept]
    assert sum(listed) >= len(kept) - 1


def test_sweep_requires_exactly_one_range(tmp_path, cfgfile):
    assert _run(["sweep", "--config", cfgfile, "--out", str(tmp_path / "x")]) == 1


def test_spectrum_outputs(tmp_path, cfgfile):
    out = tmp_path / "spec"
    assert _run(["spectrum", "--config", cfgfile, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[1] == "re,im"
    vals = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["abscissa"] == pytest.approx(vals[:, 0].max())
    assert summary["abscissa"] < 0.0
    assert summary["rightmost_mode"] == 1
    assert max(summary["rightmost_residuals"]) <= 1e-8
    assert summary["rightmost_refined"] == [True] * 10
    out_d = tmp_path / "spec_d"
    assert _run(["spectrum", "--config", cfgfile, "--out", str(out_d),
                 "--override", "model.theta_bc=dirichlet"]) == 0
    assert json.loads((out_d / "summary.json").read_text())["rightmost_mode"] is None


def test_spectrum_rows_follow_their_values(tmp_path):
    # after row 0 the rows run by real part, then imaginary part, descending,
    # so rows of equal real part (conjugate pairs) are written in an order
    # their values fix; they are the eigenvalues spectrum_dense returns
    out = tmp_path / "spec"
    overrides = ["model.beta=0", "grid.nx=16", "grid.nrho=16"]
    assert _run(["spectrum", "--config", os.devnull, "--out", str(out)]
                + [arg for o in overrides for arg in ("--override", o)]) == 0
    rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=2)
    dre, dim = np.diff(rows[1:, 0]), np.diff(rows[1:, 1])
    assert np.all((dre < 0.0) | ((dre == 0.0) & (dim <= 0.0)))
    assert np.count_nonzero(dre == 0.0) > 10
    run = load_config(os.devnull, overrides=overrides)
    w = spectral.spectrum_dense(run.grid, run.params).eigenvalues
    assert sorted(map(tuple, rows)) == sorted(zip(w.real, w.imag))


def _trap(*args, **kwargs):
    raise AssertionError("an oversized dense path ran")


@pytest.mark.parametrize("command,overrides,module,name", [
    # the even Dirichlet parity block of 80*67 + 1 = 5361 > 5000
    ("spectrum", ["grid.nx=160", "grid.nrho=64", "model.theta_bc=dirichlet"],
     spectral, "sla"),
])
def test_too_large_is_one_line_exit_1(tmp_path, cfgfile, capsys, monkeypatch,
                                      command, overrides, module, name):
    # the trap stands in for the dense work, so nothing oversized runs even
    # if the guard is missing
    monkeypatch.setattr(module, name, _trap)
    args = [command, "--config", cfgfile, "--out", str(tmp_path / "big")]
    for o in overrides:
        args += ["--override", o]
    code = _run(args)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("size error:") and err.count("\n") == 1, err


def test_dirichlet_abscissa_past_the_dense_limit(tmp_path, cfgfile, capsys,
                                                 monkeypatch):
    # at 32x32 the parity blocks have 560 and 561 rows, one mode's block 35
    sweep = tmp_path / "sweep_d.ini"
    sweep.write_text(BASE + "\n[sweep]\nbeta = 4.5,6\nspectrum = true\n")
    d32 = ["--override", "model.theta_bc=dirichlet", "--override", "grid.nx=32",
           "--override", "grid.nrho=32", "--override", "time.t_end=2"]
    ref = tmp_path / "ref"
    assert _run(["sweep", "--config", str(sweep), "--out", str(ref)] + d32) == 0
    monkeypatch.setattr(spectral, "DENSE_MAX_DIM", 100)
    # a counted abscissa still runs and gives the same bytes
    out = tmp_path / "counted"
    assert _run(["sweep", "--config", str(sweep), "--out", str(out)] + d32) == 0
    assert (out / "sweep.csv").read_bytes() == (ref / "sweep.csv").read_bytes()
    # the spectrum lists every eigenvalue, so it stays dense and is refused
    capsys.readouterr()
    assert _run(["spectrum", "--config", cfgfile, "--out",
                 str(tmp_path / "spec")] + d32) == 1
    err = capsys.readouterr().err
    assert err.startswith("size error:") and err.count("\n") == 1, err
    # a count that fails falls back to the dense block, refused per point
    def no_candidates(M, shifts, k=None):
        raise RuntimeError("no candidates")

    monkeypatch.setattr(spectral, "_rightmost_candidates", no_candidates)
    out = tmp_path / "fallback"
    assert _run(["sweep", "--config", str(sweep), "--out", str(out)] + d32) == 0
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]
    assert [(r[6], r[-1]) for r in rows] == [("", "DenseSizeError")] * 2


def test_simulate_has_no_size_limit(tmp_path, cfgfile):
    # the (v, theta) block of 2*4096 + 1 rows, past the old dense cap, is
    # solved per Fourier mode
    out = tmp_path / "wide"
    assert _run(["simulate", "--config", cfgfile, "--out", str(out),
                 "--override", "grid.nx=4096", "--override", "grid.nrho=2"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["a0"] > 0.0 and summary["blowup_time"] is None


@pytest.mark.parametrize("override", [
    "model.kappa=1e308",     # kappa dt g^2 overflows in the implicit block
    "model.beta=1e308",      # the implicit block overflows
    "model.alpha=1e300",     # alpha**2 overflows in the Lyapunov constants
    "model.alpha=1e154",     # xi ~ alpha^2, so the initial energy, overflows
])
def test_numerical_failure_is_one_line_exit_3(tmp_path, cfgfile, capsys, override):
    code = _run(["simulate", "--config", cfgfile, "--out", str(tmp_path / "nf"),
                 "--override", override])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure:") and err.count("\n") == 1, err


def test_blowup_whose_strain_overflows_is_one_line_exit_3(tmp_path, capfd):
    # at beta = 0 the energy overflows at t = 99.625, long before the state
    # does, and the run ends at that first non-finite record.  The strain
    # overflow of the name, g_k u_k of a finite displacement, is test_integrate's
    # test_a_strain_that_overflows_is_pushed_as_inf_silently
    code = _run(["simulate", "--config", os.devnull, "--out", str(tmp_path / "b0"),
                 "--override", "model.beta=0", "--override", "grid.nx=16",
                 "--override", "grid.nrho=16", "--override", "time.t_end=200"])
    out, err = capfd.readouterr()
    assert (code, out, err) == (3, "", "numerical blow-up at t = 99.625\n")
    summary = json.loads((tmp_path / "b0" / "summary.json").read_text())
    assert summary["blowup_time"] == 99.625


@pytest.mark.parametrize("overrides, rows", [
    # the blow-up run above: 1594 of its 3201 rows are written, all finite
    (["model.beta=0", "grid.nx=16", "grid.nrho=16", "time.t_end=200"], 1594),
    # 50 steps, every third recorded and the last one at t_end = 6.25
    (["model.beta=4.5", "grid.nx=8", "grid.nrho=8", "time.t_end=6.25",
      "time.record_every=3"], 18),
])
def test_traj_csv_is_the_trajectory_bit_for_bit(tmp_path, monkeypatch, overrides, rows):
    from thermodelay import integrate

    simulate, runs = integrate.simulate, []

    def recorded(*args, **kwargs):      # the Trajectory the command writes
        runs.append(simulate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(integrate, "simulate", recorded)
    out = tmp_path / "traj"
    args = [a for o in overrides for a in ("--override", o)]
    code = _run(["simulate", "--config", os.devnull, "--out", str(out), *args])
    (traj,) = runs
    assert code == (3 if traj.blowup_time else 0)
    lines = (out / "traj.csv").read_text().split("\n")
    assert lines[-1] == ""
    written = np.array([[float(c) for c in line.split(",")] for line in lines[2:-1]])
    want = np.column_stack([traj.times, traj.E, traj.V, traj.Vtilde,
                            *traj.V_terms, traj.theta_mass])
    assert written.shape == want.shape == (rows, 11)
    # every number keeps its bits; a NaN would be written as "nan", which
    # keeps neither its sign nor its payload
    nan = np.isnan(want)
    assert (np.isnan(written) == nan).all()
    assert written[~nan].tobytes() == want[~nan].tobytes()
    assert traj.times[-1] == (99.5625 if traj.blowup_time else 6.25)


def test_history_datum_overflow_is_one_line_exit_3(tmp_path, capfd):
    # e^{-800 s} on s in [-tau, 0] overflows while the history is sampled
    code = _run(["simulate", "--config", os.devnull, "--out", str(tmp_path / "h"),
                 "--override", "grid.nx=8", "--override", "grid.nrho=4",
                 "--override", "time.t_end=1", "--override", "model.beta=4.5",
                 "--override", "init.f0=decaying_exponential:-800"])
    out, err = capfd.readouterr()
    assert (code, out) == (3, "")
    assert err == "numerical failure: history datum f0 overflows: math range error\n"


def test_sweep_point_with_overflowing_history_is_a_row_error(tmp_path, cfgfile):
    cfg2 = tmp_path / "sweep_f0.ini"
    cfg2.write_text(BASE + "\n[sweep]\nbeta = 4.5\n[init]\nf0 = decaying_exponential:-800\n")
    out = tmp_path / "sw_f0"
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out)]) == 0
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]
    assert [r[-1] for r in rows] == ["FloatingPointError"]


def test_linalg_error_in_a_command_is_one_line_exit_3(tmp_path, cfgfile, capsys,
                                                       monkeypatch):
    def fail(cfg, out):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setitem(cli.COMMANDS, "simulate", fail)
    code = _run(["simulate", "--config", cfgfile, "--out", str(tmp_path / "la")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "numerical failure: singular matrix\n"


def test_sweep_point_with_linalg_error_is_a_row_error(tmp_path, cfgfile,
                                                       monkeypatch):
    run_trajectory = cli._run_trajectory

    def fail_at_5(cfg, cert):
        if cfg.params.beta == 5.0:
            raise np.linalg.LinAlgError("singular matrix")
        return run_trajectory(cfg, cert)

    monkeypatch.setattr(cli, "_run_trajectory", fail_at_5)
    cfg2 = tmp_path / "sweep_la.ini"
    cfg2.write_text(BASE + "\n[sweep]\nbeta = 4.6,5\n")
    out = tmp_path / "sw_la"
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out)]) == 0
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]
    assert [r[-1] for r in rows] == ["", "LinAlgError"]
    assert json.loads((out / "summary.json").read_text())["failed_points"] == 1


def test_spectrum_whose_refinement_overflows_writes_no_nan(tmp_path, capfd):
    # at gamma = 1e300 a refinement overflows: inverse iteration printed two
    # RuntimeWarnings and wrote NaN eigenvalues and abscissa with exit 0.  An
    # unconfirmed refinement writes the QR eigenvalue it started from, and
    # rightmost_refined says which rows it is; here the rightmost QR
    # eigenvalue lies within its block's rounding error, so the run exits 3.
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nbeta = 1.0\n")
    out = tmp_path / "spec"
    overrides = ["grid.nx=3", "grid.nrho=6", "model.gamma=1e300"]
    code = _run(["spectrum", "--config", str(cfg), "--out", str(out)]
                + [arg for o in overrides for arg in ("--override", o)])
    err = capfd.readouterr().err
    assert code in (0, 3)
    assert err.count("\n") <= 1, err
    for name in ("spectrum.csv", "summary.json"):
        if (out / name).exists():
            assert "nan" not in (out / name).read_text().lower(), name
    if code == 0:
        run = load_config(str(cfg), overrides=overrides)
        w = oracles.reduced_eigvals(run.grid, run.params)[0]
        w = w[np.argsort(-w.real)]              # the order spectrum_dense refines in
        rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=2)
        summary = json.loads((out / "summary.json").read_text())
        residuals, refined = summary["rightmost_residuals"], summary["rightmost_refined"]
        assert not any(f for r, f in zip(residuals, refined) if r > 1e-8)
        kept = [z for z, f in zip(w, refined) if not f]
        assert kept
        for z in kept:
            assert ((rows[:, 0] == z.real) & (rows[:, 1] == z.imag)).any(), z


@pytest.mark.parametrize("theta_bc", ["neumann", "dirichlet"])
def test_sweep_point_assembles_no_real_space_generator(tmp_path, monkeypatch,
                                                       theta_bc):
    # simulate factors the (v, theta) block from the operators' symbols, the
    # abscissa assembles in Fourier-mode coordinates alone, and spectrum
    # refines on the Fourier-mode blocks: every generator a command
    # assembles is built from the package's Fourier-mode operators.  Each
    # spectral call assembles one generator, with Neumann theta: the
    # Dirichlet parity blocks are cut from it
    from thermodelay import discretization, integrate

    other, modal = [], []
    assemble = discretization.assemble_generator

    def counted(grid, p, ops=None):
        gen = assemble(grid, p, ops)
        fourier = ops is None and isinstance(gen.ops, discretization.Operators)
        (modal if fourier else other).append(p.theta_bc)
        return gen

    for module in (discretization, integrate, spectral):
        # integrate imports none; patched anyway, so an import would count
        monkeypatch.setattr(module, "assemble_generator", counted, raising=False)
    cfg2 = tmp_path / "sweep.ini"
    cfg2.write_text(BASE + "\n[sweep]\nbeta = 4.6\nspectrum = true\n")
    out = tmp_path / "sw"
    bc = ["--override", f"model.theta_bc={theta_bc}"]
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out)] + bc) == 0
    row = (out / "sweep.csv").read_text().strip().split("\n")[2].split(",")
    assert float(row[6]) < 0.0 and row[-1] == ""
    assert _run(["spectrum", "--config", str(cfg2), "--out", str(tmp_path / "sp")]
                + bc) == 0
    assert other == []
    g, p = Grid(Nx=8, Nrho=8), PhysParams(beta=4.6, theta_bc=theta_bc)
    for call in (spectral.spectral_abscissa, spectral.spectrum_dense):
        modal.clear()
        call(g, p)
        assert modal == ["neumann"], call.__name__
    if theta_bc == "dirichlet":
        with pytest.raises(ValueError, match="takes Neumann theta"):
            assemble(g, p)


def test_sweep_point_with_overflowing_block_is_a_row_error(tmp_path, cfgfile):
    cfg2 = tmp_path / "sweep_kappa.ini"
    cfg2.write_text(BASE + "\n[sweep]\nkappa = 1.0,1e308\n")
    out = tmp_path / "sw_kappa"
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out)]) == 0
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]
    assert [r[-1] for r in rows] == ["", "NumericalBlowupError"]


def test_sweep_point_with_arithmetic_error_is_a_row_error(tmp_path, cfgfile):
    # at ell = 1e-300 the Lyapunov constants divide by an underflowed zero
    cfg2 = tmp_path / "sweep_ell.ini"
    cfg2.write_text(BASE + "\n[sweep]\nell = 1e-300,1\n")
    out = tmp_path / "sw_ell"
    assert _run(["sweep", "--config", str(cfg2), "--out", str(out),
                 "--override", "grid.nx=3", "--override", "grid.nrho=2"]) == 0
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]
    assert [r[-1] for r in rows] == ["ZeroDivisionError", ""]
    assert all(rows[1][2:6]), rows[1]       # certified, a0, r2, final_E
    assert json.loads((out / "summary.json").read_text())["failed_points"] == 1


def _cli_bytes_per_blas_threads(tmp_path, command, cfg_text, names):
    """Run a CLI command in subprocesses with 1 and 2 OpenBLAS threads."""
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(cfg_text)
    src = str(Path(thermodelay.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        out = tmp_path / f"{command}_threads{threads}"
        subprocess.run([sys.executable, "-m", "thermodelay.cli", command,
                        "--config", str(cfg), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    return [[(out / name).read_bytes() for name in names] for out in outs]


def test_neumann_spectrum_bytes_independent_of_blas_threads(tmp_path):
    # the 64x64 default is solved in blocks of at most nrho + 3 = 67 rows;
    # the one dense 4352-row solve it replaced gave different bytes
    one, two = _cli_bytes_per_blas_threads(
        tmp_path, "spectrum", "[model]\nbeta = 4.5\n",
        ("spectrum.csv", "summary.json"))
    assert one == two


def test_dirichlet_sweep_bytes_independent_of_blas_threads(tmp_path):
    # the counted abscissa solves no dense block larger than one mode's; the
    # dense parity blocks it replaced gave thread-dependent bytes
    one, two = _cli_bytes_per_blas_threads(
        tmp_path, "sweep",
        "[model]\ntheta_bc = dirichlet\n[grid]\nnx = 32\nnrho = 32\n"
        "[time]\nt_end = 2\n[sweep]\nbeta = 0:6:4\nspectrum = true\n",
        ("sweep.csv", "summary.json"))
    assert one == two


def test_simulate_bytes_independent_of_blas_threads(tmp_path):
    # the modal stepper calls no BLAS routine whose rounding depends on the
    # thread count; the dense lu_solve and matvecs it replaced did
    one, two = _cli_bytes_per_blas_threads(
        tmp_path, "simulate",
        "[model]\nbeta = 4.5\n[grid]\nnx = 128\nnrho = 8\n[time]\nt_end = 2\n",
        ("traj.csv", "summary.json"))
    assert one == two


def test_dirichlet_simulate_bytes_independent_of_blas_threads(tmp_path):
    # the corner's parity sums are (2, Nx + 1) matrix-vector products, which
    # OpenBLAS threads from 2 (Nx + 1) >= 9216 entries on
    one, two = _cli_bytes_per_blas_threads(
        tmp_path, "simulate",
        "[model]\nbeta = 4.5\ntheta_bc = dirichlet\n[grid]\nnx = 8192\nnrho = 2\n"
        "[time]\nt_end = 1\n", ("traj.csv", "summary.json"))
    assert one == two
