"""Benchmark workloads: generated configs, the operations run on them, and output checks.

All workloads use alpha = gamma = kappa = tau = ell = 1.  beta0 is 4.2728 at
lambda = 0.5, so every beta the seed can draw, [4.5, 5.0), is certified.

* default-neumann: the shipped default config (64x64, Neumann theta,
  t_end = 40, every step recorded).  Dense spectral work dominates; its
  simulate is about half observable recording.
* long-run: simulate at Nx = 1024, Nrho = 128 (1280 steps, 81 records).
  Bound by the IMEX stepper; no spectral code runs.
* sweep-dirichlet: an 8-point beta sweep at 32x32 with Dirichlet theta, the
  spectrum of every point, and two pool workers.  Many short runs; Dirichlet
  theta does not decouple into modes, so it bypasses Neumann-only paths.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("default-neumann", "long-run", "sweep-dirichlet")

SWEEP_POINTS = 8
SETUP_REPS = 12                   # set-up samples per pass, spread over it
DISSIPATIVITY_TRIALS = 10_000
DISSIPATIVITY_BOUND = 1e-3        # acceptance criterion 5
RESIDUAL_BOUND = 1e-8
DRIFT_BOUND = 1e-11
ABSCISSA_VS_DECAY = 0.02          # |abscissa| against a0/2, relative

# Recorded from the unchanged package at seed 0 (beta = 4.5).
REFERENCE = {
    "beta0": (4.2727775558646233, "rel", 1e-6),
    "abscissa": (-0.29329475221755485, "abs", 1e-10),
    "a0": (0.5860271835197705, "rel", 1e-9),
}

GOLDEN = 0.6180339887498949


def seeded_beta(seed: int) -> float:
    """beta in [4.5, 5.0) from the seed; seed 0 gives exactly 4.5."""
    return 4.5 + 0.5 * ((seed * GOLDEN) % 1.0)


@dataclass
class Op:
    kind: str          # setup | certify | simulate | spectrum | sweep | dissipativity
    config: str        # config file name inside the run directory
    reps: int


@dataclass
class Workload:
    name: str
    seed: int
    beta: float
    nx: int
    nrho: int
    theta_bc: str
    configs: dict                  # file name -> config text
    ops: list
    workers: int = 1
    trials: int = DISSIPATIVITY_TRIALS
    reference: dict = field(default_factory=dict)
    found: dict = field(default_factory=dict)   # values read back from outputs

    @property
    def reduced_dim(self) -> int:
        """Dimension of the constrained state space the restricted spectrum lives on."""
        nx, nf = self.nx, self.nx + 1
        return 2 * nx + nf * self.nrho + nf - (self.theta_bc == "neumann")


def _ini(sections: dict) -> str:
    lines = []
    for sec, items in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
        lines.append("")
    return "\n".join(lines)


def _model(beta, theta_bc):
    model = {"alpha": 1.0, "gamma": 1.0, "kappa": 1.0, "tau": 1.0, "ell": 1.0,
             "theta_bc": theta_bc}
    if beta is not None:
        model["beta"] = repr(beta)
    return model


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload `name` at `seed`; `smoke` shrinks every grid and repeat count."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    beta = seeded_beta(seed)
    shapes = {  # nx, nrho, t_end, record_every, theta_bc
        "default-neumann": (64, 64, 40.0, 1, "neumann"),
        "long-run": (1024, 128, 10.0, 16, "neumann"),
        "sweep-dirichlet": (32, 32, 20.0, 1, "dirichlet"),
    }
    nx, nrho, t_end, every, bc = shapes[name]
    if smoke:
        nx, nrho = (16, 8) if name == "long-run" else (8, 8)
        t_end = 20.0
    time_sec = {"t_end": t_end, "record_every": every}
    grid = {"nx": nx, "nrho": nrho}
    run = {"model": _model(beta, bc), "grid": grid, "time": time_sec}
    configs = {"run.ini": _ini(run)}
    workers = 1
    if name == "default-neumann":
        configs["certify.ini"] = _ini({**run, "model": _model(None, bc)})
        ops = [Op("setup", "run.ini", SETUP_REPS), Op("simulate", "run.ini", 4),
               Op("certify", "certify.ini", 3), Op("spectrum", "run.ini", 1),
               Op("dissipativity", "run.ini", 1)]
    elif name == "long-run":
        ops = [Op("setup", "run.ini", SETUP_REPS), Op("simulate", "run.ini", 4)]
    else:
        workers = 2
        configs["sweep.ini"] = _ini({**run, "sweep": {
            "beta": f"4.5:6.0:{SWEEP_POINTS}", "workers": workers,
            "spectrum": "true"}})
        ops = [Op("setup", "run.ini", SETUP_REPS), Op("sweep", "sweep.ini", 4),
               Op("dissipativity", "run.ini", 1)]
    if smoke:
        ops = [Op(op.kind, op.config, min(op.reps, 2)) for op in ops]
    reference = dict(REFERENCE) if (name == "default-neumann" and seed == 0
                                    and not smoke) else {}
    if smoke:  # beta0 does not depend on the grid
        reference = {"beta0": REFERENCE["beta0"]}
    return Workload(name=name, seed=seed, beta=beta, nx=nx, nrho=nrho,
                    theta_bc=bc, configs=configs, ops=ops, workers=workers,
                    trials=200 if smoke else DISSIPATIVITY_TRIALS,
                    reference=reference)


# -- output checks -------------------------------------------------------------

def _against_reference(wl: Workload, key: str, value) -> list[str]:
    if key not in wl.reference:
        return []
    ref, kind, tol = wl.reference[key]
    err = abs(value - ref) / (abs(ref) if kind == "rel" else 1.0)
    return [] if err <= tol else [f"{key} = {value!r}, reference {ref!r} ({kind} err {err:.2e})"]


def _summary(out: Path) -> dict:
    with open(out / "summary.json") as fh:
        return json.load(fh)


def check(kind: str, wl: Workload, out: Path, rc: int, result=None) -> list[str]:
    """Failures of one operation's outputs; empty when every check passes.

    `result` is the dissipativity_test return value for that operation.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if kind == "setup":
            return []
        if kind == "dissipativity":
            bad = []
            if not result["max_rayleigh"] <= DISSIPATIVITY_BOUND:
                bad.append(f"max_rayleigh {result['max_rayleigh']} > {DISSIPATIVITY_BOUND}")
            if result["trials"] != wl.trials:
                bad.append(f"trials {result['trials']} != {wl.trials}")
            return bad
        s = _summary(out)
        return {"certify": _check_certify, "simulate": _check_simulate,
                "spectrum": _check_spectrum, "sweep": _check_sweep}[kind](wl, out, s)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_certify(wl, out, s):
    beta0 = s["beta0"]
    bad = [] if beta0 < wl.beta else [f"beta0 {beta0} not below beta {wl.beta}"]
    return bad + _against_reference(wl, "beta0", beta0)


def _expected_records(wl, s):
    cfg_time = s["config"]["time"]
    nsteps = round(float(cfg_time["t_end"]) * wl.nrho)   # dt = tau/Nrho, tau = 1
    every = int(cfg_time["record_every"])
    return 1 + nsteps // every + (nsteps % every != 0)


def _check_simulate(wl, out, s):
    bad = []
    if not (s.get("certification") or {}).get("certified"):
        bad.append("certified is not true")
    if s["non_decaying_energy"]:
        bad.append("energy does not decay")
    a0 = s["a0"]
    if a0 is None or not math.isfinite(a0) or a0 <= 0:
        bad.append(f"a0 = {a0}")
    else:
        wl.found["a0"] = a0
        bad += _against_reference(wl, "a0", a0)
    if wl.theta_bc == "neumann" and not s["conservation_drift"] <= DRIFT_BOUND:
        bad.append(f"conservation_drift {s['conservation_drift']} > {DRIFT_BOUND}")
    with open(out / "traj.csv") as fh:
        rows = sum(1 for line in fh) - 2          # schema line and header
    expected = _expected_records(wl, s)
    if rows != expected:
        bad.append(f"traj.csv has {rows} rows, expected {expected}")
    return bad


def _check_spectrum(wl, out, s):
    bad = []
    absc = s["abscissa"]
    if not absc < 0:
        bad.append(f"abscissa {absc} not negative")
    a0 = wl.found.get("a0")
    if a0 is None:
        bad.append("no a0 from simulate to compare the abscissa with")
    elif abs(abs(absc) - a0 / 2) > ABSCISSA_VS_DECAY * a0 / 2:
        bad.append(f"|abscissa| {abs(absc)} not within 2% of a0/2 = {a0 / 2}")
    worst = max(s["rightmost_residuals"])
    if not worst <= RESIDUAL_BOUND:
        bad.append(f"rightmost residual {worst} > {RESIDUAL_BOUND}")
    if s["n_eigenvalues"] != wl.reduced_dim:
        bad.append(f"n_eigenvalues {s['n_eigenvalues']} != {wl.reduced_dim}")
    return bad + _against_reference(wl, "abscissa", absc)


def _check_sweep(wl, out, s):
    bad = []
    if s["failed_points"] != 0:
        bad.append(f"failed_points = {s['failed_points']}")
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != SWEEP_POINTS or s["n_points"] != SWEEP_POINTS:
        bad.append(f"{len(rows)} sweep rows, expected {SWEEP_POINTS}")
    uncertified = [r["value"] for r in rows if r["certified"] != "true"]
    if uncertified:
        bad.append(f"uncertified sweep points {uncertified}")
    growing = [r["value"] for r in rows if not float(r["abscissa"] or "nan") < 0]
    if growing:
        bad.append(f"non-negative abscissa at {growing}")
    return bad
