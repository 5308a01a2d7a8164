"""Command-line front end: certify, simulate, sweep, spectrum.

All commands read one flat key=value config (see config.DEFAULTS for the
sections), apply --override section.key=value pairs, and write CSV/JSON
into --out.  Exit codes: 0 ok, 1 usage/parse or a grid too large for a
dense solve, 2 certification failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (SCHEMA_VERSION, ConfigError, RunConfig, load_config,
                     make_initial_data)
from .constants import (InfeasibleLambdaError, NoFeasibleLambdaError, certify,
                        find_beta0, lyapunov_constants, n0_from_constants)
from .discretization import DenseSizeError, assemble_generator
from .integrate import NumericalBlowupError, simulate
from .observables import decay_rate_fit
from .params import PhysParams
from .spectral import spectral_abscissa, spectrum_dense

__all__ = ["main"]

FLOAT_FMT = "%.16e"          # 17 significant digits


def _write_csv(path: Path, header: list[str], rows):
    """Full-precision CSV: '.' decimal, '\\n' endings, schema tag up front."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % c if isinstance(c, float) else str(c)
                              for c in row) + "\n")


def _write_json(path: Path, payload: dict):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _lambda_candidates(cfg: RunConfig) -> list[float]:
    """The lambdas to try; every path to the Lyapunov constants starts here."""
    if min(cfg.params.alpha, cfg.params.gamma, cfg.params.kappa) <= 0.0:
        raise ConfigError("model.alpha, gamma, kappa must be positive for the Lyapunov constants")
    lams = [cfg.lam] if cfg.lam is not None else cfg.lambda_grid
    if not lams:
        raise ConfigError("lyapunov.lambda_grid is empty and lyapunov.lambda unset")
    return lams


def _certification(cfg: RunConfig) -> dict:
    """Best certification verdict for the configured beta over the lambdas."""
    out = {"certified": False, "lambda": None, "conditions": None}
    for lam in _lambda_candidates(cfg):
        rep = certify(cfg.params, lam, xi_factor=cfg.xi_factor,
                      sharp_poincare=cfg.sharp_poincare)
        if out["conditions"] is None or rep.verdict:
            out.update({"lambda": lam, "conditions": rep.as_dict()})
        if rep.verdict:
            out["certified"] = True
            break
    return out


def _constants_for_run(cfg: RunConfig):
    """Constants for observables; fall back to a unit-damping surrogate.

    The Lyapunov weights need beta > 0 and a feasible lambda.  Runs outside
    that regime (notably beta = 0 instability demonstrations) still record
    energy and functional indicators, computed with surrogate weights.
    """
    for lam in _lambda_candidates(cfg):
        p = cfg.params if cfg.params.beta > 0 else cfg.params.with_beta(1.0)
        try:
            consts = lyapunov_constants(p, lam, xi_factor=cfg.xi_factor,
                                        sharp_poincare=cfg.sharp_poincare)
        except InfeasibleLambdaError:
            continue
        # xi ~ alpha^2 / beta; the energy needs it positive
        if not consts.xi > 0.0:
            raise FloatingPointError(f"the history weight xi = {consts.xi} "
                                     f"underflows at alpha = {p.alpha}")
        return consts
    raise ConfigError("no feasible lambda for the functional weights; "
                      "extend lyapunov.lambda_grid")


def cmd_certify(cfg: RunConfig, out: Path) -> int:
    if cfg.beta_given:
        cert = _certification(cfg)
        print(f"lambda = {cert['lambda']}")
        print(f"{'condition':<12} {'lhs':>24} {'rhs':>24}  status")
        for rec in cert["conditions"]["conditions"]:
            status = "ok" if rec["satisfied"] else "FAIL"
            print(f"{rec['name']:<12} {rec['lhs']:>24.16e} {rec['rhs']:>24.16e}  {status}")
            if not rec["satisfied"]:
                print(f"{rec['name']} failed")
        print(f"certified: {cert['certified']}")
        _write_json(out / "summary.json",
                    {"command": "certify", "config": cfg.echo,
                     "certification": cert})
        return 0 if cert["certified"] else 2
    try:
        res = find_beta0(cfg.params, _lambda_candidates(cfg), xi_factor=cfg.xi_factor,
                         sharp_poincare=cfg.sharp_poincare)
    except NoFeasibleLambdaError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    print(f"beta0 = {res['beta0']:.16e} at lambda = {res['lambda_star']}")
    _write_json(out / "summary.json",
                {"command": "certify", "config": cfg.echo, "beta0": res["beta0"],
                 "lambda_star": res["lambda_star"]})
    return 0


def _run_trajectory(cfg: RunConfig):
    consts = _constants_for_run(cfg)
    u0, u1, theta0, f0 = make_initial_data(cfg)
    traj = simulate(
        cfg.grid, cfg.params, consts, u0, u1, theta0, f0,
        t_end=cfg.t_end, record_every=cfg.record_every,
        theta_weight=cfg.theta_weight,
    )
    return consts, traj


def _summarize(cfg: RunConfig, traj) -> dict:
    t_hi = traj.times[-1]
    fit = None
    try:
        fit = decay_rate_fit(traj, (cfg.fit_start_fraction * t_hi, t_hi))
    except ValueError:
        pass
    mass = traj.theta_mass
    scale = max(abs(mass[0]), 1.0)
    drift = float(np.max(np.abs(mass - mass[0])) / scale)
    non_decaying = bool(traj.blowup_time is not None
                        or traj.E[-1] >= traj.E[0]
                        or (fit is not None and fit["a0"] <= 0))
    return {
        "a0": None if fit is None else fit["a0"],
        "C": None if fit is None else fit["C"],
        "r2": None if fit is None else fit["r2"],
        "final_E": float(traj.E[-1]),
        "conservation_drift": drift,
        "blowup_time": traj.blowup_time,
        "non_decaying_energy": non_decaying,
    }


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    consts, traj = _run_trajectory(cfg)
    header = ["t", "E", "V", "Vtilde"] + [f"V{i}" for i in range(1, 7)] + ["theta_mass"]
    rows = (
        [traj.times[i], traj.E[i], traj.V[i], traj.Vtilde[i]]
        + [traj.V_terms[j, i] for j in range(6)]
        + [traj.theta_mass[i]]
        for i in range(len(traj.times))
    )
    _write_csv(out / "traj.csv", header, ([float(c) for c in r] for r in rows))

    summary = _summarize(cfg, traj)
    summary["certification"] = _certification(cfg) if cfg.beta_given else None
    try:
        summary["n0"] = n0_from_constants(consts, cfg.params)
    except ValueError:
        summary["n0"] = None
    _write_json(out / "summary.json",
                {"command": "simulate", "config": cfg.echo, **summary})
    if traj.blowup_time is not None:
        print(f"numerical blow-up at t = {traj.blowup_time}", file=sys.stderr)
        return 3
    print(f"a0 = {summary['a0']}, r2 = {summary['r2']}, "
          f"final E = {summary['final_E']:.6e}")
    return 0


def _sweep_variable(cfg: RunConfig):
    reserved = {"workers", "spectrum"}
    swept = [(k, vals) for k, vals in cfg.sweep.items() if k not in reserved and vals]
    if len(swept) != 1:
        raise ConfigError("sweep needs exactly one swept parameter range")
    return swept[0]


def _sweep_point(cfg: RunConfig, name: str, value: float, want_spectrum: bool):
    row = {"param": name, "value": value, "certified": "", "a0": "", "r2": "",
           "final_E": "", "abscissa": "", "error": ""}
    try:
        params = PhysParams(**{**cfg.params.__dict__, name: value})
        sub = RunConfig(**{**cfg.__dict__, "params": params, "beta_given": True,
                           "grid": replace(cfg.grid, ell=params.ell)})
        row["certified"] = str(_certification(sub)["certified"]).lower()
        _, traj = _run_trajectory(sub)
        s = _summarize(sub, traj)
        for key in ("a0", "r2", "final_E"):
            if s[key] is not None:
                row[key] = float(s[key])
        if want_spectrum:
            gen = assemble_generator(sub.grid, params)
            row["abscissa"] = float(spectral_abscissa(gen)[0])
    except (ConfigError, ValueError, NumericalBlowupError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        row["error"] = type(exc).__name__
    return row


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    name, values = _sweep_variable(cfg)
    rows = [_sweep_point(cfg, name, v, cfg.sweep["spectrum"]) for v in values]

    header = ["param", "value", "certified", "a0", "r2", "final_E", "abscissa",
              "error"]
    _write_csv(out / "sweep.csv", header,
               ([r[h] for h in header] for r in rows))
    _write_json(out / "summary.json",
                {"command": "sweep", "config": cfg.echo, "n_points": len(rows),
                 "failed_points": sum(1 for r in rows if r["error"])})
    print(f"swept {name} over {len(values)} points -> sweep.csv")
    return 0


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    gen = assemble_generator(cfg.grid, cfg.params)
    res = spectrum_dense(gen)
    w = res.eigenvalues
    _write_csv(out / "spectrum.csv", ["re", "im"],
               ([float(z.real), float(z.imag)] for z in w))
    abscissa = float(w.real.max())
    _write_json(out / "summary.json",
                {"command": "spectrum", "config": cfg.echo,
                 "abscissa": abscissa,
                 "rightmost_mode": None if res.modes is None else res.modes[0],
                 "rightmost_residuals": list(res.rightmost_residuals),
                 "n_eigenvalues": len(w)})
    print(f"spectral abscissa = {abscissa:.16e}")
    return 0


COMMANDS = {
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="thermodelay")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, overrides=args.override)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DenseSizeError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    except (NumericalBlowupError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
