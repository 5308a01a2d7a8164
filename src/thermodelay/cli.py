"""Command-line front end: certify, simulate, sweep, spectrum.

All commands read one flat key=value config (see config.DEFAULTS for the
sections), apply --override section.key=value pairs, and write CSV/JSON
into --out.  Exit codes: 0 ok, 1 usage/parse, a grid too large for a dense
solve or a sweep helper that ended without reporting, 2 certification
failure, 3 numerical failure.

`sweep` runs its points on every CPU the process may use: it forks a
helper per CPU but one, and runs a share of the points itself
(_forked_rows).  On one CPU, or without os.fork, it forks nothing and runs
every point itself; its outputs do not depend on the number of CPUs.

Neither numpy nor scipy is imported up front: the commands import their
layers when they run.  `certify` and config loading import neither,
`simulate` imports numpy alone (its stepper works per Fourier mode), and
`spectrum` and a sweep with spectra import scipy as well: scipy.linalg and
scipy.sparse, and scipy.sparse.linalg (ARPACK) with Dirichlet theta alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .config import (SCHEMA_VERSION, ConfigError, RunConfig, check_steps,
                     load_config, make_initial_data)
from .constants import (InfeasibleLambdaError, NoFeasibleLambdaError, certify,
                        find_beta0, lyapunov_constants, n0_from_constants)
from .grid import DenseSizeError, NumericalBlowupError

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
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _lambda_candidates(cfg: RunConfig) -> list[float]:
    """The lambdas to try; every path to the Lyapunov constants starts here."""
    if min(cfg.params.alpha, cfg.params.gamma, cfg.params.kappa) <= 0.0:
        raise ConfigError("model.alpha, gamma, kappa must be positive for the Lyapunov constants")
    if not cfg.lambdas:
        raise ConfigError("lyapunov.lambda_grid is empty")
    return cfg.lambdas


def _certification(cfg: RunConfig) -> dict:
    """Best certification verdict for the configured beta over the lambdas."""
    out = {"certified": False, "lambda": None, "conditions": None}
    for lam in _lambda_candidates(cfg):
        rep = certify(cfg.params, lam, sharp_poincare=cfg.sharp_poincare)
        if out["conditions"] is None or rep["verdict"]:
            out.update({"lambda": lam, "conditions": rep})
        if rep["verdict"]:
            out["certified"] = True
            break
    return out


def _constants_for_run(cfg: RunConfig, certified_lam: float | None = None):
    """Constants for observables; fall back to a unit-damping surrogate.

    Given the lambda that certifies the run's beta, the weights and n0 are
    the certificate's; otherwise they come from the first feasible lambda.
    The Lyapunov weights need beta > 0 and a feasible lambda.  Runs outside
    that regime (notably beta = 0 instability demonstrations) still record
    energy and functional indicators, computed with surrogate weights.
    """
    lams = _lambda_candidates(cfg) if certified_lam is None else [certified_lam]
    for lam in lams:
        p = cfg.params if cfg.params.beta > 0 else cfg.params.with_beta(1.0)
        try:
            consts = lyapunov_constants(p, lam, sharp_poincare=cfg.sharp_poincare)
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
        res = find_beta0(cfg.params, _lambda_candidates(cfg),
                         sharp_poincare=cfg.sharp_poincare)
    except NoFeasibleLambdaError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 2
    print(f"beta0 = {res['beta0']:.16e} at lambda = {res['lambda_star']}")
    _write_json(out / "summary.json",
                {"command": "certify", "config": cfg.echo, "beta0": res["beta0"],
                 "lambda_star": res["lambda_star"]})
    return 0


def _run_trajectory(cfg: RunConfig, cert: dict):
    """Simulate cfg; cert is _certification(cfg), whose lambda sets the weights."""
    from .integrate import simulate

    consts = _constants_for_run(cfg, cert["lambda"] if cert["certified"] else None)
    u0, u1, theta0, f0 = make_initial_data(cfg)
    traj = simulate(
        cfg.grid, cfg.params, consts, u0, u1, theta0, f0,
        t_end=cfg.t_end, record_every=cfg.record_every,
    )
    return consts, traj


def _summarize(traj) -> dict:
    """The run's summary figures; the decay rate is fitted over [0.4 t, t],
    t the last record's time."""
    from .observables import decay_rate_fit

    t_hi = traj.times[-1]
    fit = None
    try:
        fit = decay_rate_fit(traj, (0.4 * t_hi, t_hi))
    except ValueError:
        pass
    mass = traj.theta_mass
    scale = max(abs(mass[0]), 1.0)
    drift = float(abs(mass - mass[0]).max() / scale)
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
    import numpy as np

    cert = _certification(cfg)
    consts, traj = _run_trajectory(cfg, cert)
    header = ["t", "E", "V", "Vtilde"] + [f"V{i}" for i in range(1, 7)] + ["theta_mass"]
    table = np.column_stack([traj.times, traj.E, traj.V, traj.Vtilde,
                             *traj.V_terms, traj.theta_mass])
    _write_csv(out / "traj.csv", header, (row.tolist() for row in table))

    summary = _summarize(traj)
    summary["certification"] = cert if cfg.beta_given else None
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


def _sweep_point(cfg: RunConfig, name: str, value: float, want_spectrum: bool):
    row = {"param": name, "value": value, "certified": "", "a0": "", "r2": "",
           "final_E": "", "abscissa": "", "error": ""}
    try:
        params = replace(cfg.params, **{name: value})
        sub = replace(cfg, params=params, beta_given=True,
                      grid=replace(cfg.grid, ell=params.ell))
        cert = _certification(sub)
        row["certified"] = str(cert["certified"]).lower()
        _, traj = _run_trajectory(sub, cert)
        s = _summarize(traj)
        for key in ("a0", "r2", "final_E"):
            if s[key] is not None:
                row[key] = float(s[key])
        if want_spectrum:
            from .spectral import spectral_abscissa
            row["abscissa"] = float(spectral_abscissa(sub.grid, params)[0])
    # ValueError covers ConfigError and numpy's LinAlgError
    except (ValueError, NumericalBlowupError, ArithmeticError) as exc:
        row["error"] = type(exc).__name__
    return row


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return 1


def _share(cfg: RunConfig, name: str, values, want_spectrum: bool) -> list:
    """(warnings, row, exception) per point of `values`, in order.

    A point's warnings pass the active filters and are recorded, not shown.
    An exception that escapes a point ends the share.
    """
    outcomes = []
    for value in values:
        row = exc = None
        with warnings.catch_warnings(record=True) as caught:
            try:
                row = _sweep_point(cfg, name, value, want_spectrum)
            except Exception as e:      # raised again in the caller, in order
                exc = e
        outcomes.append(([(w.message, w.category, w.filename, w.lineno)
                          for w in caught], row, exc))
        if exc is not None:
            break
    return outcomes


def _reissue(caught):
    """Issue recorded warnings again, each as its defining module would:
    same filters, same once-per-location registry, same source line."""
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
            continue
        g = vars(module)
        warnings.warn_explicit(message, category, filename, lineno,
                               module=g["__name__"],
                               registry=g.setdefault("__warningregistry__", {}),
                               module_globals=g)


def _forked_rows(cfg: RunConfig, name: str, values, want_spectrum: bool,
                 n: int) -> list:
    """The sweep rows of `values`, the points run on n CPUs.

    Helper i = 1..n-1, forked from this process, runs values[i::n] and
    sends its share's outcomes back over a pipe; this process runs
    values[0::n] itself, which is every point when n = 1.  Every helper is
    reaped before this returns or raises, and killed first if this process
    fails.  The outcomes are then taken in range order: each point's
    warnings are issued, and the exception of the first point that raised
    is raised here, so the rows, warnings and exception do not depend on n.
    A helper that ends without reporting raises ChildProcessError.
    """
    import pickle
    import signal

    from . import integrate  # noqa: F401  -- imported once, before the fork
    if want_spectrum:
        from . import spectral  # noqa: F401

    sys.stdout.flush()
    sys.stderr.flush()
    helpers, reports, codes = [], [], []    # (pid, read end); per helper
    try:
        for i in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    data = pickle.dumps(_share(cfg, name, values[i::n], want_spectrum))
                    with open(write, "wb") as fh:
                        fh.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            helpers.append((pid, read))
        shares = [_share(cfg, name, values[0::n], want_spectrum)]
        for _, read in helpers:
            with open(read, "rb", closefd=False) as fh:
                reports.append(fh.read())
    except BaseException:
        for pid, _ in helpers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in helpers:
            os.close(read)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for i, (code, data) in enumerate(zip(codes, reports), start=1):
        if code != 0:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
            raise ChildProcessError(f"the sweep helper for {name} = "
                                    f"{', '.join(map(repr, values[i::n]))} {how} "
                                    "without reporting")
        shares.append(pickle.loads(data))

    rows = []
    for i in range(len(values)):
        # share i % n ends at its first exception, which comes before any
        # point it did not run
        caught, row, exc = shares[i % n][i // n]
        _reissue(caught)
        if exc is not None:
            raise exc
        rows.append(row)
    return rows


def cmd_sweep(cfg: RunConfig, out: Path) -> int:
    if len(cfg.sweep) != 1:
        raise ConfigError("sweep needs exactly one swept parameter range")
    [(name, values)] = cfg.sweep.items()
    n = min(len(values), _usable_cpus()) if hasattr(os, "fork") else 1
    rows = _forked_rows(cfg, name, values, cfg.sweep_spectrum, n)

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
    import numpy as np

    from .spectral import spectrum_dense

    res = spectrum_dense(cfg.grid, cfg.params)
    w = res.eigenvalues
    _write_csv(out / "spectrum.csv", ["re", "im"],
               (row.tolist() for row in np.column_stack([w.real, w.imag])))
    abscissa = float(w[0].real)       # the abscissa's eigenvalue leads the rows
    _write_json(out / "summary.json",
                {"command": "spectrum", "config": cfg.echo,
                 "abscissa": abscissa,
                 "rightmost_mode": None if res.modes is None else int(res.modes[0]),
                 "rightmost_residuals": list(res.rightmost_residuals),
                 "rightmost_refined": [bool(c) for c in res.converged],
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


def _numerical_errors() -> tuple:
    """What main maps to exit 3, numpy's LinAlgError included once numpy is
    loaded: a command that never imported numpy cannot raise it."""
    np = sys.modules.get("numpy")
    linalg = (np.linalg.LinAlgError,) if np is not None else ()
    return (NumericalBlowupError, ArithmeticError, *linalg)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, overrides=args.override)
        # the commands that step; a swept tau is checked per point, as a row error
        if args.command == "simulate" or (args.command == "sweep" and "tau" not in cfg.sweep):
            check_steps(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DenseSizeError as exc:
        print(f"size error: {exc}", file=sys.stderr)
        return 1
    except ChildProcessError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    except _numerical_errors() as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
