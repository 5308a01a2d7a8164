"""Run configuration: flat key=value files with sections, and initial-data presets."""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .grid import Grid, grad_u, step_count
from .params import PhysParams

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ConfigError", "RunConfig", "load_config", "check_steps",
           "parse_range", "make_initial_data"]

SCHEMA_VERSION = 1
MAX_RANGE_POINTS = 1000    # most values a start:stop:num range may ask for

DEFAULTS = {
    "model": {
        "alpha": "1.0", "beta": "", "gamma": "1.0", "kappa": "1.0",
        "tau": "1.0", "ell": "1.0", "theta_bc": "neumann",
    },
    "grid": {"nx": "64", "nrho": "64"},
    "time": {"t_end": "40.0", "record_every": "1"},
    "lyapunov": {"lambda_grid": "0.5:3.0:11", "sharp_poincare": "false"},
    "init": {
        "u0": "sine:1", "u1": "zero", "theta0": "cosine:1",
        "f0": "constant_history",
    },
    "sweep": {"workers": "4", "spectrum": "false"},
}
# [sweep] also takes one range per model parameter below
SWEEPABLE = ("alpha", "beta", "gamma", "kappa", "tau", "ell")
# init key -> its presets, each with its argument's type (None: it takes none)
PRESETS = {
    "u0": {"sine": int, "bump": None, "zero": None},
    "u1": {"sine": int, "bump": None, "zero": None},
    "theta0": {"cosine": int, "zero": None},
    "f0": {"constant_history": None, "decaying_exponential": float, "zero": None},
}


class ConfigError(ValueError):
    pass


def parse_range(text: str, name: str = "range") -> list[float]:
    """Parse 'a,b,c' or 'start:stop:num' into a list of finite floats.

    Empty text gives an empty list; any other text must give at least one
    value, and num may not exceed MAX_RANGE_POINTS.  `name` labels the
    range in error messages.
    """
    text = text.strip()
    if not text:
        return []
    parts = text.split(":")
    if len(parts) == 1:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    elif len(parts) != 3:
        raise ConfigError(f"{name} must be start:stop:num, got {text!r}")
    elif int(parts[2]) < 1:
        values = []
    elif int(parts[2]) > MAX_RANGE_POINTS:
        raise ConfigError(f"{name} asks for {int(parts[2])} points, above the "
                          f"limit of {MAX_RANGE_POINTS}")
    else:
        values = _linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(f"{name} needs at least one value, all finite, "
                          f"got {text!r}")
    return values


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num).tolist(), bit for bit, in Python floats.

    The same operations in the same order as numpy's: a step that is zero
    (a denormal difference) scales i/div by the difference instead.  A
    difference that overflows gives non-finite values, not an exception.
    """
    div = num - 1
    delta = stop - start
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    if step == 0:
        values = [i / div * delta + start for i in range(num)]
    else:
        values = [i * step + start for i in range(num)]
    values[-1] = stop
    return values


@dataclass
class RunConfig:
    """Parsed configuration, plus the raw key=value echo for reproducibility."""

    params: PhysParams
    beta_given: bool
    grid: Grid
    t_end: float
    record_every: int
    lambdas: list[float]           # lyapunov.lambda_grid, parsed
    sharp_poincare: bool
    init: dict                     # name -> (preset kind, argument or None)
    sweep: dict                    # parameter -> values, the non-empty ranges only
    sweep_spectrum: bool
    echo: dict = field(default_factory=dict)


def _parser_with_defaults() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_dict(DEFAULTS)
    return cp


def load_config(path: str | None = None, overrides: list[str] = (),
                text: str | None = None) -> RunConfig:
    """Read a config file (or literal text) and apply key=value overrides.

    Overrides use 'section.key=value', e.g. --override model.beta=5.0.
    Unknown sections and keys, and out-of-range values, raise ConfigError.
    """
    cp = _parser_with_defaults()
    try:
        if text is not None:
            cp.read_file(io.StringIO(text))
        elif path is not None:
            with open(path) as fh:
                cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc

    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override must be section.key=value, got {ov!r}")
        key, val = ov.split("=", 1)
        sec, opt = (part.strip() for part in key.split(".", 1))
        if not cp.has_section(sec):
            cp.add_section(sec)
        cp.set(sec, opt, val.strip())

    for sec in cp.sections():
        if sec not in DEFAULTS:
            raise ConfigError(f"unknown section [{sec}]")
        for opt in cp.options(sec):
            if opt not in DEFAULTS[sec] and not (sec == "sweep" and opt in SWEEPABLE):
                raise ConfigError(f"unknown key {sec}.{opt}")

    # every key is parsed, then checked, in this order: the first bad value
    # is the one reported
    try:
        beta_text = cp.get("model", "beta").strip()
        params = PhysParams(
            alpha=cp.getfloat("model", "alpha"),
            beta=float(beta_text) if beta_text else 0.0,
            gamma=cp.getfloat("model", "gamma"),
            kappa=cp.getfloat("model", "kappa"),
            tau=cp.getfloat("model", "tau"),
            ell=cp.getfloat("model", "ell"),
            theta_bc=cp.get("model", "theta_bc").strip(),
        )
        grid = Grid(Nx=cp.getint("grid", "nx"), Nrho=cp.getint("grid", "nrho"),
                    ell=params.ell)
        init = {k: _preset(k, cp.get("init", k)) for k in PRESETS}
        t_end = cp.getfloat("time", "t_end")
        record_every = cp.getint("time", "record_every")
        lambda_grid = parse_range(cp.get("lyapunov", "lambda_grid"),
                                  "lyapunov.lambda_grid")
        sharp_poincare = cp.getboolean("lyapunov", "sharp_poincare")
        workers = cp.getint("sweep", "workers")     # checked; nothing reads it
        sweep_spectrum = cp.getboolean("sweep", "spectrum")
        sweep = {k: parse_range(v, f"sweep.{k}") for k, v in cp.items("sweep")
                 if k in SWEEPABLE and v.strip()}     # an empty range is no range
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc

    checks = [
        (t_end > 0.0 and math.isfinite(t_end),
         f"time.t_end must be positive and finite, got {t_end}"),
        (record_every >= 1, f"time.record_every must be >= 1, got {record_every}"),
        (all(0.0 < x < math.inf for x in lambda_grid),
         f"lyapunov.lambda_grid must be positive and finite, got {lambda_grid}"),
        (workers >= 1, f"sweep.workers must be >= 1, got {workers}"),
        (init["f0"][1] is None or math.isfinite(init["f0"][1]),
         f"init.f0 rate must be finite, got {init['f0'][1]}"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)

    return RunConfig(
        params=params, beta_given=bool(beta_text), grid=grid, t_end=t_end,
        record_every=record_every, lambdas=lambda_grid,
        sharp_poincare=sharp_poincare, init=init, sweep=sweep,
        sweep_spectrum=sweep_spectrum,
        echo={sec: dict(cp.items(sec)) for sec in cp.sections()})


def check_steps(cfg: RunConfig):
    """Raise ConfigError unless time.t_end lies on the step grid of
    tau/Nrho within the run-size limits (grid.step_count).  Only the
    commands that step, simulate and sweep, need this."""
    try:
        step_count(cfg.t_end, cfg.params.tau / cfg.grid.Nrho, cfg.record_every)
    except ValueError as exc:
        raise ConfigError(f"time.{exc}") from None


def _preset(key: str, text: str) -> tuple:
    """Split init.<key>'s 'kind[:arg]' into (kind, arg or None): the key
    must take the kind, and only a kind with an argument may have a ':'."""
    kinds = PRESETS[key]
    kind, colon, arg = text.strip().partition(":")
    if kind not in kinds:
        raise ConfigError(f"init.{key}: unknown preset {text!r}; "
                          f"expected one of {tuple(kinds)}")
    if colon and kinds[kind] is None:
        raise ConfigError(f"init.{key}: preset {kind!r} takes no argument, got {text!r}")
    try:
        return kind, kinds[kind](arg) if arg else None
    except ValueError:
        raise ConfigError(f"init.{key}: bad preset argument in {text!r}") from None


def _profile(preset: tuple, x: np.ndarray, ell: float) -> np.ndarray:
    """Spatial preset (kind, n): sine:n, bump, zero (Dirichlet profiles);
    cosine:n, zero (theta profiles)."""
    import numpy as np
    kind, n = preset
    n = 1 if n is None else n
    if kind == "zero":
        return np.zeros_like(x)
    if kind == "sine":
        return np.sin(n * math.pi * x / ell)
    if kind == "cosine":
        return np.cos(n * math.pi * x / ell)
    return np.exp(-100.0 * (x / ell - 0.5) ** 2) * np.sin(math.pi * x / ell)


def make_initial_data(cfg: RunConfig):
    """Build (u0, u1, theta0, f0) from the preset names in the config."""
    import numpy as np
    grid, ell = cfg.grid, cfg.params.ell
    u0 = _profile(cfg.init["u0"], grid.x_nodes, ell)
    u1 = _profile(cfg.init["u1"], grid.x_nodes, ell)
    theta0 = _profile(cfg.init["theta0"], grid.x_flux, ell)

    ux0 = grad_u(u0, grid.dx)
    kind, rate = cfg.init["f0"]
    if kind == "zero":
        def f0(x, s):
            return np.zeros_like(x)
    elif kind == "constant_history":
        def f0(x, s):
            return np.interp(x, grid.x_flux, ux0)
    else:
        rate = 1.0 if rate is None else rate

        def f0(x, s):
            return np.interp(x, grid.x_flux, ux0) * math.exp(rate * s)
    return u0, u1, theta0, f0
