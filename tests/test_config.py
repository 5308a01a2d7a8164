"""Config parsing, overrides and initial-data presets."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermodelay.config import (DEFAULTS, MAX_RANGE_POINTS, SWEEPABLE, ConfigError,
                                load_config, make_initial_data, parse_range)

BASE = """
[model]
alpha = 1.0
beta = 5.0
tau = 1.0

[grid]
nx = 8
nrho = 8

[lyapunov]
lambda_grid = 0.5
"""


def test_defaults_and_file_values(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE)
    cfg = load_config(str(path))
    assert cfg.params.beta == 5.0
    assert cfg.beta_given
    assert cfg.params.theta_bc == "neumann"
    assert cfg.grid.Nx == 8 and cfg.grid.Nrho == 8
    assert cfg.lambdas == [0.5]
    assert cfg.t_end == 40.0          # default
    assert cfg.echo["model"]["beta"] == "5.0"


def test_overrides_applied():
    cfg = load_config(text=BASE, overrides=["model.beta=7.5", "time.t_end=3"])
    assert cfg.params.beta == 7.5
    assert cfg.t_end == 3.0


def test_bad_override_rejected():
    with pytest.raises(ConfigError):
        load_config(text=BASE, overrides=["beta=7.5"])
    with pytest.raises(ConfigError):
        load_config(text=BASE, overrides=["model.beta"])


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        load_config(text=BASE, overrides=["model.alpha=-1"])
    with pytest.raises(ConfigError):
        load_config(text=BASE, overrides=["grid.nx=abc"])
    with pytest.raises(ConfigError):
        load_config(text=BASE, overrides=["model.theta_bc=periodic"])


@pytest.mark.parametrize("override, message", [
    ("time.theta_weight=0.5", "unknown key time.theta_weight"),
    ("lyapunov.xi_factor=2.0", "unknown key lyapunov.xi_factor"),
    ("output.fit_start_fraction=0.4", r"unknown section \[output\]"),
])
def test_fixed_choices_are_not_keys(override, message):
    # the Crank-Nicolson weight, xi's factor and the fit window are constants;
    # a config that sets one, even to its value, is refused
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config(text=BASE, overrides=[override])


def test_readme_lists_every_key():
    # the first cell of each row of the README's config table names its keys
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = {key for line in readme.splitlines() if line.startswith("| `")
              for key in re.findall(r"`([a-z_]+\.[a-z0-9_]+)`", line.split("|")[1])}
    keys = {f"{sec}.{key}" for sec, opts in DEFAULTS.items() for key in opts}
    assert listed == keys | {f"sweep.{name}" for name in SWEEPABLE}


def test_missing_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_parse_range_forms():
    assert parse_range("1,2,3.5") == [1.0, 2.0, 3.5]
    assert parse_range("0:1:3") == [0.0, 0.5, 1.0]
    assert parse_range("") == []
    with pytest.raises(ConfigError):
        parse_range("0:1")
    # non-finite values, an overflowing step and empty ranges, named
    for bad in ("4.5:inf:3", "-1e308:1e308:3", "1,nan", "1:2:0", "1:2:-1", ","):
        with pytest.raises(ConfigError, match="sweep.beta needs"):
            parse_range(bad, "sweep.beta")
    # the count is capped before anything is allocated
    assert len(parse_range(f"1:2:{MAX_RANGE_POINTS}")) == MAX_RANGE_POINTS
    with pytest.raises(ConfigError, match="sweep.beta asks for 3000000 points"):
        parse_range("1:2:3000000", "sweep.beta")


def _range_matches_linspace(start, stop, num):
    """parse_range's start:stop:num is np.linspace's, bit for bit, or it is
    refused exactly when np.linspace gives a non-finite value."""
    with np.errstate(all="ignore"):
        want = np.linspace(start, stop, num)
    text = f"{start!r}:{stop!r}:{num}"
    if not np.isfinite(want).all():
        with pytest.raises(ConfigError, match="all finite"):
            parse_range(text)
        return
    got = parse_range(text)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [float(v).hex() for v in want], text


@pytest.mark.parametrize("start, stop, num", [
    (2.5, 7.0, 1), (-0.0, 3.0, 1), (0.0, -0.0, 1),   # one value
    (3.0, 3.0, 5), (-0.0, -0.0, 2),                  # start == stop
    (5.0, -1.0, 7), (1.0, 0.0, 10), (0.3, -0.7, 4),  # negative steps
    (0.1, 0.7, 1000), (1e-300, 3e-300, 9),
    (0.0, 5e-324, 4), (1e-323, 0.0, 5),              # the step is 0.0
    (-1e308, 1e308, 3), (1e308, -1e308, 1),          # the difference overflows
    (1.7e308, -1.7e308, 2), (-1.7976931348623157e308, 1e300, 1000),
])
def test_parse_range_is_bit_equal_to_linspace(start, stop, num):
    _range_matches_linspace(start, stop, num)


finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-1e-300, 1e-300), st.floats(-10.0, 10.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(start=finite_floats, stop=finite_floats, num=st.integers(1, 50))
def test_parse_range_is_bit_equal_to_linspace_everywhere(start, stop, num):
    _range_matches_linspace(start, stop, num)


def test_initial_data_presets():
    cfg = load_config(text=BASE)
    u0, u1, theta0, f0 = make_initial_data(cfg)
    g = cfg.grid
    assert np.allclose(u0, np.sin(math.pi * g.x_nodes))
    assert np.max(np.abs(u1)) == 0.0
    assert np.allclose(theta0, np.cos(math.pi * g.x_flux))
    # constant history equals the discrete u_x of u0 at the flux points
    ux0 = np.diff(u0, prepend=0.0, append=0.0) / g.dx
    assert np.allclose(f0(g.x_flux, -0.3), ux0)


def test_initial_data_decaying_history():
    cfg = load_config(text=BASE, overrides=["init.f0=decaying_exponential:2.0"])
    _, _, _, f0 = make_initial_data(cfg)
    g = cfg.grid
    a = f0(g.x_flux, 0.0)
    b = f0(g.x_flux, -1.0)
    assert np.allclose(b, a * math.exp(-2.0))


def test_unknown_presets_rejected():
    # presets are checked when the config is loaded: each key takes only its
    # own kinds, and only a kind with an argument takes a ':'
    for bad in ("init.u0=wavelet", "init.f0=mystery", "init.theta0=cosine:x",
                "init.f0=decaying_exponential:fast", "init.u0=bump:7",
                "init.u0=zero:3", "init.f0=zero:5", "init.f0=constant_history:2",
                "init.u0=cosine:2", "init.u1=cosine:1", "init.theta0=sine:2",
                "init.theta0=bump"):
        with pytest.raises(ConfigError, match=bad.split("=")[0] + ": "):
            load_config(text=BASE, overrides=[bad])


def test_history_rate_must_be_finite():
    for rate in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="init.f0 rate must be finite"):
            load_config(text=BASE, overrides=[f"init.f0=decaying_exponential:{rate}"])


def test_higher_mode_presets():
    cfg = load_config(text=BASE, overrides=["init.u0=sine:3", "init.theta0=cosine:2"])
    u0, _, theta0, _ = make_initial_data(cfg)
    g = cfg.grid
    assert np.allclose(u0, np.sin(3 * math.pi * g.x_nodes))
    assert np.allclose(theta0, np.cos(2 * math.pi * g.x_flux))


def test_bump_preset():
    cfg = load_config(text=BASE, overrides=["init.u0=bump", "model.ell=2"])
    u0 = make_initial_data(cfg)[0]
    x, ell = cfg.grid.x_nodes, 2.0
    assert np.array_equal(u0, np.exp(-100.0 * (x / ell - 0.5) ** 2)
                          * np.sin(math.pi * x / ell))
