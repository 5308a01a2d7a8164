"""Property tests: packed-state round trip, theta-mass conservation,
config validation under hostile overrides, and the CLI commands under
hostile parameters."""

import contextlib
import ctypes
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from thermodelay import spectral
from thermodelay.cli import main
from thermodelay.config import (DEFAULTS, SWEEPABLE, ConfigError, RunConfig,
                                load_config)
from thermodelay.delay import HistoryBuffer
from thermodelay.discretization import (Grid, assemble_generator, pack,
                                        random_state, unpack)
from thermodelay.integrate import factor_implicit, step_imex
from thermodelay.observables import theta_mass
from thermodelay.params import PhysParams

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

grids = st.builds(Grid, Nx=st.integers(3, 40), Nrho=st.integers(2, 12),
                  ell=st.floats(0.25, 4.0))
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(grid=grids, theta_bc=st.sampled_from(["neumann", "dirichlet"]),
       domain=st.booleans(), seed=seeds)
def test_pack_unpack_round_trip(grid, theta_bc, domain, seed):
    p = PhysParams(theta_bc=theta_bc, ell=grid.ell)
    s = random_state(grid, p, np.random.default_rng(seed), domain=domain)
    vec = pack(s)
    assert vec.shape == (grid.dim,)
    back = unpack(vec, grid)
    for name in ("u", "v", "z", "theta"):
        assert np.array_equal(getattr(back, name), getattr(s, name))
    assert np.array_equal(pack(back), vec)
    back.u[0] += 1.0                       # unpack copies: vec is untouched
    assert np.array_equal(pack(unpack(vec, grid)), vec)


@PROPERTY
@given(grid=grids, beta=st.floats(0.0, 10.0), gamma=st.floats(0.0, 5.0),
       kappa=st.floats(0.0, 10.0), weight=st.sampled_from([0.5, 1.0]),
       mean=st.floats(-10.0, 10.0), seed=seeds)
def test_step_conserves_neumann_theta_mass(grid, beta, gamma, kappa, weight,
                                           mean, seed):
    # with zero heat flux at both ends, the heat operator and the coupling
    # -gamma G v both have zero column sums, so every step keeps the mass of
    # theta up to the rounding of one sparse solve
    p = PhysParams(alpha=1.0, beta=beta, gamma=gamma, kappa=kappa, tau=1.0,
                   ell=grid.ell, theta_bc="neumann")
    dt = p.tau / grid.Nrho
    s = random_state(grid, p, np.random.default_rng(seed))
    s.theta += mean
    fac = factor_implicit(assemble_generator(grid, p), dt, theta_weight=weight)
    buf = HistoryBuffer(s.z.copy())
    mass0 = theta_mass(s, grid)
    # backward error of the solve: eps times |implicit| times the iterate
    unit = (np.finfo(float).eps * grid.dx
            * spla.norm(fac.implicit, np.inf) * grid.ntheta)
    bound = 0.0
    for _ in range(grid.Nrho + 1):
        s = step_imex(s, dt, fac, buf)
        bound += unit * max(np.abs(s.v).max(), np.abs(s.theta).max())
        assert abs(theta_mass(s, grid) - mass0) <= 10.0 * bound + 1e-15 * abs(mass0)


@PROPERTY
@given(nx=st.integers(3, 20), nrho=st.integers(2, 40), data=st.data(), seed=seeds)
def test_history_buffer_matches_the_shifted_copy(nx, nrho, data, seed):
    # pushes cross several chunk rollovers; the reference shifts a copy
    pushes = data.draw(st.integers(0, 5 * (nrho + 1)), label="pushes")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((nx + 1, nrho + 1))
    buf = HistoryBuffer(z.copy())
    held = [(buf.as_field(), z)]
    for _ in range(pushes):
        ux = rng.standard_normal(nx + 1)
        z = np.column_stack([ux, z[:, :-1]])
        buf.push(ux)
        field = buf.as_field()
        assert field.tobytes() == z.tobytes()
        assert np.array_equal(buf.tail(), z[:, -1])
        assert np.array_equal(buf.z[:, -2], z[:, -2])
        held.append((field, z))
    for field, want in held:                 # no push rewrote a handed-out z
        assert field.tobytes() == want.tobytes()


# every key the schema takes, and values that probe each check: zero,
# negative, non-finite, huge, tiny, empty, garbage and malformed ranges;
# range counts stay at most 300, since parse_range allocates them
CONFIG_KEYS = sorted([f"{sec}.{key}" for sec, keys in DEFAULTS.items() for key in keys]
                     + [f"sweep.{key}" for key in SWEEPABLE])
CONFIG_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-300", "",
                 "garbage", "true", "0.5", "2", "7", "0.5,2", "1,,nan", "1:2",
                 "1:2:3:4", "a:b:2", "0.5:3:0", "1:2:-1", "2:1:3", "0.5:3:300",
                 "sine:1", "cosine:x", "bump", "neumann", "dirichlet"]
overrides = st.lists(st.tuples(st.sampled_from(CONFIG_KEYS),
                               st.sampled_from(CONFIG_VALUES)
                               | st.floats().map(repr)),
                     min_size=1, max_size=3)
CONFIG = "[model]\nbeta = 4.6\n[grid]\nnx = 8\nnrho = 8\n[time]\nt_end = 6.0\n"


@contextlib.contextmanager
def _printed():
    """Capture what a CLI run prints besides its stdout report: Python's
    stderr, warnings, and any line native code writes straight to file
    descriptors 1 or 2 (LAPACK's error handler prints `** On entry to ...`
    to fd 1).  After the block, `.lines` counts all of them."""
    err = io.StringIO()
    libc = ctypes.CDLL(None)
    with tempfile.TemporaryFile("w+") as native, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")    # each would print to stderr
        saved = [os.dup(1), os.dup(2)]
        libc.fflush(None)
        for fd in (1, 2):
            os.dup2(native.fileno(), fd)
        out = SimpleNamespace()
        try:
            yield out
        finally:
            libc.fflush(None)              # C stdio buffers fd 1 in a file
            for fd, copy in zip((1, 2), saved):
                os.dup2(copy, fd)
                os.close(copy)
            native.seek(0)
            out.stderr, out.native = err.getvalue(), native.read()
            out.warnings = [str(w.message) for w in caught]
            out.lines = (out.stderr.count("\n") + out.native.count("\n")
                         + len(out.warnings))


@PROPERTY
@given(overrides=overrides)
@example(overrides=[("time.t_end", "1e308")])    # was an OverflowError
@example(overrides=[("time.t_end", "1e300")])    # was 8e300 steps, accepted
def test_load_config_returns_or_raises_config_error(overrides):
    try:
        cfg = load_config(text=CONFIG, overrides=[f"{k}={v}" for k, v in overrides])
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@PROPERTY
@given(overrides=overrides)
# each of these once ended in a traceback, exit 3 or a RuntimeWarning
@example(overrides=[("model.beta", "5"), ("lyapunov.lambda_grid", "0.5:3:0")])
@example(overrides=[("model.gamma", "0")])
@example(overrides=[("model.alpha", "0"), ("model.beta", "")])
@example(overrides=[("lyapunov.xi_factor", "inf")])
@example(overrides=[("time.t_end", "1e308")])
@example(overrides=[("time.t_end", "1e300")])
@example(overrides=[("lyapunov.lambda", "1e308"), ("model.beta", "")])
@example(overrides=[("lyapunov.lambda", "1e-300")])
@example(overrides=[("model.ell", "1e308")])
@example(overrides=[("model.beta", "1e-300")])
def test_certify_exits_0_1_or_2_with_at_most_one_error_line(overrides):
    with tempfile.TemporaryDirectory() as tmp, _printed() as printed:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(CONFIG)
        argv = ["certify", "--config", str(cfg), "--out", str(Path(tmp) / "out")]
        for key, value in overrides:
            argv += ["--override", f"{key}={value}"]
        code = main(argv)
    assert code in (0, 1, 2)
    assert printed.lines <= 1, printed


SWEEP_CONFIG = ("[model]\ntheta_bc = dirichlet\n[lyapunov]\nlambda = 0.5\n"
                "[sweep]\nspectrum = true\nworkers = 2\n")


def _sweep_rows(out: Path) -> list[list[str]]:
    return [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]


def _dense_abscissa(gen) -> float:
    """The dense oracle of the abscissa: the rightmost QR eigenvalue of the
    reduced generator's blocks (reduced_eigvals), refined by shifted inverse
    iteration for its right and left eigenvectors and their two-sided
    Rayleigh quotient, whose error is quadratic in theirs.  At large
    parameters the QR value alone is good only to about eps ||R||.  Where
    the quotient does not settle, the QR value is no eigenvalue to working
    precision and is kept as it is."""
    w = spectral.reduced_eigvals(gen)[0]
    lam = w[np.argmax(w.real)]
    R = spectral.reduced_generator(gen).toarray()
    lu = sla.lu_factor(R - (lam + 1e-8 * (1.0 + abs(lam))) * np.eye(len(R)))
    x = y = np.random.default_rng(0).standard_normal(len(R)) + 0j
    quotients = []
    for _ in range(4):
        x = sla.lu_solve(lu, x)
        x /= np.linalg.norm(x)
        y = sla.lu_solve(lu, y, trans=2)        # (R - shift)^H y_new = y
        y /= np.linalg.norm(y)
        quotients.append(np.vdot(y, R @ x) / np.vdot(y, x))
    settled = abs(quotients[-1] - quotients[-2]) <= 1e-13 * (1.0 + abs(lam))
    return float(quotients[-1].real if settled else lam.real)


@PROPERTY
@given(nx=st.integers(3, 10), nrho=st.integers(2, 10),
       steps=st.integers(1, 16), name=st.sampled_from(SWEEPABLE),
       values=st.lists(st.floats(0.0, 8.0) | st.sampled_from(["0", "-1", "1e6"]),
                       min_size=1, max_size=3))
# the energy overflows: the decay fit warned twice on stderr
@example(nx=3, nrho=2, steps=5, name="ell", values=[5.477282865432251e-30])
# the QR eigenvalue alone misses by 7.9e-10; refined, it agrees to 1e-15
# with the counted one and with a 50-digit eigensolve of the parity block
@example(nx=4, nrho=7, steps=1, name="kappa", values=["1e6"])
def test_dirichlet_sweep_exits_cleanly_with_the_dense_abscissa(nx, nrho, steps,
                                                               name, values):
    # every abscissa in sweep.csv is the counted one; the oracle is the dense
    # parity blocks of the same point, refined (_dense_abscissa)
    with tempfile.TemporaryDirectory() as tmp, _printed() as printed:
        cfg = Path(tmp) / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        out = Path(tmp) / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--override", f"grid.nx={nx}", "--override", f"grid.nrho={nrho}",
                     "--override", f"time.t_end={steps / nrho!r}",
                     "--override", f"sweep.{name}={','.join(map(str, values))}"])
        rows = _sweep_rows(out) if code == 0 else []
    assert code in (0, 1, 2, 3)
    assert printed.lines <= 1, printed
    base = load_config(text=SWEEP_CONFIG)
    for row in rows:
        if not row[6]:
            continue
        p = PhysParams(**{**base.params.__dict__, name: float(row[1])})
        gen = assemble_generator(Grid(Nx=nx, Nrho=nrho, ell=p.ell), p)
        ref = _dense_abscissa(gen)
        assert abs(float(row[6]) - ref) <= 1e-10 * (1.0 + abs(ref)), row


MODEL_KEYS = ("alpha", "beta", "gamma", "kappa", "tau", "ell")
model_values = st.floats(0.0, 8.0) | st.sampled_from([0.0, -1.0, 1e6])


@PROPERTY
@given(nx=st.integers(3, 10), nrho=st.integers(2, 10), steps=st.integers(1, 16),
       record_every=st.integers(1, 5),
       theta_bc=st.sampled_from(["neumann", "dirichlet"]),
       model=st.dictionaries(st.sampled_from(MODEL_KEYS), model_values,
                             max_size=len(MODEL_KEYS)))
# xi = 2 tau alpha^2 / beta underflowed to 0: energy raised a ValueError
@example(nx=3, nrho=2, steps=1, record_every=1, theta_bc="neumann",
         model={"alpha": 2.2250738585072014e-308, "beta": 0.0})
# times of order 1e-300: polyfit divided by zero, then LAPACK printed errors
@example(nx=10, nrho=2, steps=1, record_every=1, theta_bc="neumann",
         model={"alpha": 1.66, "beta": 1.9, "gamma": 1e-300, "kappa": 1e-300,
                "tau": 1e-300, "ell": 1.99})
def test_simulate_exits_cleanly_with_every_record(nx, nrho, steps, record_every,
                                                  theta_bc, model):
    # model keys not drawn keep CONFIG's values; t_end is steps whole steps
    # of tau/nrho, so an accepted run records the initial state, every
    # record_every-th step and the last one
    with tempfile.TemporaryDirectory() as tmp, _printed() as printed:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(CONFIG)
        out = Path(tmp) / "out"
        overrides = {"grid.nx": nx, "grid.nrho": nrho,
                     "time.t_end": repr(steps * model.get("tau", 1.0) / nrho),
                     "time.record_every": record_every,
                     "model.theta_bc": theta_bc,
                     **{f"model.{k}": repr(v) for k, v in model.items()}}
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        for key, value in overrides.items():
            argv += ["--override", f"{key}={value}"]
        code = main(argv)
        lines = ((out / "traj.csv").read_text().strip().split("\n")
                 if code == 0 else [])
    assert code in (0, 1, 3)
    assert printed.lines <= 1, printed
    if code == 0:
        assert len(lines) - 2 == 1 + -(-steps // record_every)


@PROPERTY
@given(nx=st.integers(3, 10), nrho=st.integers(2, 10),
       theta_bc=st.sampled_from(["neumann", "dirichlet"]),
       model=st.dictionaries(st.sampled_from(MODEL_KEYS),
                             st.floats(0.0, 8.0)
                             | st.sampled_from([0.0, -1.0, 1e6, 1e300]),
                             max_size=len(MODEL_KEYS)))
# the inverse iteration overflowed: two RuntimeWarnings, NaN in both files
@example(nx=3, nrho=6, theta_bc="neumann", model={"beta": 1.0, "gamma": 1e300})
def test_spectrum_exits_cleanly_with_every_eigenvalue(nx, nrho, theta_bc, model):
    # an accepted run lists every eigenvalue of the reduced generator, all
    # finite: 2 nx (u, v) + (nx + 1) nrho (z at rho > 0) + nx + 1 (theta),
    # less the theta mean with Neumann theta
    with tempfile.TemporaryDirectory() as tmp, _printed() as printed:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(CONFIG)
        out = Path(tmp) / "out"
        overrides = {"grid.nx": nx, "grid.nrho": nrho, "model.theta_bc": theta_bc,
                     **{f"model.{k}": repr(v) for k, v in model.items()}}
        argv = ["spectrum", "--config", str(cfg), "--out", str(out)]
        for key, value in overrides.items():
            argv += ["--override", f"{key}={value}"]
        code = main(argv)
        if code == 0:
            summary = json.loads((out / "summary.json").read_text())
            rows = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=2,
                              ndmin=2)
    assert code in (0, 1, 3)
    assert printed.lines <= 1, printed
    if code == 0:
        n = 2 * nx + (nx + 1) * (nrho + 1) - (theta_bc == "neumann")
        assert summary["n_eigenvalues"] == n
        assert rows.shape == (n, 2) and np.isfinite(rows).all()
        assert np.isfinite(summary["abscissa"])
