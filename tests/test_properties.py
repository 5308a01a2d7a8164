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

import mpmath
import numpy as np
import scipy.linalg as sla
from hypothesis import assume, example, given, settings, strategies as st

from thermodelay import spectral
from thermodelay.cli import main
from thermodelay.config import (DEFAULTS, SWEEPABLE, ConfigError, RunConfig,
                                check_steps, load_config)
from thermodelay.delay import HistoryBuffer
from thermodelay.discretization import Grid
from thermodelay.integrate import factor_implicit, step_imex
from thermodelay.observables import theta_mass
from thermodelay.params import PhysParams

import oracles
from oracles import modal_start, pack, random_state, unpack
# the real-space generator under the name the sweep property calls it by:
# with derandomize, Hypothesis draws a test's examples from a digest of its
# source, so a renamed call there would draw other examples
from oracles import real_space_generator as assemble_generator

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
    # -gamma G v both have zero column sums: the theta mean is its own
    # Fourier mode, which no step touches, so the mass is kept to the bit
    p = PhysParams(alpha=1.0, beta=beta, gamma=gamma, kappa=kappa, tau=1.0,
                   ell=grid.ell, theta_bc="neumann")
    s = random_state(grid, p, np.random.default_rng(seed))
    s.theta += mean
    fac = factor_implicit(grid, p, theta_weight=weight)
    s, buf = modal_start(s)
    mass0 = theta_mass(s, grid)
    for _ in range(grid.Nrho + 1):
        s = step_imex(s, fac, buf)
        assert theta_mass(s, grid) == mass0


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
        check_steps(cfg)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@PROPERTY
@given(overrides=overrides)
# each of these once ended in a traceback, exit 3 or a RuntimeWarning
@example(overrides=[("model.beta", "5"), ("lyapunov.lambda_grid", "0.5:3:0")])
@example(overrides=[("model.gamma", "0")])
@example(overrides=[("model.alpha", "0"), ("model.beta", "")])
@example(overrides=[("time.t_end", "1e308")])
@example(overrides=[("time.t_end", "1e300")])
@example(overrides=[("lyapunov.lambda_grid", "1e308"), ("model.beta", "")])
@example(overrides=[("lyapunov.lambda_grid", "1e-300")])
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


SWEEP_CONFIG = ("[model]\ntheta_bc = dirichlet\n[lyapunov]\nlambda_grid = 0.5\n"
                "[sweep]\nspectrum = true\nworkers = 2\n")


def _sweep_rows(out: Path) -> list[list[str]]:
    return [r.split(",") for r in
            (out / "sweep.csv").read_text().strip().split("\n")[2:]]


def _dense_abscissa(gen) -> float:
    """The dense oracle of the abscissa: the rightmost QR eigenvalue of the
    reduced generator's blocks (spectral._blocks, as
    oracles.reduced_eigvals takes them), refined by shifted inverse
    iteration for its right and left eigenvectors and their two-sided
    Rayleigh quotient, whose error is quadratic in theirs.  At large
    parameters the QR value alone is good only to about eps ||R||.  Where
    the quotient does not settle, the QR value is no eigenvalue to working
    precision.  It stands where its block's QR bound n eps ||B||_1 lies well
    inside the test's 1e-10; elsewhere, and only there, since it takes
    seconds for a block of 60 rows, the rightmost eigenvalue of a 30-digit
    eigensolve (mpmath.eig) of its parity block takes its place."""
    blocks = spectral._blocks(gen.grid, gen.p, solve=True)
    w = np.concatenate([v for v, *_ in blocks])
    lam = w[np.argmax(w.real)]
    R = oracles.reduced_generator(gen).toarray()
    lu = sla.lu_factor(R - (lam + 1e-8 * (1.0 + abs(lam))) * np.eye(len(R)))
    x = y = np.random.default_rng(0).standard_normal(len(R)) + 0j
    quotients = []
    for _ in range(4):
        x = sla.lu_solve(lu, x)
        x /= np.linalg.norm(x)
        y = sla.lu_solve(lu, y, trans=2)        # (R - shift)^H y_new = y
        y /= np.linalg.norm(y)
        quotients.append(np.vdot(y, R @ x) / np.vdot(y, x))
    if abs(quotients[-1] - quotients[-2]) <= 1e-13 * (1.0 + abs(lam)):
        return float(quotients[-1].real)
    err, parity = next((err, parity) for v, err, _, parity in blocks if lam in v)
    if parity is None or err <= 1e-11 * (1.0 + abs(lam)):
        return float(lam.real)
    with mpmath.workdps(30):
        eig = mpmath.eig(mpmath.matrix(parity[0].toarray().tolist()), left=False, right=False)
        return float(max(mpmath.re(z) for z in eig))


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
# QR alone put these abscissae 4e-10 (a wrong sign) and 5e-9 off
@example(nx=4, nrho=2, steps=1, name="gamma", values=["1e6"])
@example(nx=5, nrho=2, steps=1, name="beta", values=["1e6"])
# QR gives +9.45e-10 and the quotient does not settle; the oracle's 30-digit
# eigensolve gives -3.600000000126e-11, the sweep the 60-digit -3.6000000001206e-11
@example(nx=5, nrho=2, steps=1, name="gamma", values=["1e6"])
def test_dirichlet_sweep_exits_cleanly_with_the_dense_abscissa(nx, nrho, steps,
                                                               name, values):
    # every abscissa in sweep.csv is the counted one; the oracle is the dense
    # parity blocks of the same point, refined (_dense_abscissa).  Each point
    # runs `steps` steps of tau/nrho: a positive tau gets a sweep of its own
    # with t_end = steps tau/nrho (and model.tau = tau, on whose step grid
    # the config checks t_end); the other draws share t_end = steps/nrho.
    runs = [(values, steps / nrho, [])]
    if name == "tau":
        rest = [v for v in values if float(v) <= 0.0]
        runs = ([([v], steps * float(v) / nrho, ["--override", f"model.tau={v}"])
                 for v in values if float(v) > 0.0]
                + ([(rest, steps / nrho, [])] if rest else []))
    rows = []
    for swept, t_end, extra in runs:
        with tempfile.TemporaryDirectory() as tmp, _printed() as printed:
            cfg = Path(tmp) / "sweep.ini"
            cfg.write_text(SWEEP_CONFIG)
            out = Path(tmp) / "out"
            code = main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--override", f"grid.nx={nx}", "--override", f"grid.nrho={nrho}",
                         "--override", f"time.t_end={t_end!r}", *extra,
                         "--override", f"sweep.{name}={','.join(map(str, swept))}"])
            rows += _sweep_rows(out) if code == 0 else []
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


coefficients = st.floats(0.1, 5.0)
log_scales = st.floats(-2.0, 2.0)


@settings(PROPERTY, max_examples=40)     # four spectra each; about 2 s
@given(nx=st.integers(3, 10), nrho=st.integers(2, 10),
       theta_bc=st.sampled_from(["neumann", "dirichlet"]), alpha=coefficients,
       beta=coefficients, gamma=coefficients, kappa=coefficients,
       log_tau=log_scales, log_ell=log_scales)
def test_spectrum_obeys_the_scaling_law(nx, nrho, theta_bc, alpha, beta, gamma,
                                        kappa, log_tau, log_ell):
    # time scaled by tau and space by ell: the groups alpha tau^2/ell^2,
    # beta tau/ell^2, gamma tau/ell and kappa tau/ell^2 at tau = ell = 1
    # have the spectrum times tau, on the same nx x nrho grid
    tau, ell = np.exp(log_tau), np.exp(log_ell)
    p = PhysParams(alpha=alpha, beta=beta, gamma=gamma, kappa=kappa, tau=tau,
                   ell=ell, theta_bc=theta_bc)
    q = PhysParams(alpha=alpha * tau**2 / ell**2, beta=beta * tau / ell**2,
                   gamma=gamma * tau / ell, kappa=kappa * tau / ell**2,
                   theta_bc=theta_bc)
    grid, unit = Grid(Nx=nx, Nrho=nrho, ell=ell), Grid(Nx=nx, Nrho=nrho)
    w = np.sort_complex(oracles.reduced_eigvals(grid, p)[0])
    w_scaled = np.sort_complex(oracles.reduced_eigvals(unit, q)[0]) / tau
    radius = np.abs(w).max()
    assert np.abs(w - w_scaled).max() <= 1e-12 * radius
    a = spectral.spectral_abscissa(grid, p)[0]
    a_scaled = spectral.spectral_abscissa(unit, q)[0] / tau
    assert abs(a - a_scaled) <= max(1e-10 * abs(a), 1e-12 * radius)


@settings(PROPERTY, max_examples=150)     # two counts each; about 1.5 s
@given(nx=st.integers(3, 12), nrho=st.integers(2, 8),
       logs=st.lists(log_scales, min_size=6, max_size=6))
def test_dirichlet_count_matches_the_dense_count(nx, nrho, logs):
    # both parity blocks, the left edge x0 placed as _counted_rightmost
    # places it, from the dense rightmost eigenvalue, and no known point
    # given, so the sampling alone must find every zero.  An eigenvalue or
    # pole within 1e-6 of the line Re s = x0 may sit on the wrong side of it
    # in QR's rounding, or be passed by the samples, so such a draw is
    # rejected
    alpha, beta, gamma, kappa, tau, ell = 10.0 ** np.array(logs)
    p = PhysParams(alpha=alpha, beta=beta, gamma=gamma, kappa=kappa, tau=tau,
                   ell=ell, theta_bc="dirichlet")
    g = Grid(Nx=nx, Nrho=nrho, ell=ell)
    poles, modes, R, idx, *_ = spectral._mode_eigvals(g, p)
    for M, theta in spectral._parity_blocks(g, p, R, idx):
        D = spectral._parity_poles(theta, poles, modes)
        w = sla.eigvals(M.toarray())
        a = w.real.max()
        lo = max(a - 1e-3 * (1.0 + abs(a)),
                 w.real[w.real < a - 1e-8 * (abs(a) or 1.0)].max(initial=-np.inf))
        cuts = np.sort(np.r_[lo, a, D.real[(D.real > lo) & (D.real < a)]])
        i = int(np.argmax(np.diff(cuts)))
        x0 = 0.5 * (cuts[i] + cuts[i + 1])
        assume(np.abs(np.r_[w, D].real - x0).min() > 1e-6 * (1.0 + abs(x0)))
        assert spectral._count_right_of(x0, theta, D, np.array([]), g, p) == np.sum(w.real > x0)


# the first 100 draws of the Dirichlet scan, seed 7: nx 3-16, nrho 2-8, one
# of alpha..ell log-uniform in [1, 1e6] and the others in [0.1, 10], beta = 0
# in half of the draws where beta is not the large one.  Counts that fail
# (_counted_rightmost gives None) and blocks sharpened by shift-invert
# (_sharpened), on QR's poles and on poles polished where QR cannot place
# them (_settle)
ROUTE_ON_QR_POLES = {"failed counts": 15, "sharpened": 12}
ROUTE = {"failed counts": 10, "sharpened": 7}


def test_the_dirichlet_route_falls_back_no_more_often(monkeypatch):
    assert all(ROUTE[k] < ROUTE_ON_QR_POLES[k] for k in ROUTE)
    seen = dict.fromkeys(ROUTE, 0)
    count, sharpen = spectral._counted_rightmost, spectral._sharpened

    def counted(*args):
        lam = count(*args)
        seen["failed counts"] += lam is None
        return lam

    def sharpened(M, w):
        seen["sharpened"] += 1
        return sharpen(M, w)

    monkeypatch.setattr(spectral, "_counted_rightmost", counted)
    monkeypatch.setattr(spectral, "_sharpened", sharpened)
    rng = np.random.default_rng(7)
    for _ in range(100):
        nx, nrho, large = int(rng.integers(3, 17)), int(rng.integers(2, 9)), int(rng.integers(6))
        logs = rng.uniform(-1.0, 1.0, 6)
        logs[large] = rng.uniform(0.0, 6.0)
        values = 10.0 ** logs
        if large != 1 and rng.random() < 0.5:
            values[1] = 0.0
        p = PhysParams(*map(float, values), theta_bc="dirichlet")
        spectral.spectral_abscissa(Grid(Nx=nx, Nrho=nrho, ell=p.ell), p)
    assert all(seen[k] <= ROUTE[k] for k in ROUTE), seen


MODEL_KEYS = ("alpha", "beta", "gamma", "kappa", "tau", "ell")
model_values = st.floats(0.0, 8.0) | st.sampled_from([0.0, -1.0, 1e6])
histories = (st.sampled_from(["constant_history", "zero"])
             | st.floats().map(lambda rate: f"decaying_exponential:{rate!r}"))


@PROPERTY
@given(nx=st.integers(3, 10), nrho=st.integers(2, 10), steps=st.integers(1, 16),
       record_every=st.integers(1, 5),
       theta_bc=st.sampled_from(["neumann", "dirichlet"]),
       model=st.dictionaries(st.sampled_from(MODEL_KEYS), model_values,
                             max_size=len(MODEL_KEYS)),
       f0=histories)
# xi = 2 tau alpha^2 / beta underflowed to 0: energy raised a ValueError
@example(nx=3, nrho=2, steps=1, record_every=1, theta_bc="neumann",
         model={"alpha": 2.2250738585072014e-308, "beta": 0.0},
         f0="constant_history")
# times of order 1e-300: polyfit divided by zero, then LAPACK printed errors
@example(nx=10, nrho=2, steps=1, record_every=1, theta_bc="neumann",
         model={"alpha": 1.66, "beta": 1.9, "gamma": 1e-300, "kappa": 1e-300,
                "tau": 1e-300, "ell": 1.99}, f0="constant_history")
# e^{800 tau} overflowed while sampling the history: a traceback, exit 1
@example(nx=8, nrho=4, steps=4, record_every=1, theta_bc="neumann",
         model={"beta": 4.5}, f0="decaying_exponential:-800")
def test_simulate_exits_cleanly_with_every_record(nx, nrho, steps, record_every,
                                                  theta_bc, model, f0):
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
                     "model.theta_bc": theta_bc, "init.f0": f0,
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
# the generator overflowed, in assembly or in the modal symbol g^2 at a tiny
# ell: RuntimeWarnings, then eigvals raised a ValueError
@example(nx=3, nrho=4, theta_bc="neumann", model={"alpha": 1e308})
@example(nx=3, nrho=4, theta_bc="dirichlet", model={"alpha": 1e308})
@example(nx=3, nrho=4, theta_bc="neumann", model={"ell": 1e-160})
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
