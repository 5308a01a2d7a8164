"""Closed-form constants, stability conditions and the damping threshold."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from thermodelay import constants
from thermodelay.constants import (InfeasibleLambdaError, NoFeasibleLambdaError,
                                   certify, check_conditions, f_weight,
                                   find_beta0, lyapunov_constants,
                                   n0_from_constants)
from thermodelay.params import PhysParams

from oracles import n1_equality_residual

UNIT = PhysParams(alpha=1.0, beta=1.0, gamma=1.0, kappa=1.0, tau=1.0, ell=1.0)
LAMBDA_GRID = list(np.linspace(0.5, 3.0, 11))     # the config default


def _row(rep, name):
    return next(r for r in rep["conditions"] if r["name"] == name)


def _consts(lam, beta=None):
    p = UNIT.with_beta(beta if beta is not None else math.exp(4.0 * lam))
    return lyapunov_constants(p, lam), p


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_lambda_identity_exact(lam):
    c, _ = _consts(lam)
    # Lambda is defined as the sum of the head and tail weights
    assert abs(c.Lambda - c.Psi - c.Gamma) <= 4 * np.spacing(c.Lambda)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_phi_closed_form_vs_quadrature(lam):
    c, _ = _consts(lam)
    ref, _ = quad(lambda r: f_weight(r, lam) ** 2, 0.0, 1.0)
    assert abs(c.Phi - ref) <= 1e-10 * ref


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_f_weight_ode_residual_second_order(lam):
    # (e^{-lam rho} f)' = -e^{-2 lam rho}; central differences converge at order 2
    errs = []
    for n in (32, 64, 128):
        rho = np.linspace(0.0, 1.0, n + 1)
        g = np.exp(-lam * rho) * f_weight(rho, lam)
        d = (g[2:] - g[:-2]) / (2.0 / n)
        errs.append(np.max(np.abs(d + np.exp(-2.0 * lam * rho[1:-1]))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_f_weight_endpoints_and_domain():
    lam = 1.3
    # f(1) e^{-lam} equals the tail weight Psi
    c, _ = _consts(lam)
    assert f_weight(1.0, lam) * math.exp(-lam) == pytest.approx(c.Psi, rel=1e-14)
    assert f_weight(0.0, lam) == pytest.approx(
        (1.0 - math.exp(-4.0 * lam)) / (2.0 * lam), rel=1e-14)
    with pytest.raises(ValueError):
        f_weight(1.5, lam)
    with pytest.raises(ValueError):
        f_weight(0.5, -1.0)


def test_small_lambda_infeasible():
    with pytest.raises(InfeasibleLambdaError):
        lyapunov_constants(UNIT, 0.1)


def test_extreme_lambdas_infeasible_before_any_division():
    # lam -> 0 divides by zero and lam -> inf overflows in Gamma and Phi,
    # but A <= 1 rules both out first
    for lam in (1e-300, 1e308):
        with pytest.raises(InfeasibleLambdaError, match="A = "):
            lyapunov_constants(UNIT, lam)


def test_lambda_is_feasible_exactly_where_a_exceeds_1():
    # sampled, not proven (the proof is _beta_free_constants' docstring): a
    # geometric grid over [1e-3, 1e3] and dense points around both ends of
    # the feasible interval, lam_min = 0.45160... and about 18.37
    lams = np.unique(np.concatenate([np.geomspace(1e-3, 1e3, 2001),
                                     np.linspace(0.4515, 0.4517, 201),
                                     np.linspace(18.30, 18.45, 301)]))
    feasible = []
    for lam in map(float, lams):
        h = math.exp(-2.0 * lam)
        A = 1.0 + h - h**2 - 2.0 * h**3 - 4.0 * h**4     # as the code computes it
        feasible.append(A > 1.0)
        if A > 1.0:
            c = lyapunov_constants(UNIT, lam)
            assert all(0.0 < x < math.inf for x in (c.b, c.eps2, c.eps3)), lam
        else:
            with pytest.raises(InfeasibleLambdaError, match=r"^lambda infeasible: A = "):
                lyapunov_constants(UNIT, lam)
    # one interval: infeasible, feasible, infeasible again
    assert feasible[0] is feasible[-1] is False
    assert sum(a != b for a, b in zip(feasible, feasible[1:])) == 2


def test_certify_fails_past_the_float_range():
    # alpha**2 overflows: no certificate, and no OverflowError either
    rep = certify(PhysParams(alpha=1e300, beta=1.0), 0.5)
    assert not rep["verdict"]
    assert _row(rep, "float-range")["lhs"] == math.inf
    # no constants exist at lambda = 300 or 1e308 (A rounds to 1), and at
    # alpha = 1e308 the thresholds overflow: every lambda is skipped
    with pytest.raises(NoFeasibleLambdaError):
        find_beta0(UNIT, [300.0, 1e308])
    with pytest.raises(NoFeasibleLambdaError):
        find_beta0(PhysParams(alpha=1e308), [0.5])


def test_large_beta_witness_passes():
    hits = [lam for lam in range(1, 11)
            if certify(UNIT.with_beta(math.exp(4.0 * lam)), float(lam))["verdict"]]
    assert hits, "no lambda on [1,10] certifies beta = e^{4 lam}"


def test_beta_zero_fails_xi_bound():
    rep = certify(UNIT.with_beta(0.0), 1.0)
    assert not rep["verdict"]
    assert not _row(rep, "xi-bound")["satisfied"]


def test_condition_report_records_all_inequalities():
    c, p = _consts(0.5, beta=5.0)
    rep = check_conditions(c, p)
    names = [r["name"] for r in rep["conditions"]]
    assert names == ["xi-bound", "eqfond0", "eqfond2", "eqfond1", "ep67-pair",
                     "ep67prime", "eqfond3"]
    assert rep["verdict"] == all(r["satisfied"] for r in rep["conditions"])
    assert math.isfinite(rep["eps4"])


def test_find_beta0_crossing():
    grid = [0.5, 0.6, 0.8, 1.0, 1.5, 2.0]
    res = find_beta0(UNIT, grid)
    b0 = res["beta0"]
    assert b0 > 0
    assert any(certify(UNIT.with_beta(1.001 * b0), lam)["verdict"] for lam in grid)
    assert not any(certify(UNIT.with_beta(0.999 * b0), lam)["verdict"] for lam in grid)


def _assert_crossing(p, grid, res, rel_tol=1e-12):
    """beta0 certifies at its lambda, and no lambda on the grid certifies
    beta0 (1 - rel_tol): beta0 is the closed-form threshold, not a bracket."""
    b0 = res["beta0"]
    assert certify(p.with_beta(b0), res["lambda_star"])["verdict"]
    assert not any(certify(p.with_beta(b0 * (1.0 - rel_tol)), lam)["verdict"]
                   for lam in grid)


@pytest.mark.parametrize("p, beta0", [
    # beta = alpha tau e^{4 lam} fails at lambda = 0.5 in both: the crossing
    # lies above it (1.0819 > 0.1 e^2, 0.4379 > 0.025 e^2); ep67prime binds
    # in the first
    (PhysParams(tau=0.1), 1.0819056),
    (PhysParams(alpha=0.05, gamma=0.3, tau=0.5, ell=2.0), 0.4378535),
])
def test_find_beta0_crossing_above_a_failing_witness(p, beta0):
    res = find_beta0(p, LAMBDA_GRID)
    assert res["lambda_star"] == 0.5
    assert res["beta0"] == pytest.approx(beta0, rel=1e-6)
    assert not certify(p.with_beta(p.alpha * p.tau * math.exp(2.0)), 0.5)["verdict"]
    _assert_crossing(p, LAMBDA_GRID, res)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=_log_uniform(0.05, 5.0), tau=_log_uniform(0.05, 5.0),
       gamma=_log_uniform(0.3, 3.0), kappa=_log_uniform(0.3, 3.0),
       ell=_log_uniform(0.5, 2.0), sharp=st.booleans())
def test_find_beta0_crossing_everywhere(alpha, tau, gamma, kappa, ell, sharp):
    # test_find_beta0_crossing over drawn parameters and both Poincare
    # constants: beta0 certifies at lambda*, some lambda certifies 1.001 beta0,
    # and no lambda on the grid certifies 0.999 beta0 or beta0 (1 - 1e-12)
    p = PhysParams(alpha=alpha, gamma=gamma, kappa=kappa, tau=tau, ell=ell)
    res = find_beta0(p, LAMBDA_GRID, sharp_poincare=sharp)
    b0 = res["beta0"]
    assert certify(p.with_beta(b0), res["lambda_star"], sharp_poincare=sharp)["verdict"]
    for factor, certified in ((1.001, True), (0.999, False), (1.0 - 1e-12, False)):
        assert certified == any(certify(p.with_beta(factor * b0), lam, sharp_poincare=sharp)
                                ["verdict"] for lam in LAMBDA_GRID)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=_log_uniform(0.05, 5.0), beta=_log_uniform(1e-2, 1e4),
       gamma=_log_uniform(0.3, 3.0), kappa=_log_uniform(0.3, 3.0),
       tau=_log_uniform(0.05, 5.0), lam=_log_uniform(0.05, 12.0),
       sharp=st.booleans())
def test_eps4_is_the_midpoint_of_the_eqfond1_row(alpha, beta, gamma, kappa, tau,
                                                 lam, sharp):
    # lyapunov_constants and check_conditions each compute the eqfond1
    # interval; eps4 is its midpoint, bit for bit, and NaN when it is empty
    p = PhysParams(alpha=alpha, beta=beta, gamma=gamma, kappa=kappa, tau=tau)
    try:
        c = lyapunov_constants(p, lam, sharp_poincare=sharp)
    except InfeasibleLambdaError:
        assume(False)
    row = _row(check_conditions(c, p), "eqfond1")
    if row["lhs"] < row["rhs"]:
        assert c.eps4 == 0.5 * (row["lhs"] + row["rhs"])
    else:
        assert math.isnan(c.eps4)


def test_find_beta0_monotone_in_alpha():
    grid = [0.5, 1.0, 1.5]
    weak = find_beta0(UNIT, grid)["beta0"]
    strong = find_beta0(PhysParams(alpha=2.0, beta=1.0), grid)["beta0"]
    assert strong > weak   # stiffer delayed stress needs more damping


def test_find_beta0_empty_or_infeasible_grid():
    with pytest.raises(NoFeasibleLambdaError):
        find_beta0(UNIT, [])
    with pytest.raises(NoFeasibleLambdaError):
        find_beta0(UNIT, [0.05])    # below the feasibility knee


@pytest.mark.parametrize("p, grid", [
    (UNIT, [0.05]),                              # eqfond0 fails at every beta
    (PhysParams(alpha=1e-300), LAMBDA_GRID),     # 2 tau alpha^2 / beta underflows
    (PhysParams(kappa=1e-300), LAMBDA_GRID),     # beta^2 overflows before eqfond1 holds
], ids=["eqfond0", "xi-bound", "eqfond1-overflow"])
def test_find_beta0_skips_a_lambda_no_beta_certifies(monkeypatch, p, grid):
    res, calls = _find_beta0_counted(monkeypatch, p, grid)
    assert res is None
    assert calls <= (constants._RAISE_ULPS + 1) * len(grid)


@pytest.mark.parametrize("grid", [LAMBDA_GRID, list(np.linspace(0.05, 3.0, 11))],
                         ids=["unit", "infeasible-head"])
def test_find_beta0_makes_a_few_certify_calls_per_lambda(monkeypatch, grid):
    # one certify call at the closed-form threshold, and a raise by an ulp or
    # two for rounding; a bisection to 1e-6 needs about 20 calls a lambda
    res, calls = _find_beta0_counted(monkeypatch, UNIT, grid)
    assert calls <= 2 * len(grid)
    _assert_crossing(UNIT, grid, res)


def _find_beta0_counted(monkeypatch, p, grid):
    """find_beta0's result (None if no lambda is feasible) and the number
    of certify calls it made."""
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return certify(*args, **kwargs)

    monkeypatch.setattr(constants, "certify", counting)
    try:
        res = find_beta0(p, grid)
    except NoFeasibleLambdaError:
        res = None
    return res, len(seen)


def test_find_beta0_crossing_where_eqfond1_binds():
    # at kappa = 1e-100 eqfond1's lhs, which scales as 1/beta, keeps every
    # lambda failing up to beta ~ 1e99; its closed form puts beta0 there
    p = PhysParams(kappa=1e-100)
    res = find_beta0(p, LAMBDA_GRID)
    assert res["beta0"].hex() == "0x1.2554f6418da0dp+330" and res["lambda_star"] == 3.0
    thresholds = constants._beta_thresholds(p, 3.0)
    assert max(thresholds, key=thresholds.get) == "eqfond1"
    _assert_crossing(p, LAMBDA_GRID, res)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(alpha=_log_uniform(0.05, 5.0), gamma=_log_uniform(0.3, 3.0),
       kappa=_log_uniform(0.3, 3.0), tau=_log_uniform(0.05, 5.0),
       ell=_log_uniform(0.5, 2.0), lam=_log_uniform(0.05, 12.0), sharp=st.booleans())
def test_each_row_flips_at_its_beta_threshold(alpha, gamma, kappa, tau, ell, lam, sharp):
    # each row that depends on beta holds just above its closed-form
    # threshold and fails just below it; eqfond3's threshold is the root of
    # ep67prime's quadratic with the constant term divided by e^{2 lam}
    p = PhysParams(alpha=alpha, gamma=gamma, kappa=kappa, tau=tau, ell=ell)
    try:
        thresholds = constants._beta_thresholds(p, lam, sharp)
    except InfeasibleLambdaError:
        assume(False)
    c = lyapunov_constants(p, lam, sharp_poincare=sharp)
    B = alpha * tau * c.b * c.Phi / c.Psi
    thresholds["eqfond3"] = 0.5 * (B + math.sqrt(B * B + 4.0 * alpha * c.Psi * c.b * c.c_p))
    assert thresholds["eqfond3"] <= thresholds["ep67prime"]
    for name, beta in thresholds.items():
        def holds(factor):
            rep = certify(p.with_beta(beta * factor), lam, sharp_poincare=sharp)
            return _row(rep, name)["satisfied"]
        assert holds(1.0 + 1e-12) and not holds(1.0 - 1e-12), name


def test_numpy_scalars_certify_as_floats():
    # np.linspace grids pass np.float64 lambdas: the constants take float(lam),
    # so an overflow is the quiet failed record a float lambda gives, not a
    # RuntimeWarning; PhysParams stores a float beta, whose square raises
    # OverflowError (a failed record) instead of warning and passing
    p = PhysParams(beta=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certify(p, np.float64(0.5)) == certify(p, 0.5)
        with pytest.raises(NoFeasibleLambdaError):
            find_beta0(PhysParams(kappa=np.float64(1e-300)), LAMBDA_GRID)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numpy_beta_gives_the_float_record():
    # beta = np.float64(1e200) squared to inf with a warning and certified;
    # stored as a float, it overflows as beta = 1e200 does: the failed
    # float-range record.  Non-numbers are refused
    want = certify(PhysParams(beta=1e200), 0.5)
    assert [r["name"] for r in want["conditions"]] == ["float-range"]
    got = certify(PhysParams(beta=np.float64(1e200)), 0.5)
    assert repr(got) == repr(want)
    p = PhysParams(alpha=np.float32(0.5), beta=np.int64(3), tau=np.float64(2.0))
    assert all(type(getattr(p, name)) is float
               for name in ("alpha", "beta", "gamma", "kappa", "tau", "ell"))
    with pytest.raises(TypeError, match="beta must be a real number"):
        PhysParams(beta="2")


def test_n0_positive_and_balanced_row():
    lam = 0.5
    b0 = find_beta0(UNIT, [lam])["beta0"]
    c, p = _consts(lam, beta=1.05 * b0)
    n0 = n0_from_constants(c, p)
    assert n0 > 0
    assert n1_equality_residual(c, p) == 0.0


def test_n0_raises_below_threshold():
    lam = 0.5
    b0 = find_beta0(UNIT, [lam])["beta0"]
    c, p = _consts(lam, beta=0.5 * b0)
    with pytest.raises(ValueError):
        n0_from_constants(c, p)


def test_constants_scale_invariance_in_lambda_only_terms():
    # h, Gamma, Psi, Lambda, Phi, A, k depend on lam alone, not on the params
    c1, _ = _consts(0.7, beta=3.0)
    c2, _ = _consts(0.7, beta=30.0)
    for name in ("h", "Gamma", "Psi", "Lambda", "Phi", "A", "k"):
        assert getattr(c1, name) == getattr(c2, name)
