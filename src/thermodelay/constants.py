"""Closed-form Lyapunov constants, stability inequalities and the damping threshold.

Everything here is an exact scalar computation: given the physical parameters
and the exponent parameter `lam`, all auxiliary constants of the decay
estimate follow from closed formulas, and the sufficient stability conditions
are evaluated as exact inequalities (no asymptotic truncation).  The
certificate is a plain record, the dict that a run's summary.json stores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import PhysParams

__all__ = [
    "LyapunovConstants",
    "InfeasibleLambdaError",
    "NoFeasibleLambdaError",
    "f_weight",
    "lyapunov_constants",
    "check_conditions",
    "certify",
    "find_beta0",
    "n0_from_constants",
]


class InfeasibleLambdaError(ValueError):
    """Raised when `lam` does not admit the exact constant construction."""


class NoFeasibleLambdaError(ValueError):
    """Raised when no lambda on the search grid admits a certified beta."""


def f_weight(rho, lam):
    """Exponentially weighted history kernel f(rho) on [0, 1].

    f(rho) = (1/(2 lam)) e^{lam rho} (e^{-2 lam rho} - e^{-4 lam}),
    the solution of (e^{-lam rho} f)' = -e^{-2 lam rho} with f(1) e^{-lam}
    equal to the tail weight Psi.  Accepts scalars or arrays.
    """
    import numpy as np
    rho = np.asarray(rho, dtype=float)
    if not (lam > 0):
        raise ValueError(f"lam must be positive, got {lam}")
    if np.any(rho < 0) or np.any(rho > 1):
        raise ValueError("rho must lie in [0, 1]")
    out = 0.5 / lam * np.exp(lam * rho) * (np.exp(-2.0 * lam * rho) - math.exp(-4.0 * lam))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LyapunovConstants:
    """All scalar constants entering the decay estimate, for one (params, lam)."""

    lam: float
    xi: float
    c_p: float
    h: float
    Gamma: float
    Psi: float
    Lambda: float
    Phi: float
    A: float
    k: float
    a: float
    b: float
    eps1: float
    eps2: float
    eps3: float
    eps4: float  # midpoint of the admissible interval; NaN if empty
    eps5: float
    eps6: float
    N1: float
    N2: float
    N3: float
    N4: float
    N5: float
    N6: float


def _eqfond0_upper_margin(h: float) -> float:
    """h^3 (1 + 3h - h^2 + h^3 + h^4), h = e^{-2 lam}: positive exactly when
    A/k < 2 lam Lambda^2/Gamma = (1 - h)(1 + h)^2 (after clearing
    denominators).  The naive difference underflows to rounding noise for
    lam >~ 6; this form has no cancellation."""
    return h**3 * (1.0 + 3.0 * h - h**2 + h**3 + h**4)


def _eps4_interval(p: PhysParams, lam: float, A: float, b: float, Psi: float,
                   c_p: float) -> tuple[float, float]:
    """The bounds (lo, hi) of the admissible interval for eps4 (eqfond1)."""
    lo = p.alpha * p.gamma * b * Psi * math.exp(2.0 * lam) / (4.0 * p.beta * p.kappa)
    hi = 2.0 * p.alpha * (A - 1.0) / (p.gamma * b * Psi * c_p)
    return lo, hi


def lyapunov_constants(
    p: PhysParams,
    lam: float,
    xi_factor: float = 2.0,
    sharp_poincare: bool = False,
) -> LyapunovConstants:
    """Compute every auxiliary constant from (params, lam) via closed forms.

    xi is set to xi_factor times its strict lower bound 2 tau alpha^2 / beta.
    Raises InfeasibleLambdaError when the exact construction breaks down
    (A/k >= 2 lam Lambda^2 / Gamma, or A <= 1, or k outside (0,1)).
    """
    if p.beta <= 0:
        raise ValueError("beta must be strictly positive to build the constants")
    if min(p.alpha, p.gamma, p.kappa) <= 0:
        raise ValueError("alpha, gamma and kappa must be strictly positive "
                         "to build the constants")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if xi_factor <= 1:
        raise ValueError("xi_factor must exceed 1 for the strict xi bound")

    alpha, beta, tau = p.alpha, p.beta, p.tau
    h = math.exp(-2.0 * lam)
    A = 1.0 + h - h**2 - 2.0 * h**3 - 4.0 * h**4
    k = 1.0 - h**4

    # checked first: at extreme lam, where they fail, Gamma and Phi break down
    if not (A > 1.0):
        raise InfeasibleLambdaError(f"lambda infeasible: A = {A} <= 1 at lam={lam}")
    # k < 1 holds exactly; for large lam the float value rounds to 1.0
    if not (0.0 < k <= 1.0):
        raise InfeasibleLambdaError(f"lambda infeasible: k = {k} outside (0,1) at lam={lam}")
    upper_margin = _eqfond0_upper_margin(h)
    if not (upper_margin > 0.0):
        raise InfeasibleLambdaError(
            f"lambda infeasible: A/k >= 2 lam Lambda^2/Gamma at lam={lam}"
        )

    Gamma = (1.0 - h) / (2.0 * lam)
    Psi = h * Gamma
    Lambda = Psi + Gamma
    Phi = (
        1.0
        / (4.0 * lam**2)
        * (
            Gamma
            - 2.0 * math.exp(-4.0 * lam)
            + (math.exp(-6.0 * lam) - math.exp(-8.0 * lam)) / (2.0 * lam)
        )
    )
    root = math.sqrt(A * Gamma / (2.0 * lam * k))
    # Lambda - root, evaluated as (Lambda^2 - root^2)/(Lambda + root) with the
    # numerator in the same cancellation-free polynomial form
    denom = Gamma**2 * upper_margin / ((1.0 - h) * k * (Lambda + root))
    if denom <= 0.0:
        raise InfeasibleLambdaError(
            f"lambda infeasible: Lambda - sqrt(A Gamma/(2 lam k)) <= 0 at lam={lam}"
        )

    eps2 = math.sqrt(2.0 * lam * Gamma * k / A)
    eps3 = A * tau / (4.0 * lam * k * denom)
    b = 4.0 * lam * k / (eps2 + tau / eps3)

    eps1 = alpha / beta
    a = 0.5 * alpha * eps1 * tau * math.exp(2.0 * lam)

    eps5 = b
    eps6 = 2.0 * a * b * Psi / (tau * alpha)

    xi = xi_factor * (2.0 * tau * alpha**2 / beta)
    c_p = p.poincare_constant(sharp=sharp_poincare)

    N1 = 1.0
    N3 = N1
    N4 = a * N1
    N5 = a * b * N1
    N6 = Psi / (alpha * tau) * N5
    N2 = beta / alpha * N6

    # midpoint of the admissible interval when nonempty
    e4_lo, e4_hi = _eps4_interval(p, lam, A, b, Psi, c_p)
    eps4 = 0.5 * (e4_lo + e4_hi) if e4_lo < e4_hi else math.nan

    return LyapunovConstants(
        lam=lam, xi=xi, c_p=c_p, h=h, Gamma=Gamma, Psi=Psi, Lambda=Lambda,
        Phi=Phi, A=A, k=k, a=a, b=b, eps1=eps1, eps2=eps2, eps3=eps3, eps4=eps4,
        eps5=eps5, eps6=eps6, N1=N1, N2=N2, N3=N3, N4=N4, N5=N5, N6=N6,
    )


def _certificate(rows, eps4: float = math.nan) -> dict:
    """The certificate record from (name, lhs, rhs, satisfied) rows.

    satisfied None means lhs < rhs; the verdict is that every row holds.
    """
    conditions = [
        {"name": name, "lhs": float(lhs), "rhs": float(rhs),
         "satisfied": bool(lhs < rhs if ok is None else ok)}
        for name, lhs, rhs, ok in rows
    ]
    return {"conditions": conditions, "eps4": eps4,
            "verdict": all(r["satisfied"] for r in conditions)}


def check_conditions(c: LyapunovConstants, p: PhysParams) -> dict:
    """Evaluate the exact sufficient stability inequalities for constants `c`.

    Returns the certificate record {"conditions", "eps4", "verdict"}, with
    one {"name", "lhs", "rhs", "satisfied"} row per inequality (lhs < rhs
    convention) and verdict true when every row holds:
      xi-bound      xi > 2 tau alpha^2 / beta
      eqfond0       1 < A/k < (1 - e^{-2 lam})(1 + h)^2
      eqfond2       b Psi alpha e^{2 lam} c_p + tau b Phi eps3 alpha^2 e^{2 lam}/2 < beta^2
      eqfond1       interval for eps4 nonempty
      ep67-pair     eps6 > a b Psi/(tau alpha) and eps5 > b/2 (holds by construction)
      ep67prime     N6 eps6 c_p/2 + N5 Phi eps5/2 < N2 alpha/2
      eqfond3       b Psi^2 c_p/(beta tau) + Phi b < beta Psi/(alpha tau)
    """
    alpha, beta, tau = p.alpha, p.beta, p.tau
    h = c.h
    # both eqfond0 margins in cancellation-free polynomial form (the float
    # quotient A/k loses the h^3-size gap to the upper bound for large lam)
    lo_ok = h * (1.0 - h - 2.0 * h**2 - 3.0 * h**3) > 0.0          # A/k > 1
    hi_ok = _eqfond0_upper_margin(h) > 0.0                         # A/k < bound
    lhs2 = (
        c.b * c.Psi * alpha * math.exp(2.0 * c.lam) * c.c_p
        + 0.5 * tau * c.b * c.Phi * c.eps3 * alpha**2 * math.exp(2.0 * c.lam)
    )
    pair_lhs = c.a * c.b * c.Psi / (tau * alpha)
    lhs_ep = 0.5 * c.N6 * c.eps6 * c.c_p + 0.5 * c.N5 * c.Phi * c.eps5
    lhs3 = c.b * c.Psi**2 * c.c_p / (beta * tau) + c.Phi * c.b
    return _certificate([
        ("xi-bound", 2.0 * tau * alpha**2 / beta, c.xi, None),
        ("eqfond0", c.A / c.k, (1.0 - math.exp(-2.0 * c.lam)) * (1.0 + h) ** 2,
         lo_ok and hi_ok),
        ("eqfond2", lhs2, beta**2, None),
        ("eqfond1", *_eps4_interval(p, c.lam, c.A, c.b, c.Psi, c.c_p), None),
        ("ep67-pair", pair_lhs, c.eps6, c.eps6 > pair_lhs and c.eps5 > 0.5 * c.b),
        ("ep67prime", lhs_ep, 0.5 * c.N2 * alpha, None),
        ("eqfond3", lhs3, beta * c.Psi / (alpha * tau), None),
    ], eps4=c.eps4)


def certify(
    p: PhysParams,
    lam: float,
    xi_factor: float = 2.0,
    sharp_poincare: bool = False,
) -> dict:
    """Build the constants for (p, lam) and return check_conditions' record.

    Unlike lyapunov_constants this never raises on a bad (beta, lam) pair:
    each of beta <= 0, an infeasible lambda and constants that overflow or
    divide by zero in floating point yields a failed record of its own.
    """
    if p.beta <= 0.0:
        return _certificate([("xi-bound", math.inf, math.inf, False),
                             ("eqfond2", math.inf, 0.0, False)])
    try:
        c = lyapunov_constants(p, lam, xi_factor=xi_factor, sharp_poincare=sharp_poincare)
        return check_conditions(c, p)
    except InfeasibleLambdaError:
        return _certificate([("eqfond0", math.inf, 0.0, False)])
    except ArithmeticError:
        return _certificate([("float-range", math.inf, math.inf, False)])


BETA0_REL_TOL = 1e-6    # relative width at which find_beta0's bisection stops

# failures no larger beta repairs: eqfond0 depends on lambda alone (both its
# margins, and certify's infeasible-lambda row), and with xi_factor > 1 the
# xi-bound fails only once 2 tau alpha^2 / beta underflows
_UNREPAIRABLE = ("eqfond0", "xi-bound")


def _doubling(rep: dict) -> float:
    """The factor by which find_beta0 raises a failing witness: 2, or a
    power of 2 past the doublings that still fail eqfond1.

    eqfond1's lhs scales exactly as 1/beta and its rhs depends on lambda
    alone, so every doubling below lhs/rhs fails it; the jump stops one
    doubling short of that, so rounding never skips a doubling that passes.
    """
    for r in rep["conditions"]:
        if r["name"] == "eqfond1" and not r["satisfied"] and r["rhs"] > 0.0:
            ratio = r["lhs"] / r["rhs"]
            if ratio < math.inf:
                return 2.0 ** max(1, math.ceil(math.log2(ratio)) - 1)
    return 2.0


def find_beta0(
    p: PhysParams,
    lambda_grid,
    xi_factor: float = 2.0,
    sharp_poincare: bool = False,
) -> dict:
    """Search the smallest certified damping coefficient over a lambda grid.

    For each lambda the certified set in beta is an up-set, so a bisection on
    [tiny, hi] locates the per-lambda crossing, where hi is the witness
    alpha tau e^{4 lam}, doubled (past the doublings that must still fail
    eqfond1, see _doubling) until it certifies, or until it fails a
    condition no larger beta can repair (eqfond0 or the xi-bound) or leaves
    the float range, which skips the lambda; the returned beta0 is the
    minimum over the grid (an upper bound for the true threshold, since the
    conditions are sufficient only).  p.beta is ignored.
    """
    lambda_grid = list(lambda_grid)
    if not lambda_grid:
        raise NoFeasibleLambdaError("empty lambda grid")
    kw = dict(xi_factor=xi_factor, sharp_poincare=sharp_poincare)

    best = None
    for lam in lambda_grid:
        try:
            hi = p.alpha * p.tau * math.exp(4.0 * lam)
        except OverflowError:
            continue  # witness past the float range: lambda not usable
        # a failing witness only means the crossing lies above it, unless
        # it fails a condition that no larger beta repairs
        rep = {"verdict": False}
        while 0.0 < hi < math.inf:
            rep = certify(p.with_beta(hi), lam, **kw)
            if rep["verdict"] or any(r["name"] in _UNREPAIRABLE and not r["satisfied"]
                                     for r in rep["conditions"]):
                break
            hi *= _doubling(rep)
        if not rep["verdict"]:
            continue  # no certified beta in the float range: lambda not usable
        lo = 1e-300
        # bisect the crossing: certify fails at lo, passes at hi
        while (hi - lo) > BETA0_REL_TOL * hi:
            mid = 0.5 * (lo + hi)
            if certify(p.with_beta(mid), lam, **kw)["verdict"]:
                hi = mid
            else:
                lo = mid
        if best is None or hi < best[0]:
            best = (hi, lam)

    if best is None:
        raise NoFeasibleLambdaError("no feasible lambda on the grid")
    return {"beta0": best[0], "lambda_star": best[1]}


def n0_from_constants(c: LyapunovConstants, p: PhysParams) -> float:
    """Decay-rate constant n0 from the four strict row inequalities.

    Each row margin is normalized by the coefficient of the matching term in
    the reduced functional: the history row by N4, the strain row by alpha N2/2,
    and the two gradient rows through the Poincare constant.  Raises if any
    margin is nonpositive (conditions violated).
    """
    alpha, beta, tau = p.alpha, p.beta, p.tau

    n1 = -2.0 * c.lam / tau * c.N4 + c.N5 / (2.0 * tau) * (c.eps2 + tau / c.eps3)
    n2 = (
        c.N4 / tau
        + c.N5 / tau * (c.Gamma / (2.0 * c.eps2) - c.Lambda)
        + c.N5 * c.Psi * p.gamma * c.eps4 * c.c_p / (2.0 * alpha * tau)
    )
    # conservative coefficient Psi c_p/(alpha tau) on the gradient term
    n3 = c.N1 * (alpha / (2.0 * c.eps1) - beta) + c.N5 * (
        0.5 * c.eps3 * c.Phi + c.Psi * c.c_p / (alpha * tau)
    )
    n4 = -c.N1 * p.kappa + c.N5 * c.Psi * p.gamma / (2.0 * alpha * tau * c.eps4)

    margins = {"n1": n1, "n2": n2, "n3": n3, "n4": n4}
    bad = {k: v for k, v in margins.items() if not (v < 0.0)}
    if bad:
        raise ValueError(f"nonpositive decay margins (conditions violated): {bad}")

    return min(
        abs(n1) / c.N4,
        2.0 * abs(n2) / (alpha * c.N2),
        2.0 * abs(n3) / (c.c_p * c.N1),
        2.0 * abs(n4) / (c.c_p * c.N3),
    )

