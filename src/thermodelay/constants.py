"""Closed-form Lyapunov constants, stability inequalities and the damping threshold.

Everything here is an exact scalar computation: given the physical parameters
and the exponent parameter `lam`, all auxiliary constants of the decay
estimate follow from closed formulas, and the sufficient stability conditions
are evaluated as exact inequalities (no asymptotic truncation).  The
certificate is a plain record, the dict that a run's summary.json stores.
Every row that depends on beta is explicit in it, so the damping threshold
beta0 is in closed form as well: no search over beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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


def _eps4_interval(p: PhysParams, c) -> tuple[float, float]:
    """The bounds (lo, hi) of the admissible interval for eps4 (eqfond1)."""
    lo = p.alpha * p.gamma * c.b * c.Psi * math.exp(2.0 * c.lam) / (4.0 * p.beta * p.kappa)
    hi = 2.0 * p.alpha * (c.A - 1.0) / (p.gamma * c.b * c.Psi * c.c_p)
    return lo, hi


def _eqfond2_lhs(p: PhysParams, c) -> float:
    """eqfond2's lhs, which beta^2 must exceed; it does not depend on beta."""
    return (c.b * c.Psi * p.alpha * math.exp(2.0 * c.lam) * c.c_p
            + 0.5 * p.tau * c.b * c.Phi * c.eps3 * p.alpha**2 * math.exp(2.0 * c.lam))


def _beta_free_constants(p: PhysParams, lam: float,
                         sharp_poincare: bool = False) -> SimpleNamespace:
    """lam, c_p, h, Gamma, Psi, Lambda, Phi, A, k, b, eps2 and eps3: the
    constants that do not depend on beta (p.beta is not read).

    Raises InfeasibleLambdaError when A <= 1, the only condition of the
    construction that h = e^{-2 lam} in (0, 1) can break.  Once A > 1:
      - k = 1 - h^4 lies in (0, 1];
      - the eqfond0 upper margin h^3 (1 + 3h - h^2 + h^3 + h^4) is positive
        for h < 1, so denom = Lambda - sqrt(A Gamma/(2 lam k)) is positive;
      - in floats A > 1 needs 1 + h > 1, so h >~ 1e-16: h^3 cannot underflow.
    The feasible lam are thus 0.45160... to about 18.37, where A rounds to 1.
    """
    if min(p.alpha, p.gamma, p.kappa) <= 0:
        raise ValueError("alpha, gamma and kappa must be strictly positive "
                         "to build the constants")
    lam = float(lam)
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")

    tau = p.tau
    h = math.exp(-2.0 * lam)
    A = 1.0 + h - h**2 - 2.0 * h**3 - 4.0 * h**4
    k = 1.0 - h**4

    # checked first: at extreme lam, where it fails, Gamma and Phi break down
    if not (A > 1.0):
        raise InfeasibleLambdaError(f"lambda infeasible: A = {A} <= 1 at lam={lam}")

    Gamma = (1.0 - h) / (2.0 * lam)
    Psi = h * Gamma
    Lambda = Psi + Gamma
    Phi = 1.0 / (4.0 * lam**2) * (Gamma - 2.0 * math.exp(-4.0 * lam)
                                  + (math.exp(-6.0 * lam) - math.exp(-8.0 * lam)) / (2.0 * lam))
    root = math.sqrt(A * Gamma / (2.0 * lam * k))
    # Lambda - root, evaluated as (Lambda^2 - root^2)/(Lambda + root) with the
    # numerator in the same cancellation-free polynomial form
    denom = Gamma**2 * _eqfond0_upper_margin(h) / ((1.0 - h) * k * (Lambda + root))

    eps2 = math.sqrt(2.0 * lam * Gamma * k / A)
    eps3 = A * tau / (4.0 * lam * k * denom)
    b = 4.0 * lam * k / (eps2 + tau / eps3)
    return SimpleNamespace(lam=lam, c_p=p.poincare_constant(sharp=sharp_poincare),
                           h=h, Gamma=Gamma, Psi=Psi, Lambda=Lambda, Phi=Phi,
                           A=A, k=k, b=b, eps2=eps2, eps3=eps3)


def lyapunov_constants(
    p: PhysParams,
    lam: float,
    sharp_poincare: bool = False,
) -> LyapunovConstants:
    """Compute every auxiliary constant from (params, lam) via closed forms.

    xi is set to twice its strict lower bound 2 tau alpha^2 / beta.
    Raises InfeasibleLambdaError as _beta_free_constants does.
    """
    if p.beta <= 0:
        raise ValueError("beta must be strictly positive to build the constants")
    c = _beta_free_constants(p, lam, sharp_poincare)

    alpha, beta, tau = p.alpha, p.beta, p.tau
    eps1 = alpha / beta
    a = 0.5 * alpha * eps1 * tau * math.exp(2.0 * c.lam)

    eps5 = c.b
    eps6 = 2.0 * a * c.b * c.Psi / (tau * alpha)

    xi = 2.0 * (2.0 * tau * alpha**2 / beta)

    N1 = N3 = 1.0
    N4 = a * N1
    N5 = a * c.b * N1
    N6 = c.Psi / (alpha * tau) * N5
    N2 = beta / alpha * N6

    # midpoint of the admissible interval when nonempty
    e4_lo, e4_hi = _eps4_interval(p, c)
    eps4 = 0.5 * (e4_lo + e4_hi) if e4_lo < e4_hi else math.nan

    return LyapunovConstants(
        **vars(c), xi=xi, a=a, eps1=eps1, eps4=eps4, eps5=eps5, eps6=eps6,
        N1=N1, N2=N2, N3=N3, N4=N4, N5=N5, N6=N6,
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
    pair_lhs = c.a * c.b * c.Psi / (tau * alpha)
    lhs_ep = 0.5 * c.N6 * c.eps6 * c.c_p + 0.5 * c.N5 * c.Phi * c.eps5
    lhs3 = c.b * c.Psi**2 * c.c_p / (beta * tau) + c.Phi * c.b
    return _certificate([
        ("xi-bound", 2.0 * tau * alpha**2 / beta, c.xi, None),
        ("eqfond0", c.A / c.k, (1.0 - math.exp(-2.0 * c.lam)) * (1.0 + h) ** 2,
         lo_ok and hi_ok),
        ("eqfond2", _eqfond2_lhs(p, c), beta**2, None),
        ("eqfond1", *_eps4_interval(p, c), None),
        ("ep67-pair", pair_lhs, c.eps6, c.eps6 > pair_lhs and c.eps5 > 0.5 * c.b),
        ("ep67prime", lhs_ep, 0.5 * c.N2 * alpha, None),
        ("eqfond3", lhs3, beta * c.Psi / (alpha * tau), None),
    ], eps4=c.eps4)


def certify(
    p: PhysParams,
    lam: float,
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
        c = lyapunov_constants(p, lam, sharp_poincare=sharp_poincare)
        return check_conditions(c, p)
    except InfeasibleLambdaError:
        return _certificate([("eqfond0", math.inf, 0.0, False)])
    except ArithmeticError:
        return _certificate([("float-range", math.inf, math.inf, False)])


def _beta_thresholds(p: PhysParams, lam: float, sharp_poincare: bool = False) -> dict:
    """The least beta of each row that beta repairs, in closed form from the
    constants that do not depend on beta (p.beta is not read).

    eqfond2 needs beta^2 > its lhs, and eqfond1's lo scales as 1/beta.
    ep67prime divided through is beta^2 > B beta + C; eqfond3 is the same
    quadratic with C divided by e^{2 lam} > 1, so ep67prime binds first and
    eqfond3 has no entry.  The xi-bound, ep67-pair and eqfond0 rows do not
    depend on beta in exact arithmetic.
    """
    c = _beta_free_constants(p, lam, sharp_poincare)
    lo, hi = _eps4_interval(p.with_beta(1.0), c)
    B = p.alpha * p.tau * c.b * c.Phi / c.Psi
    C = p.alpha * c.Psi * math.exp(2.0 * c.lam) * c.b * c.c_p
    return {"eqfond2": math.sqrt(_eqfond2_lhs(p, c)),
            "eqfond1": lo / hi,
            "ep67prime": 0.5 * (B + math.sqrt(B * B + 4.0 * C))}


# ulps that find_beta0 may add to a closed-form threshold for rounding
# before it gives the lambda up
_RAISE_ULPS = 8


def find_beta0(
    p: PhysParams,
    lambda_grid,
    sharp_poincare: bool = False,
) -> dict:
    """The smallest certified damping coefficient over a lambda grid.

    Per lambda, the threshold is the largest of _beta_thresholds: every row
    that depends on beta holds above it, and the binding row fails below it.
    certify alone judges: the threshold is raised one ulp at a time, for
    rounding, until it certifies.  A lambda is skipped when its constants do not exist or
    overflow, or when certify still fails after _RAISE_ULPS raises (the
    xi-bound underflows, or beta^2 leaves the float range).  The returned
    beta0 is the minimum over the grid (an upper bound for the true
    threshold, since the conditions are sufficient only).  p.beta is ignored.
    """
    lambda_grid = list(lambda_grid)
    if not lambda_grid:
        raise NoFeasibleLambdaError("empty lambda grid")

    best = None
    for lam in lambda_grid:
        try:
            beta = max(_beta_thresholds(p, lam, sharp_poincare).values())
        except (InfeasibleLambdaError, ArithmeticError):
            continue
        for _ in range(_RAISE_ULPS + 1):
            if not (0.0 < beta < math.inf):
                break
            if certify(p.with_beta(beta), lam, sharp_poincare=sharp_poincare)["verdict"]:
                if best is None or beta < best[0]:
                    best = (beta, lam)
                break
            beta = math.nextafter(beta, math.inf)

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

