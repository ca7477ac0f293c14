"""Numerical integration oracles used to confront series evaluations.

Independent routes:

* tanh-sinh rule on (0,1) for integrands with algebraic-log endpoint
  behavior, reused for exponential-decay and two-sided integrals through
  substitutions,
* regularized (Abel) evaluation for conditionally convergent oscillatory
  integrals: damp by exp(-eps x), integrate over pi-length panels, then
  extrapolate eps -> 0,
* closed-form dispatch table mapping tagged integral forms to the routes,
* direct summation of the inverse-factor series sum_j 1/(j (b+j)^n).

Endpoint care: tanh-sinh abscissae cluster within 1e-270 of the endpoints,
far below float spacing around 1.0, so the rule always evaluates through
distance-to-endpoint callables.  Callers with singular right-endpoint
factors should pass ``f_right`` (integrand at t = 1-d as a function of the
small distance d); otherwise a fallback evaluates f(1-d) directly, which is
only adequate for integrands regular at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .series_engine import EvalResult, SeriesParams
from .special_fn import _EPS, DomainError

_MAX_LEVEL = 12
_UNIT_TARGET = 1e-11


class ExtrapolationError(RuntimeError):
    """Abel extrapolants diverged instead of settling."""


# ---------------------------------------------------------------------------
# tanh-sinh node tables, cached per level
#
# substitution: t = (1 + tanh(v))/2 with v = (pi/2) sinh u, du step h = 2^-level.
# A node at u > 0 sits at distance d = 1/(1 + e^(2v)) from the nearer endpoint
# and pairs with its mirror image; weight (pi/4) cosh(u) sech^2(v).

_NODE_CACHE: dict[int, list[tuple[float, float]]] = {}


def _node(u: float) -> tuple[float, float]:
    v = 0.5 * math.pi * math.sinh(u)
    ev = math.exp(-2.0 * v)
    d = ev / (1.0 + ev)
    w = math.pi * ev / ((1.0 + ev) * (1.0 + ev))
    # w = (pi/4) cosh(u) sech^2(v) with sech^2 written through e^(-2v)
    w *= math.cosh(u)
    return d, w


def _level_nodes(level: int) -> list[tuple[float, float]]:
    """Positive-u nodes new to this level (level 0: u = 1, 2, ...)."""
    got = _NODE_CACHE.get(level)
    if got is not None:
        return got
    h = 2.0 ** (-level)
    out = []
    j = 1
    step = 1 if level == 0 else 2
    while True:
        u = j * h
        d, w = _node(u)
        if d == 0.0 or w == 0.0:
            break
        out.append((d, w))
        j += step
    _NODE_CACHE[level] = out
    return out


def integrate_unit(
    f: Callable[[float], float],
    *,
    f_right: Optional[Callable[[float], float]] = None,
    target: float = _UNIT_TARGET,
) -> EvalResult:
    """Integrate f over (0,1), integrable singularities and logs at either end allowed.

    f receives the abscissa for the left half; f_right receives the distance
    d and must return the integrand at t = 1-d.  Error estimate comes from
    successive level differences; hitting the level cap returns the achieved
    estimate rather than raising.
    """
    if f_right is None:
        f_right = lambda d: f(1.0 - d)
    evals = 0
    total = None
    absum = 0.0
    est = math.inf
    prev = None
    for level in range(_MAX_LEVEL + 1):
        h = 2.0 ** (-level)
        pieces = []
        apieces = []
        for d, w in _level_nodes(level):
            for fv in (f(d), f_right(d)):
                c = w * fv
                if math.isfinite(c):
                    pieces.append(c)
                    apieces.append(abs(c))
                evals += 1
        new = math.fsum(pieces)
        anew = math.fsum(apieces)
        if level == 0:
            mid = f(0.5)
            total = h * (new + 0.25 * math.pi * mid)
            absum = h * (anew + 0.25 * math.pi * abs(mid))
            evals += 1
            continue
        nxt = 0.5 * total + h * new
        absum = 0.5 * absum + h * anew
        est = abs(nxt - total)
        total = nxt
        if level >= 3 and est <= target:
            break
    bound = est + 8.0 * _EPS * absum
    return EvalResult(value=total, abs_error_bound=bound, terms_used=evals, method="oracle")


def _decay_halves(f: Callable[[float], float]):
    """Distance-coordinate callables for int_0^inf f(x) dx under t = e^(-x)."""

    def left(t: float) -> float:
        x = -math.log(t)
        return f(x) / t

    def right(d: float) -> float:
        x = -math.log1p(-d)
        return f(x) / (1.0 - d)

    return left, right


def integrate_decay(f: Callable[[float], float], b: float) -> EvalResult:
    """Integrate f over (0, inf) where f is dominated by x^alpha e^(-bx) (logs allowed).

    Substitution t = e^(-x) maps to the unit interval with left-endpoint
    exponent b-1; an integrable singularity of f at 0 lands at the right
    endpoint, evaluated in distance coordinates throughout.
    """
    if not b > 0.0:
        raise DomainError("decay rate b must be positive")
    left, right = _decay_halves(f)
    return integrate_unit(left, f_right=right)


def integrate_two_sided(f: Callable[[float], float]) -> EvalResult:
    """Integrate f over the whole line given two-sided exponential decay.

    Split at 0; each half runs through the exponential substitution to
    5e-11.  The caller guarantees genuine decay on both sides.
    """
    left_l, left_r = _decay_halves(lambda x: f(-x))
    right_l, right_r = _decay_halves(f)
    pos = integrate_unit(right_l, f_right=right_r, target=5e-11)
    neg = integrate_unit(left_l, f_right=left_r, target=5e-11)
    return EvalResult(
        value=pos.value + neg.value,
        abs_error_bound=pos.abs_error_bound + neg.abs_error_bound,
        terms_used=pos.terms_used + neg.terms_used,
        method="oracle",
    )


# ---------------------------------------------------------------------------
# Abel-regularized oscillatory route


def _ts_rule(h: float = 2.0 ** -4) -> tuple[np.ndarray, np.ndarray]:
    # tanh-sinh on (-1, 1): absorbs the log singularities that log|sin x|
    # integrands carry at every panel edge
    j = np.arange(-int(6.1 / h), int(6.1 / h) + 1)
    t = j * h
    u = 0.5 * np.pi * np.sinh(t)
    xi = np.tanh(u)
    wi = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = 1.0 - np.abs(xi) > 1e-17
    return xi[keep], wi[keep]


def _panel_grid(n_panels: int, xi: np.ndarray, wi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reference rule (xi, wi) on (-1, 1) mapped onto each pi-length panel of (0, n_panels pi)."""
    k = np.arange(n_panels)[:, None]
    mid = (k + 0.5) * np.pi
    half = 0.5 * np.pi
    x = (mid + half * xi[None, :]).ravel()
    w = np.broadcast_to(half * wi[None, :], (n_panels, xi.size)).ravel().copy()
    return x, w


def _neville_to_zero(eps: np.ndarray, vals: np.ndarray) -> float:
    T = vals.astype(float).copy()
    n = len(eps)
    for m in range(1, n):
        T = (eps[m:] * T[:-1] - eps[:-m] * T[1:]) / (eps[m:] - eps[:-m])
    return float(T[-1])


def abel_oscillatory(f: Callable[[np.ndarray], np.ndarray], *,
                     log_singular: bool = False) -> EvalResult:
    """Regularized value of int_0^inf f(x) dx for trig-product integrands.

    Computes F(eps) = int f(x) e^(-eps x) dx for eps = 0.2 * 0.5^k, k < 7,
    on a shared panel grid covering (0, 40/eps_min), pi-length Gauss panels
    (tanh-sinh panels when f carries log|sin| factors), then extrapolates
    eps to 0.  The reported bound is the difference of the last two
    extrapolants plus the analytic truncation tail.
    """
    eps = 0.2 * 0.5 ** np.arange(7)
    x_max = 40.0 / eps.min()
    n_panels = int(np.ceil(x_max / np.pi))
    rule = _ts_rule() if log_singular else np.polynomial.legendre.leggauss(24)
    x, w = _panel_grid(n_panels, *rule)
    fw = np.asarray(f(x), dtype=float) * w
    F = np.array([np.sum(fw * np.exp(-e * x)) for e in eps])
    val = _neville_to_zero(eps, F)
    val_prev = _neville_to_zero(eps[:-1], F[:-1])
    est = abs(val - val_prev)
    if not math.isfinite(val) or est > 0.05 * (1.0 + abs(val)):
        raise ExtrapolationError(f"Abel extrapolants unstable (spread {est:.3g})")
    tail = math.exp(-40.0) * (1.0 + x_max) ** 2
    return EvalResult(
        value=val,
        abs_error_bound=est + tail,
        terms_used=int(x.size * len(eps)),
        method="oracle",
    )


# ---------------------------------------------------------------------------
# tagged integral forms and their oracle dispatch


@dataclass(frozen=True)
class IntegralSpec:
    """A tagged integral instance: which form, with which parameters.

    Form tags: F1 decay binomial (alternating weight), F2 unit-interval log
    power, F3 decay with inner-log factor, F4 unit-interval log power times
    log t, F5 decay binomial (positive weight), F6 decay binomial (general
    weight), F7/F8 oscillatory sine family (cos/sin part), F9/F10 oscillatory
    cosine family (cos/sin part), F11 oscillatory sine family with log|sin|
    factor (params carry part "c" or "s"), F12 two-sided rational-exponential.
    """

    form: str
    params: Union[SeriesParams, dict]


_TRIG_FORMS = {"F7", "F8", "F9", "F10", "F11"}


def _series_params(spec: IntegralSpec, want_beta: Optional[float]) -> SeriesParams:
    p = spec.params
    if isinstance(p, dict):
        p = SeriesParams(
            a=float(p["a"]),
            b=float(p["b"]),
            beta=float(p.get("beta", want_beta if want_beta is not None else -1.0)),
            alpha=float(p.get("alpha", p.get("n", 0))),
        )
    if not isinstance(p, SeriesParams):
        raise DomainError("series-form spec needs SeriesParams or a/b/alpha mapping")
    p.validate()
    if want_beta is not None and p.beta != want_beta:
        raise DomainError(f"form {spec.form} fixes beta={want_beta}")
    return p


def _trig_params(spec: IntegralSpec) -> tuple[int, float, int, str]:
    p = spec.params
    if not isinstance(p, dict):
        raise DomainError("oscillatory spec needs a parameter mapping")
    a = int(p["a"])
    w = float(p.get("w", p.get("v", 0.0)))
    alpha = int(p.get("alpha", 0))
    part = str(p.get("part", ""))
    if a < 1 or w <= 0.0 or alpha < 0:
        raise DomainError("need integer a >= 1, frequency > 0, alpha >= 0")
    return a, w, alpha, part


def oracle_value(spec: IntegralSpec) -> EvalResult:
    """Evaluate the tagged integral by the appropriate independent route."""
    form = spec.form
    if form == "F1" or form == "F5" or form == "F6":
        want = {"F1": -1.0, "F5": 1.0, "F6": None}[form]
        sp = _series_params(spec, want)
        a, b, beta, alpha = sp.a, sp.b, sp.beta, sp.alpha
        if alpha + a <= -1.0:
            raise DomainError("x^(alpha+a) not integrable at 0")

        def f_any(x: float) -> float:
            if beta == -1.0:
                base = -math.expm1(-x)
            else:
                base = 1.0 + beta * math.exp(-x)
            # log-space product: base**a alone can overflow for a < 0 even
            # though the x**alpha factor keeps the whole product finite
            s = -b * x + a * math.log(base)
            if alpha != 0.0:
                s += alpha * math.log(x)
            return math.exp(s) if s < 709.0 else math.inf

        return integrate_decay(f_any, b)
    if form == "F2" or form == "F4":
        sp = _series_params(spec, -1.0)
        a, b = sp.a, sp.b
        n = int(sp.alpha)
        if n != sp.alpha or n < 0:
            raise DomainError("log power n must be a non-negative integer")
        if a <= -1.0 or b <= 0.0:
            raise DomainError("need a > -1 and b > 0 for endpoint integrability")
        with_logt = form == "F4"

        def f_left(d: float) -> float:
            out = d ** a * (1.0 - d) ** (b - 1.0) * math.log1p(-d) ** n
            return out * math.log(d) if with_logt else out

        def f_right(d: float) -> float:
            out = (1.0 - d) ** a * d ** (b - 1.0) * math.log(d) ** n
            return out * math.log1p(-d) if with_logt else out

        return integrate_unit(f_left, f_right=f_right)
    if form == "F3":
        sp = _series_params(spec, -1.0)
        a, b, alpha = sp.a, sp.b, sp.alpha
        if alpha + a <= -1.0:
            raise DomainError("x^(alpha+a) not integrable at 0")

        def f3(x: float) -> float:
            base = -math.expm1(-x)
            return x ** alpha * math.exp(-b * x) * base ** a * math.log(base)

        return integrate_decay(f3, b)
    if form in _TRIG_FORMS:
        a, w, alpha, part = _trig_params(spec)
        if form != "F11":
            # F7/F8: sin^a x times cos/sin(wx); F9/F10: cos^a x times cos/sin(wx)
            base = np.sin if form in ("F7", "F8") else np.cos
            osc = np.cos if form in ("F7", "F9") else np.sin
            return abel_oscillatory(lambda x: x ** alpha * base(x) ** a * osc(w * x))
        if part not in ("c", "s"):
            raise DomainError("F11 needs part 'c' or 's'")
        winding = lambda x: np.pi * np.floor(x / np.pi)
        logs = lambda x: np.log(np.abs(np.sin(x)))
        if part == "c":
            g = lambda x: x ** alpha * np.sin(x) ** a * (
                logs(x) * np.cos(w * x) + winding(x) * np.sin(w * x)
            )
        else:
            g = lambda x: x ** alpha * np.sin(x) ** a * (
                logs(x) * np.sin(w * x) - winding(x) * np.cos(w * x)
            )
        return abel_oscillatory(g, log_singular=True)
    if form == "F12":
        p = spec.params
        if not isinstance(p, dict):
            raise DomainError("two-sided spec needs a parameter mapping")
        b = float(p["b"])
        beta = float(p.get("beta", 0.0))
        if not (0.0 < b < 1.0) or not (0.0 <= beta < 1.0):
            raise DomainError("need 0 < b < 1 and 0 <= beta < 1")

        def f12(x: float) -> float:
            if x < -700.0:
                # denominator ~ beta e^(-2x) swamps everything representable
                return 0.0
            u = math.exp(-x)
            den = (1.0 + u) * (1.0 + beta * u)
            return x * x * math.exp(-b * x) / den

        return integrate_two_sided(f12)
    raise DomainError(f"unsupported integral form tag {form!r}")


def inverse_factor_direct(b: float, n: int) -> float:
    """sum_{j>=1} 1/(j (b+j)^n) by direct summation, independent of the
    identity layer: a 100000-term head by a sorted fsum, the rest by
    Euler-Maclaurin with the integral mapped to a finite interval (u = 1/x)
    and 16 Gauss nodes."""
    N = 100_000
    j = np.arange(1, N + 1, dtype=np.float64)
    head = float(math.fsum(np.sort(1.0 / (j * (b + j) ** n))))
    x0 = float(N + 1)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 / x0
    u = half * (nodes + 1.0)
    integ = float(np.sum(weights * half * u ** (n - 1) / (1.0 + b * u) ** n))
    correction = 0.5 / (x0 * (b + x0) ** n)
    return head + integ + correction


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRecord:
    """One adjudicated identity: a claimed value against an independent oracle."""

    spec: str
    series_value: float
    oracle_value: float
    residual: float
    tolerance: float
    verdict: str
    errata_note: Optional[str] = None


def make_record(
    spec: str,
    series_value: float,
    oracle: float,
    tolerance: float,
    errata_note: Optional[str] = None,
) -> VerificationRecord:
    series_value = float(series_value)
    oracle = float(oracle)
    residual = series_value - oracle
    ok = math.isfinite(residual) and abs(residual) <= tolerance
    return VerificationRecord(
        spec=spec,
        series_value=series_value,
        oracle_value=oracle,
        residual=residual,
        tolerance=tolerance,
        verdict="pass" if ok else "fail",
        errata_note=errata_note,
    )
