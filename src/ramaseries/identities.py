"""Closed-form and recursive identities connecting the binomial series family.

Contents: the log-derivative recursion for integer-order series, the shift
identity that trades a power weight for parameter shifts (one code path for
alternating, positive, and geometric weights), the alternating-to-Hurwitz
reduction, first-derivative closed forms with their series and integral
cross-checks, trigonometric closed forms for oscillatory integrals, and the
two-sided exponential family.

Some printed source formulas fail their own oracles; those are implemented
in corrected form here, with the printed readings preserved in ``errata``.
Confrontation operations return VerificationRecords rather than asserting,
so a failing closed form stays visible instead of being patched over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .coeff_triangle import build as build_triangle
from .quadrature import (
    IntegralSpec,
    VerificationRecord,
    integrate_two_sided,
    make_record,
    oracle_value,
)
from .series_engine import (
    EvalResult,
    SeriesParams,
    eval_phi,
    eval_phi_tilde,
    eval_psi_general,
)
from .special_fn import (
    _EPS,
    DivergenceError,
    DomainError,
    _hurwitz,
    beta_f,
    digamma,
    gamma,
    hurwitz_zeta,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TrigResult:
    """Cosine- and sine-part values of an oscillatory integral pair."""

    lambda_c: float
    lambda_s: float


def _sigma(a: float, b: float, k: int) -> Tuple[float, float]:
    """sigma as (value, error bound). x = a + b + 1 rounds by at most
    d = _EPS (|a| + b + 1), which moves psi(x) by <= (1/x + 1/x^2) d and
    zeta(k, x) by <= k zeta(k, x) d / x; digamma is off by at most
    5 _EPS (1/x + 4 + |ln x|) (3.7 against mpmath on [0.003, 316], the
    verify series grid inside); each zeta carries the kernel's bound."""
    if k < 1 or k != int(k):
        raise DomainError("order k must be a positive integer")
    if b <= 0.0 or a + b + 1.0 <= 0.0:
        raise DomainError("need b > 0 and a + b + 1 > 0")
    x = a + b + 1.0
    dx = _EPS * (abs(a) + b + 1.0)
    if k == 1:
        value = digamma(x) - digamma(b)
        err = (5.0 * _EPS * (1.0 / x + 1.0 / b + 8.0 + abs(math.log(x)) + abs(math.log(b)))
               + (1.0 / x + 1.0 / (x * x)) * dx)
    else:
        z1, e1, _ = _hurwitz(float(k), b)
        z2, e2, _ = _hurwitz(float(k), x)
        value, err = z1 - z2, e1 + e2 + k * z2 / x * dx
    return value, err + _EPS * abs(value)


def sigma(a: float, b: float, k: int) -> float:
    """Closed form of the k-th interleaved difference sum.

    sigma_1 = psi(a+b+1) - psi(b); sigma_k = zeta(k,b) - zeta(k,a+b+1) for
    k >= 2.  The interleaved partial sums converge too slowly to use
    directly; they serve as the test oracle instead.
    """
    return _sigma(a, b, k)[0]


def ramanujan_phi(a: float, b: float, n: int) -> EvalResult:
    """Integer-order alternating-weight series by the log-derivative recursion.

    n*value_n = sum_{k=1}^n sigma_k * value_{n-k}, seeded with the beta-ratio
    value_0 = Gamma(a+1)Gamma(b)/Gamma(a+b+1), through lgamma where a gamma
    overflows.  The bound propagates the seed's error and each sigma_k's
    (see _sigma) and counts every rounding.  The seed's relative error, in
    units of _EPS: 8 a math.gamma (7.2 at worst against mpmath on
    [0.003, 40]), 2 for the product and quotient, and |y psi(y)| <=
    1 + y (1 + |ln y|) times the rounding of y = a + 1 and a + b + 1.
    """
    if n < 0 or n != int(n):
        raise DomainError("order n must be a non-negative integer")
    n = int(n)
    if b <= 0.0 or a <= -1.0 or a + b + 1.0 <= 0.0:
        raise DomainError("need b > 0, a > -1, a + b + 1 > 0")
    try:
        phi0 = beta_f(0.0, a, b)
    except OverflowError:
        phi0 = math.inf
    x = a + b + 1.0
    err0 = _EPS * (26.0 + 0.5 * (1.0 + (a + 1.0) * (1.0 + abs(math.log(a + 1.0))))
                   + (abs(a) + b + 1.0) * (1.0 / x + 1.0 + abs(math.log(x)))) * phi0
    if phi0 == math.inf:
        # every gamma argument is positive here; each lgamma carries an
        # absolute error of a few units of its own size
        lgs = (math.lgamma(b), math.lgamma(a + 1.0), -math.lgamma(x))
        phi0 = math.exp(math.fsum(lgs))
        err0 = (4e-16 + 4.4e-16 * sum(map(abs, lgs))) * phi0
    vals = [phi0]
    errs = [err0]
    sig = [_sigma(a, b, k) for k in range(1, n + 1)]
    for j in range(1, n + 1):
        terms = [sig[k - 1][0] * vals[j - k] for k in range(1, j + 1)]
        vals.append(math.fsum(terms) / j)
        prop = sum(abs(s) * errs[j - k] + (e + _EPS * abs(s)) * abs(vals[j - k])
                   for k, (s, e) in enumerate(sig[:j], 1))
        errs.append(prop / j + 2.0 * _EPS * abs(vals[j]))
    return EvalResult(
        value=vals[n],
        abs_error_bound=errs[n],
        terms_used=n + 1,
        method="recursion",
    )


def _shift_id(p: float, b: float, beta: float, mu: float, m: int) -> str:
    return f"shift p={p:g} b={b:g} beta={beta:g} mu={mu:g} m={m}"


def master_shift(p: float, b: float, beta: float, mu: float, m: int) -> VerificationRecord:
    """Confront the weight-shift identity: the triangle ladder of shifted
    series against the power-weighted series it reduces.

        sum_{k=1}^{m+1} A_k^(m+1)(p,b) (-beta)^(k-1)
            * S(p-k+1, b+k-1, beta, mu+m)  =  S(p, b, beta, mu)

    where S is the general weighted series.  beta = -1 and +1 give the
    alternating and positive families; |beta| < 1 the geometric one.
    """
    if m < 0 or m != int(m):
        raise DomainError("depth m must be a non-negative integer")
    m = int(m)
    if b <= 0.0 or abs(beta) > 1.0:
        raise DomainError("need b > 0 and |beta| <= 1")
    if abs(beta) == 1.0:
        if not p + mu > -1.0:
            raise DivergenceError(
                f"instance k={m + 1} (a={p - m:g}, order {mu + m:g}) diverges at |beta|=1"
            )
        if p <= -1.0 and not mu > 0.0:
            raise DivergenceError("need mu > 0 when p <= -1 at |beta|=1")
    tri = build_triangle(p, b, m + 1)
    row = tri.rows[m]
    lhs_terms = []
    for k in range(1, m + 2):
        coeff = row[k - 1] * (-beta) ** (k - 1)
        inst = eval_psi_general(
            SeriesParams(a=p - k + 1.0, b=b + k - 1.0, beta=beta, alpha=mu + m)
        )
        lhs_terms.append(coeff * inst.value)
    rhs = eval_psi_general(SeriesParams(a=p, b=b, beta=beta, alpha=mu))
    lhs = math.fsum(lhs_terms)
    tol = 1e-9 * max(1.0, abs(rhs.value))
    return make_record(_shift_id(p, b, beta, mu, m), lhs, rhs.value, tol)


def eta_reduction(b: float, alpha: float) -> VerificationRecord:
    """Confront the alternating unit-weight series with its Hurwitz reduction

        sum_i (-1)^i/(b+i)^(alpha+1)  vs  2^(-alpha) zeta(alpha+1, b/2)
                                          - zeta(alpha+1, b).

    Both sides need alpha > 0 individually.
    """
    if b <= 0.0:
        raise DomainError("need b > 0")
    if not alpha > 0.0:
        raise DomainError("reduction sides individually diverge unless alpha > 0")
    series = eval_phi_tilde(-1.0, b, alpha)
    closed = 2.0 ** (-alpha) * hurwitz_zeta(alpha + 1.0, 0.5 * b) - hurwitz_zeta(
        alpha + 1.0, b
    )
    return make_record(f"eta b={b:g} alpha={alpha:g}", series.value, closed, 1e-11)


def phi_da_closed(a: float, b: float, n: int) -> float:
    """First parameter derivative of the integer-order alternating series.

    (psi(a+1) - psi(a+b+1)) * value_n
        + sum_{k=1}^n zeta(k+1, a+b+1) * value_{n-k}
    with the value_j taken from the recursion route.
    """
    if n < 0 or n != int(n):
        raise DomainError("order n must be a non-negative integer")
    n = int(n)
    if b <= 0.0 or a <= -1.0:
        raise DomainError("need b > 0 and a > -1")
    phis = [ramanujan_phi(a, b, j).value for j in range(n + 1)]
    head = (digamma(a + 1.0) - digamma(a + b + 1.0)) * phis[n]
    tail = [hurwitz_zeta(k + 1.0, a + b + 1.0) * phis[n - k] for k in range(1, n + 1)]
    return head + math.fsum(tail)


def harmonic_weighted_sum(a: float, b: float, n: int) -> float:
    """Value of the harmonic-difference weighted series: 1/b^n plus the
    order n-1 parameter derivative.

    The weights are d/da of the binomial factors, so the series does not
    terminate at positive integer a: the weight poles cancel the binomial
    zeros and leave finite terms beyond i = a.
    """
    if n < 1 or n != int(n):
        raise DomainError("order n must be a positive integer")
    return b ** (-float(n)) + phi_da_closed(a, b, int(n) - 1)


def inverse_factor_sum(b: float, n: int) -> float:
    """sum_{j>=1} 1/(j (b+j)^n), as minus the a=0 parameter derivative.

    The series is positive, so the derivative value it equals must be
    negated; the printed source form omits the sign (see errata).
    """
    if n < 1 or n != int(n):
        raise DomainError("order n must be a positive integer")
    if b <= 0.0:
        raise DomainError("need b > 0")
    return -phi_da_closed(0.0, b, int(n) - 1)


def interchange_check(a: float, b: float) -> VerificationRecord:
    """Confront the two readings of mixed differentiation order at n = 0:
    the parameter derivative against -1 times the order-1 series with its
    first two parameters swapped (a,b) -> (b-1, a+1).
    """
    lhs = phi_da_closed(a, b, 0)
    rhs = -ramanujan_phi(b - 1.0, a + 1.0, 1).value
    tol = 1e-9 * max(1.0, abs(rhs))
    return make_record(f"interchange a={a:g} b={b:g}", lhs, rhs, tol)


def _exact_quarter_phase(k: int) -> Tuple[float, float]:
    # (sin, cos) of k*pi/2 for integer k, exact at the lattice
    s = (0.0, 1.0, 0.0, -1.0)[k % 4]
    c = (1.0, 0.0, -1.0, 0.0)[k % 4]
    return s, c


def _phase(x: float) -> Tuple[float, float]:
    if x == int(x):
        return _exact_quarter_phase(int(x))
    return math.sin(0.5 * math.pi * x), math.cos(0.5 * math.pi * x)


def _trig_b(a: int, w: float, alpha: float, freq: str, whole_alpha: bool = False) -> float:
    """The series argument (w-a)/2 of a trig closed form, after checking that
    a is a positive integer, the frequency (named freq) exceeds a, and
    alpha >= 0 (an integer if whole_alpha)."""
    if a < 1 or a != int(a):
        raise DomainError("need a a positive integer")
    if not w > a:
        raise DomainError(f"need frequency {freq} > a")
    if alpha < 0.0 or (whole_alpha and alpha != int(alpha)):
        raise DomainError("need integer alpha >= 0" if whole_alpha else "need alpha >= 0")
    return 0.5 * (w - a)


def _scale_phase(a: int, alpha: float, theta: float) -> Tuple[float, float, float]:
    """The trig scale factor 2^(-a-alpha-1) Gamma(alpha+1), and the sine and
    cosine of the phase theta pi/2."""
    return (2.0 ** (-a - alpha - 1.0) * gamma(alpha + 1.0), *_phase(theta))


def trig_lambda(a: int, w: float, alpha: float) -> TrigResult:
    """Closed forms for int x^alpha sin^a(x) {cos,sin}(wx) dx (regularized).

    With s = 2^(-a-alpha-1) Gamma(alpha+1) and the series value at
    (a, (w-a)/2, alpha):

        cos part = -s * value * sin((a+alpha) pi/2)
        sin part = +s * value * cos((a+alpha) pi/2)

    The half-angle reduction behind this gives integrand phase
    bx - a(pi-x)/2, hence frequency w = 2b + a and joint phase a+alpha; a
    conjugated phase factor in the source chain led to w = 2b - a and a
    detached a-alpha phase, which the oracle rejects (see errata).
    """
    val = eval_phi(float(a), _trig_b(a, w, alpha, "w"), alpha).value
    s, sin_t, cos_t = _scale_phase(a, alpha, a + alpha)
    return TrigResult(lambda_c=-s * val * sin_t, lambda_s=s * val * cos_t)


def trig_cos(a: int, v: float, alpha: float) -> TrigResult:
    """Closed forms for int x^alpha cos^a(x) {cos,sin}(vx) dx (regularized).

    Same scale factor as the sine family, series value at (a, (v-a)/2,
    alpha) with positive weights, and phase alpha alone.  These pass the
    oracle as printed in the source.
    """
    val = eval_phi_tilde(float(a), _trig_b(a, v, alpha, "v"), alpha).value
    s, sin_t, cos_t = _scale_phase(a, alpha, alpha)
    return TrigResult(lambda_c=-s * val * sin_t, lambda_s=s * val * cos_t)


def log_sin_integral(a: int, w: float, alpha: float) -> Tuple[float, float]:
    """a-derivatives of the sine-family pair at fixed frequency w: the values
    of the log-sin-weighted integrals (with their winding-phase companion).

    Product rule on the corrected closed forms: the series derivative
    combines the direct parameter derivative with the chain term through
    b = (w-a)/2, the scale factor contributes -ln 2, and the joint phase
    rotates by pi/2.  Integer alpha only (the parameter-derivative closed
    form is integer-order).
    """
    bphi = _trig_b(a, w, alpha, "w", whole_alpha=True)
    n = int(alpha)
    phi_val = eval_phi(float(a), bphi, float(n)).value
    phi_up = eval_phi(float(a), bphi, float(n + 1)).value
    dtotal = phi_da_closed(float(a), bphi, n) + 0.5 * (n + 1.0) * phi_up
    s, sin_t, cos_t = _scale_phase(a, n, a + n)
    half_pi = 0.5 * math.pi
    core = dtotal - _LN2 * phi_val
    d_c = -s * (core * sin_t + half_pi * phi_val * cos_t)
    d_s = s * (core * cos_t - half_pi * phi_val * sin_t)
    return d_c, d_s


def two_sided_family(b: float, beta: float, m: int) -> VerificationRecord:
    """Confront the printed two-sided closed form with direct quadrature.

    m = 0: claimed pi^3/(1-beta) csc(b pi)(2-sin^2(b pi)) for the integral
    int x^2 e^(-bx)/((1+e^(-x))(1+beta e^(-x))) dx over the line.
    m = 1: the weight-shift ladder turns the (b+i) factor into two integrals,
    the base one times b minus beta times the shifted one with the geometric
    factor squared; that combination is confronted with the claimed
    geometric-weight right side.

    The oracle side is always direct quadrature; where the claim fails, the
    record says so (the series route behind the claim treats a shift-dependent
    prefactor as constant and integrates terms outside their convergence
    strip, see errata).
    """
    if not (0.0 < b < 1.0):
        raise DomainError("need 0 < b < 1")
    if not (0.0 <= beta < 1.0):
        raise DomainError("need 0 <= beta < 1")
    if m not in (0, 1):
        raise DomainError("only m in {0, 1} is supported")
    base = math.pi ** 3 / math.sin(math.pi * b) * (2.0 - math.sin(math.pi * b) ** 2)
    if m == 0:
        claim = base / (1.0 - beta)
        oracle = oracle_value(IntegralSpec("F12", {"b": b, "beta": beta})).value
    else:
        claim = base * (b / (1.0 - beta) + beta / (1.0 - beta) ** 2)
        i1 = oracle_value(IntegralSpec("F12", {"b": b, "beta": beta})).value
        i2 = 0.0
        if beta > 0.0:

            def f_sq(x: float) -> float:
                # factored left form decays like x^2 e^((2-b)x), fine for b < 1
                if x < 0.0:
                    g = math.exp(x)
                    return x * x * math.exp((2.0 - b) * x) / ((1.0 + g) * (beta + g) ** 2)
                e = math.exp(-x)
                return x * x * math.exp(-(b + 1.0) * x) / ((1.0 + e) * (1.0 + beta * e) ** 2)

            i2 = integrate_two_sided(f_sq).value
        oracle = b * i1 - beta * i2
    tol = 1e-6 * max(1.0, abs(oracle))
    note = None
    if not abs(claim - oracle) <= tol:
        note = "printed closed form; the direct integral disagrees (see errata)"
    return make_record(f"two-sided b={b:g} beta={beta:g} m={m}", claim, oracle, tol, note)
