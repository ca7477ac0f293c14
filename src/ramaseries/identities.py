"""Closed-form and recursive identities connecting the binomial series family.

Contents: the log-derivative recursion for integer-order series, the shift
identity that trades a power weight for parameter shifts (one code path for
alternating, positive, and geometric weights), the alternating-to-Hurwitz
reduction, first-derivative closed forms with their series and integral
cross-checks, trigonometric closed forms for oscillatory integrals, and the
two-sided exponential family.

Every function returns a plain value, and an oscillatory pair returns its
(cos part, sin part) floats; ``verify`` pairs each with an independent route
and judges the pair. Some printed source formulas fail their own oracles;
those are implemented in corrected form here (the two-sided family's
partial-fraction form among them), with the printed readings preserved in
``errata``. The printed two-sided closed form is kept as printed too, so its
failing records stay visible.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from .coeff_triangle import build as build_triangle
from .series_engine import (
    EvalResult,
    SeriesParams,
    eval_phi,
    eval_phi_tilde,
    eval_psi_general,
)
from .special_fn import (
    _EPS,
    EULER_GAMMA,
    DivergenceError,
    DomainError,
    _hurwitz,
    _whole,
    beta_f,
    digamma,
    gamma,
    hurwitz_zeta,
)

_LN2 = math.log(2.0)


def _sigma(a: float, b: float, k: int) -> Tuple[float, float]:
    """sigma as (value, error bound). x = a + b + 1 rounds by at most
    d = _EPS (|a| + b + 1), which moves psi(x) by <= (1/x + 1/x^2) d and
    zeta(k, x) by <= k zeta(k, x) d / x; digamma is off by at most
    5 _EPS (1/x + 4 + |ln x|) (3.7 against mpmath on [0.003, 316], the
    verify series grid inside); each zeta carries the kernel's bound."""
    k = _whole(k, 1, "order k must be a positive integer")
    if not (0.0 < b < math.inf and 0.0 < a + b + 1.0 < math.inf):
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


def _phi_orders(a: float, b: float, n: int) -> Tuple[List[float], List[float]]:
    """The recursion's values and bounds at every order 0..n, in one run
    (see ramanujan_phi)."""
    n = _whole(n, 0, "order n must be a non-negative integer")
    if not (0.0 < b < math.inf and -1.0 < a < math.inf):
        raise DomainError("need b > 0 and a > -1, both finite")
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
    return vals, errs


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
    vals, errs = _phi_orders(a, b, n)
    return EvalResult(
        value=vals[-1],
        abs_error_bound=errs[-1],
        terms_used=len(vals),
        method="recursion",
    )


def master_shift(p: float, b: float, beta: float, mu: float, m: int) -> float:
    """The left side of the weight-shift identity: the triangle ladder of
    shifted series that reduces the power-weighted series S(p, b, beta, mu).

        sum_{k=1}^{m+1} A_k^(m+1)(p,b) (-beta)^(k-1)
            * S(p-k+1, b+k-1, beta, mu+m)  =  S(p, b, beta, mu)

    where S is the general weighted series.  beta = -1 and +1 give the
    alternating and positive families; |beta| < 1 the geometric one.
    """
    m = _whole(m, 0, "depth m must be a non-negative integer")
    if not (0.0 < b < math.inf and abs(beta) <= 1.0 and math.isfinite(p + mu)):
        raise DomainError("need b > 0 and |beta| <= 1, and p, b, mu finite")
    if abs(beta) == 1.0:
        if not p + mu > -1.0:
            raise DivergenceError(
                f"instance k={m + 1} (a={p - m:g}, order {mu + m:g}) diverges at |beta|=1"
            )
        if p <= -1.0 and not mu > 0.0:
            raise DivergenceError("need mu > 0 when p <= -1 at |beta|=1")
    row = build_triangle(p, b, m + 1).rows[m]
    return math.fsum(
        row[k - 1] * (-beta) ** (k - 1)
        * eval_psi_general(SeriesParams(a=p - k + 1.0, b=b + k - 1.0, beta=beta, alpha=mu + m)).value
        for k in range(1, m + 2))


def eta_reduction(b: float, alpha: float) -> float:
    """The Hurwitz reduction of the alternating unit-weight series

        sum_i (-1)^i/(b+i)^(alpha+1)  =  2^(-alpha) zeta(alpha+1, b/2)
                                         - zeta(alpha+1, b).

    Both sides need alpha > 0 individually.
    """
    if not 0.0 < b < math.inf:
        raise DomainError("need b > 0")
    if not alpha > 0.0:
        raise DomainError("reduction sides individually diverge unless alpha > 0")
    return 2.0 ** (-alpha) * hurwitz_zeta(alpha + 1.0, 0.5 * b) - hurwitz_zeta(alpha + 1.0, b)


def phi_da_closed(a: float, b: float, n: int) -> float:
    """First parameter derivative of the integer-order alternating series.

    (psi(a+1) - psi(a+b+1)) * value_n
        + sum_{k=1}^n zeta(k+1, a+b+1) * value_{n-k}
    with the value_j taken from one run of the recursion route.
    """
    phis, _ = _phi_orders(a, b, n)
    head = (digamma(a + 1.0) - digamma(a + b + 1.0)) * phis[-1]
    tail = [hurwitz_zeta(k + 1.0, a + b + 1.0) * phis[-1 - k] for k in range(1, len(phis))]
    return head + math.fsum(tail)


def harmonic_weighted_sum(a: float, b: float, n: int) -> float:
    """Value of the harmonic-difference weighted series: 1/b^n plus the
    order n-1 parameter derivative.

    The weights are d/da of the binomial factors, so the series does not
    terminate at positive integer a: the weight poles cancel the binomial
    zeros and leave finite terms beyond i = a.
    """
    n = _whole(n, 1, "order n must be a positive integer")
    return b ** (-float(n)) + phi_da_closed(a, b, n - 1)


def inverse_factor_sum(b: float, n: int) -> float:
    """sum_{j>=1} 1/(j (b+j)^n), as minus the a=0 parameter derivative.

    The series is positive, so the derivative value it equals must be
    negated; the printed source form omits the sign (see errata).
    """
    n = _whole(n, 1, "order n must be a positive integer")
    if not 0.0 < b < math.inf:
        raise DomainError("need b > 0")
    return -phi_da_closed(0.0, b, n - 1)


def inverse_factor_expansion(b: float, n: int) -> float:
    """sum_{j>=1} 1/(j (b+j)^n) by the displayed expansion
    (psi(b+1) + gamma)/b^n - sum_{k=1}^{n-1} zeta(k+1, b+1) b^(k-n)."""
    n = _whole(n, 1, "order n must be a positive integer")
    if not 0.0 < b < math.inf:
        raise DomainError("need b > 0")
    return (digamma(b + 1.0) + EULER_GAMMA) / b ** n - math.fsum(
        hurwitz_zeta(k + 1.0, b + 1.0) * b ** (k - n) for k in range(1, n))


def _exact_quarter_phase(k: int) -> Tuple[float, float]:
    # (sin, cos) of k*pi/2 for integer k, exact at the lattice
    s = (0.0, 1.0, 0.0, -1.0)[k % 4]
    c = (1.0, 0.0, -1.0, 0.0)[k % 4]
    return s, c


def _phase(x: float) -> Tuple[float, float]:
    if float(x).is_integer():
        return _exact_quarter_phase(int(x))
    return math.sin(0.5 * math.pi * x), math.cos(0.5 * math.pi * x)


def _trig_b(a: int, w: float, alpha: float, freq: str) -> float:
    """The series argument (w-a)/2 of a trig closed form, after checking that
    a is a positive integer, the frequency (named freq) exceeds a, and
    alpha >= 0."""
    _whole(a, 1, "need a a positive integer")
    if not w > a:
        raise DomainError(f"need frequency {freq} > a")
    if not alpha >= 0.0:
        raise DomainError("need alpha >= 0")
    return 0.5 * (w - a)


def _scale_phase(a: int, alpha: float, theta: float) -> Tuple[float, float, float]:
    """The trig scale factor 2^(-a-alpha-1) Gamma(alpha+1), and the sine and
    cosine of the phase theta pi/2."""
    return (2.0 ** (-a - alpha - 1.0) * gamma(alpha + 1.0), *_phase(theta))


def trig_lambda(a: int, w: float, alpha: float) -> Tuple[float, float]:
    """Closed forms for int x^alpha sin^a(x) {cos,sin}(wx) dx (regularized),
    as the (cos part, sin part) pair.

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
    return -s * val * sin_t, s * val * cos_t


def trig_cos(a: int, v: float, alpha: float) -> Tuple[float, float]:
    """Closed forms for int x^alpha cos^a(x) {cos,sin}(vx) dx (regularized),
    as the (cos part, sin part) pair.

    Same scale factor as the sine family, series value at (a, (v-a)/2,
    alpha) with positive weights, and phase alpha alone.  These pass the
    oracle as printed in the source.
    """
    val = eval_phi_tilde(float(a), _trig_b(a, v, alpha, "v"), alpha).value
    s, sin_t, cos_t = _scale_phase(a, alpha, alpha)
    return -s * val * sin_t, s * val * cos_t


def log_sin_integral(a: int, w: float, alpha: float) -> Tuple[float, float]:
    """a-derivatives of the sine-family pair at fixed frequency w: the values
    of the log-sin-weighted integrals (with their winding-phase companion),
    as the (cos part, sin part) pair.

    Product rule on the corrected closed forms: the series derivative
    combines the direct parameter derivative with the chain term through
    b = (w-a)/2, the scale factor contributes -ln 2, and the joint phase
    rotates by pi/2.  Integer alpha only (the parameter-derivative closed
    form is integer-order).
    """
    n = _whole(alpha, 0, "need integer alpha >= 0")
    bphi = _trig_b(a, w, n, "w")
    phi_val = eval_phi(float(a), bphi, float(n)).value
    phi_up = eval_phi(float(a), bphi, float(n + 1)).value
    dtotal = phi_da_closed(float(a), bphi, n) + 0.5 * (n + 1.0) * phi_up
    s, sin_t, cos_t = _scale_phase(a, n, a + n)
    half_pi = 0.5 * math.pi
    core = dtotal - _LN2 * phi_val
    d_c = -s * (core * sin_t + half_pi * phi_val * cos_t)
    d_s = s * (core * cos_t - half_pi * phi_val * sin_t)
    return d_c, d_s


def two_sided_family(b: float, beta: float, m: int) -> float:
    """The printed two-sided closed form, kept as printed: it fails against
    direct quadrature (quadrature.two_sided_direct) everywhere but the
    symmetric point, see errata.

    m = 0: claimed pi^3/(1-beta) csc(b pi)(2-sin^2(b pi)) for the integral
    int x^2 e^(-bx)/((1+e^(-x))(1+beta e^(-x))) dx over the line.
    m = 1: the weight-shift ladder turns the (b+i) factor into two integrals,
    the base one times b minus beta times the shifted one with the geometric
    factor squared; the claim for that combination is the geometric-weight
    right side. (The series route behind the claim treats a shift-dependent
    prefactor as constant and integrates terms outside their convergence
    strip.)
    """
    if not (0.0 < b < 1.0):
        raise DomainError("need 0 < b < 1")
    if not (0.0 <= beta < 1.0):
        raise DomainError("need 0 <= beta < 1")
    if m not in (0, 1):
        raise DomainError("only m in {0, 1} is supported")
    base = math.pi ** 3 / math.sin(math.pi * b) * (2.0 - math.sin(math.pi * b) ** 2)
    if m == 0:
        return base / (1.0 - beta)
    return base * (b / (1.0 - beta) + beta / (1.0 - beta) ** 2)


def two_sided_closed(b: float, beta: float) -> float:
    """Partial-fraction closed form of the two-sided base integral (the
    corrected reading of two_sided_family at m = 0, see errata).

    Splitting the two geometric factors and shifting the argument turns the
    beta factor into the unit one, giving
    [K2 - beta^(1-b) (K2 - 2c K1 + c^2 K0)] / (1-beta) with c = -ln beta
    and K0, K1, K2 the power-weighted one-factor line integrals.
    """
    s = math.sin(math.pi * b)
    cth = math.cos(math.pi * b)
    K0 = math.pi / s
    K1 = math.pi ** 2 * cth / s ** 2
    K2 = math.pi ** 3 * (2.0 - s * s) / s ** 3
    if beta == 0.0:
        return K2
    c = -math.log(beta)
    return (K2 - beta ** (1.0 - b) * (K2 - 2.0 * c * K1 + c * c * K0)) / (1.0 - beta)
