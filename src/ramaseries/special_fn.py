"""Scalar special functions used by the series and identity layers.

Everything here is plain float64. The implementations favour transparent
recurrence + asymptotic-series forms over maximal speed, because these
values feed verification oracles and need to be auditable.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015329
CATALAN = 0.915965594177219
PI = math.pi

# Bernoulli numbers B_2, B_4, ..., B_30 (ratios of exact integers).
_BERNOULLI_EVEN = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)


class DomainError(ValueError):
    """Argument outside the mathematical domain of the requested function."""


class DivergenceError(ValueError):
    """The requested series does not converge for these parameters."""


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function; DomainError at the poles x = 0, -1, -2, ...

    Overflow for large positive x propagates as OverflowError unchanged.
    """
    if _is_nonpositive_int(x):
        raise DomainError(f"gamma pole at x = {x}")
    return math.gamma(x)


def digamma(x: float) -> float:
    """Logarithmic derivative of gamma; DomainError at non-positive integers.

    Negative arguments go through the reflection formula, then the value is
    shifted up to x >= 15 with psi(x) = psi(x+1) - 1/x and finished with the
    asymptotic series log x - 1/(2x) - sum B_2n / (2n x^2n).
    """
    if _is_nonpositive_int(x):
        raise DomainError(f"digamma pole at x = {x}")
    if x < 0.5:
        # reflection keeps the shift count bounded for very negative x; the
        # exact reduction x - round(x) keeps pi cot(pi x) accurate near a pole
        return digamma(1.0 - x) - PI / math.tan(PI * (x - round(x)))
    acc = 0.0
    while x < 15.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    s = 0.0
    p = inv2
    for n in range(1, 7):
        s += _BERNOULLI_EVEN[n - 1] / (2.0 * n) * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - s


def _hurwitz_em(s: float, q: float) -> float:
    # Euler-Maclaurin core, valid for s > 0, s != 1, q > 0.
    K = 12
    head = 0.0
    for j in range(K):
        head += (q + j) ** (-s)
    Q = q + K
    tail = Q ** (1.0 - s) / (s - 1.0) + 0.5 * Q ** (-s)
    # derivative terms B_2n/(2n)! * (s)_{2n-1} * Q^(-s-2n+1)
    poch = s
    fact = 2.0
    qpow = Q ** (-s - 1.0)
    for n in range(1, 9):
        tail += _BERNOULLI_EVEN[n - 1] / fact * poch * qpow
        poch *= (s + 2.0 * n - 1.0) * (s + 2.0 * n)
        fact *= (2.0 * n + 1.0) * (2.0 * n + 2.0)
        qpow /= Q * Q
    return head + tail


def hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta sum_{j>=0} (q+j)^(-s) for s > 1, q > 0.

    Euler-Maclaurin with 12 summed head terms; the tail at Q = q + 12 is
    Q^(1-s)/(s-1) + Q^(-s)/2 plus eight Bernoulli derivative corrections.
    """
    if s <= 1.0:
        raise DomainError(f"hurwitz_zeta needs s > 1, got s = {s}")
    if q <= 0.0:
        raise DomainError(f"hurwitz_zeta needs q > 0, got q = {q}")
    return _hurwitz_em(s, q)


def lerch_phi(beta: float, s: float, b: float) -> float:
    """Lerch transcendent sum_{j>=0} beta^j (b+j)^(-s), |beta| <= 1, b > 0.

    |beta| < 1 sums the terms with a guarded geometric tail bound. beta = 1
    is Hurwitz zeta (s > 1). beta = -1 splits into even/odd Hurwitz parts
    for s > 1, uses the digamma difference at s = 1, and pairs consecutive
    terms for 0 < s < 1.
    """
    if b <= 0.0:
        raise DomainError(f"lerch_phi needs b > 0, got b = {b}")
    if abs(beta) > 1.0:
        raise DomainError(f"lerch_phi needs |beta| <= 1, got beta = {beta}")
    if beta == 1.0:
        return hurwitz_zeta(s, b)
    if beta == -1.0:
        if s <= 0.0:
            raise DivergenceError("alternating Lerch sum needs s > 0")
        if s == 1.0:
            return 0.5 * (digamma(0.5 * (b + 1.0)) - digamma(0.5 * b))
        return 2.0 ** (-s) * (_hurwitz_em(s, 0.5 * b) - _hurwitz_em(s, 0.5 * (b + 1.0)))
    total = 0.0
    comp = 0.0
    p = 1.0
    j = 0
    while True:
        t = p * (b + j) ** (-s)
        y = t - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
        p *= beta
        j += 1
        # conservative term-ratio estimate; the power factor only helps
        # once (b+j)^(-s) is decreasing, so clamp the ratio at |beta|*1
        rhat = abs(beta) * max(1.0, ((b + j + 1.0) / (b + j)) ** (-s))
        if rhat < 1.0:
            bound = abs(p) * (b + j) ** (-s) / (1.0 - rhat)
            if bound <= 1e-17 * abs(total) + 5e-324:
                break
        if j > 1_000_000:
            break
    return total


def s_prime(r: int) -> float:
    """Alternating odd-denominator sum 1 - 3^(-r) + 5^(-r) - ...

    r = 1 gives pi/4 through the digamma difference; r >= 2 through Hurwitz
    zeta at quarter-arguments: 4^(-r) (zeta(r,1/4) - zeta(r,3/4)).
    """
    if r < 1 or r != int(r):
        raise DomainError(f"s_prime needs an integer r >= 1, got {r}")
    r = int(r)
    if r == 1:
        return 0.25 * (digamma(0.75) - digamma(0.25))
    return 4.0 ** (-r) * (hurwitz_zeta(float(r), 0.25) - hurwitz_zeta(float(r), 0.75))


def beta_f(p: float, a: float, b: float) -> float:
    """Gamma-ratio factor Gamma(p+b) Gamma(a+1) / Gamma(p+a+b+1).

    At p = 0 this is the Beta-function value of the binomial series with
    power weight zero. DomainError if any gamma argument sits on a pole.
    """
    return gamma(p + b) * gamma(a + 1.0) / gamma(p + a + b + 1.0)
