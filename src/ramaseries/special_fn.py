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
_BERNOULLI_OVER_FACT = [B / math.factorial(2 * m) for m, B in enumerate(_BERNOULLI_EVEN[:9], 1)]
_EPS = 1.1e-16  # unit of roundoff in every bound
_HEAD = 12  # summed terms before the Euler-Maclaurin kernel


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


def _em_corr(sig: float, p: float):
    """1/2 + sum_(m<=8) B_2m/(2m)! (sig)_(2m-1) p^(1-2m), and the size of
    the first omitted term (m = 9): _em_zeta's Bernoulli corrections."""
    c, poch, u, r = 0.5, sig, 1.0 / p, 1.0 / (p * p)  # poch = (sig)_(2m-1), u = p^(1-2m)
    for m in range(8):
        c += _BERNOULLI_OVER_FACT[m] * u * poch
        u *= r
        poch *= (sig + 2 * m + 1) * (sig + 2 * m + 2)
    return c, abs(_BERNOULLI_OVER_FACT[8] * u * poch)


def _em_zeta(sig: float, sm1: float, q: float, alternating: bool):
    """The Euler-Maclaurin kernel: (Z, remainder bound, magnitude) for
    Z = q^sig sum_(j>=0) (+-1)^j (q+j)^-sig, sig > 0, with sm1 = sig - 1
    free of the rounding of sig.

    Eight corrections (_em_corr): h^sig zeta(sig, p) = h (p/h)^(1-sig) /
    (sig-1) + (p/h)^-sig (1/2 + sum_m B_2m/(2m)! (sig)_(2m-1) p^(1-2m)).
    Every even derivative of x^-sig is positive, so the remainder lies
    between zero and the first omitted correction (Johansson, Numer.
    Algorithms 69, 2015). The alternating sum is 2^-sig (zeta(sig, q/2)
    - zeta(sig, (q+1)/2)), whose integral terms differ by an expm1
    (h log1p(1/q) at sig = 1). The magnitude sums the pieces' absolute
    values, for the caller's roundoff.
    """
    if not alternating:
        c1, rem = _em_corr(sig, q)
        z = q / sm1 + c1
        return z, rem, abs(z)
    h = 0.5 * q
    c1, rem1 = _em_corr(sig, h)
    c2, rem2 = _em_corr(sig, h + 0.5)
    w2 = (h / (h + 0.5)) ** sig  # (p2/h)^-sig for p2 = h + 1/2
    lq = math.log1p(1.0 / q)
    dint = h * (-math.expm1(-sm1 * lq) / sm1 if sm1 else lq)
    return c1 - w2 * c2 + dint, rem1 + w2 * rem2, abs(c1) + abs(w2 * c2) + abs(dint)


def _em_dzeta(sig: float, sm1: float, q: float):
    """(dZ/dsig, remainder bound, magnitude) for the plain sum of _em_zeta.

    Its pieces differentiated, d(sig)_(2m-1)/dsig = (sig)_(2m-1)
    sum_(j<2m-1) 1/(sig+j). The x^-sig log x part keeps its remainder under
    the first omitted correction, log q times that of Z, where every even
    derivative up to order 20 keeps one sign: log q > sum_(j<20) 1/(sig+j),
    which q >= 40 and sig > 1 satisfy. The caller sees to q >= 40.
    """
    dc = dmag = 0.0
    poch, hs = sig, 1.0 / sig  # (sig)_(2m-1), sum_(j<2m-1) 1/(sig+j)
    u, r = 1.0 / q, 1.0 / (q * q)  # q^(1-2m)
    for m in range(8):
        t = _BERNOULLI_OVER_FACT[m] * u * poch * hs
        dc += t
        dmag += abs(t)
        u *= r
        hs += 1.0 / (sig + 2 * m + 1) + 1.0 / (sig + 2 * m + 2)
        poch *= (sig + 2 * m + 1) * (sig + 2 * m + 2)
    dint = q / sm1 ** 2
    return dc - dint, 2.0 * math.log(q) * abs(_BERNOULLI_OVER_FACT[8] * u * poch), dmag + dint


def _hurwitz(s: float, q: float, sm1: float | None = None, alternating: bool = False):
    """sum_(j>=0) (+-1)^j (q+j)^-s as (value, bound, terms): hurwitz_zeta, or
    the alternating sum (s > 0, the caller checks). _HEAD terms, then Q^-s Z
    at Q = q + _HEAD; sm1 = s - 1 where the caller has it exact. Roundoff in
    units of _EPS: s/2 + 1 a head term (q + j, the power) plus _HEAD for the
    sum; s/2 + 8 for the tail (Q, the power, Z); one for the last addition."""
    sm1 = s - 1.0 if sm1 is None else sm1
    if not ((sm1 > 0.0 or alternating) and q > 0.0):
        raise DomainError(f"hurwitz_zeta needs s > 1 and q > 0, got s = {s}, q = {q}")
    ts = [(q + j) ** -s for j in range(_HEAD)]
    mag = sum(ts)
    head = sum(ts[0::2]) - sum(ts[1::2]) if alternating else mag
    Q = q + _HEAD
    w = Q ** -s
    z, rem, zmag = _em_zeta(s, sm1, Q, alternating)
    value = head + w * z
    roundoff = (0.5 * s + 1.0 + _HEAD) * mag + (0.5 * s + 8.0) * w * zmag + abs(value)
    return value, w * rem + _EPS * roundoff, _HEAD


def hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta sum_{j>=0} (q+j)^(-s) for s > 1, q > 0: 12 summed terms,
    then the Euler-Maclaurin kernel at q + 12. _hurwitz adds the derived
    bound, the kernel's remainder plus the roundoff."""
    return _hurwitz(s, q)[0]


def _lerch(beta: float, s: float, b: float):
    """lerch_phi as (value, bound, terms)."""
    if not b > 0.0:
        raise DomainError(f"lerch_phi needs b > 0, got b = {b}")
    if not abs(beta) <= 1.0:
        raise DomainError(f"lerch_phi needs |beta| <= 1, got beta = {beta}")
    if beta == 1.0:
        return _hurwitz(s, b)
    if beta == -1.0:
        if not s > 0.0:
            raise DivergenceError("alternating Lerch sum needs s > 0")
        return _hurwitz(s, b, alternating=True)
    c = 2.0 + 0.5 * abs(s)  # a term's roundoff: j units for beta^j, c for the rest
    total = comp = err = 0.0
    p, j, r = 1.0, 0, b ** -s  # beta^j, j, (b+j)^-s
    rhat, bound = abs(beta), math.inf  # term-ratio bound, tail bound
    while True:
        t = p * r
        y = t - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
        err += (j + c) * abs(t)
        p *= beta
        j += 1
        r = (b + j) ** -s
        if s < 0.0:  # the power factor grows; clamp its ratio at 1 once it falls
            rhat = abs(beta) * max(1.0, ((b + j + 1.0) / (b + j)) ** -s)
        if rhat < 1.0:
            bound = abs(p) * r / (1.0 - rhat)
            if bound <= 1e-17 * abs(total) + 5e-324:
                break
        if j > 1_000_000:
            break
    return total, bound + _EPS * (err + 2.0 * abs(total)), j


def lerch_phi(beta: float, s: float, b: float) -> float:
    """Lerch transcendent sum_{j>=0} beta^j (b+j)^(-s), |beta| <= 1, b > 0.

    beta = 1 is hurwitz_zeta (s > 1); beta = -1 (s > 0) 12 summed terms and
    the alternating kernel at b + 12. |beta| < 1 sums with compensation until
    a geometric tail bound falls under 1e-17 |sum|, or for 10^6 terms. _lerch
    adds the bound: the kernel's remainder or the loop's last tail bound (so
    a stop at 10^6 terms shows), plus the roundoff.
    """
    return _lerch(beta, s, b)[0]


def _s_prime(r: float):
    """s_prime as (value, bound, terms)."""
    if r != int(r) or r < 1:
        raise DomainError(f"sprime needs a positive integer index, got {r}")
    if r == 1:
        return PI / 4.0, _EPS * PI / 4.0, 1
    v1, b1, n1 = _hurwitz(float(r), 0.25)
    v2, b2, n2 = _hurwitz(float(r), 0.75)
    f = 4.0 ** -int(r)  # exact
    return f * (v1 - v2), f * (b1 + b2 + _EPS * abs(v1 - v2)), n1 + n2


def s_prime(r: int) -> float:
    """Alternating odd-denominator sum 1 - 3^(-r) + 5^(-r) - ...: pi/4 at
    r = 1, else 4^(-r) (zeta(r,1/4) - zeta(r,3/4)). _s_prime adds the bound,
    the two Hurwitz bounds plus the rounding of the difference (or of pi/4)."""
    return _s_prime(r)[0]


def beta_f(p: float, a: float, b: float) -> float:
    """Gamma-ratio factor Gamma(p+b) Gamma(a+1) / Gamma(p+a+b+1).

    At p = 0 this is the Beta-function value of the binomial series with
    power weight zero. DomainError if any gamma argument sits on a pole.
    """
    return gamma(p + b) * gamma(a + 1.0) / gamma(p + a + b + 1.0)
