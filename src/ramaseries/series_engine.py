"""Tail-bounded summation of the binomial-weighted series family.

The central object is psi(a, b, beta, alpha) = sum_i C(a,i) beta^i / (b+i)^(alpha+1)
with C(a,i) the generalized binomial coefficient. beta = -1 gives the
alternating-weight series phi, beta = +1 its plus-weight twin, and the
same machinery sums the term-wise a-derivative of phi.

Summation strategy by regime, in two term loops (_scalar_psi, _head):
  * non-negative integer a: the series terminates; the scalar loop runs its
    a + 1 terms to the exact zero t_(a+1) = 0 and sums them by fsum.
  * |beta| < 1: the same scalar loop, stopped by a geometric tail bound
    whose ratio bound holds where the terms still grow (i < a); the
    roundoff of every term is counted once it stops. A sum not done after
    256 terms is summed again as a head plus the asymptotic tail below,
    its Hurwitz sums damped by |beta|^j (lam = -log|beta|).
  * beta = -1, negative integer a: a finite Hurwitz zeta combination,
    each zeta with its own bound.
  * |beta| = 1 otherwise: power-law tails (exponent s = a + alpha + 2).
    A head of N terms (_head: numpy chunks of the term ratio's cumulative
    product) plus an asymptotic tail: the Tricomi-Erdelyi expansion of the
    gamma ratio in C(a,i) turns sum_(i>=N) t_i into sum_k e_k zeta(s+k,
    N+c), with the even/odd Hurwitz split at beta = +1. The bound adds
    twice the last two orders kept, the Euler-Maclaurin remainders, and the
    roundoff of head and tail.
  * every Hurwitz value above comes from the one Euler-Maclaurin kernel,
    special_fn._em_zeta (and its s-derivative _em_dzeta), with its
    remainder bound; its damped form _em_damped takes the exponential
    integral e^x E_sig(x) as integral term and sums alternating sums by
    Euler-Boole.
  * terms past double range raise DomainError, checked once per chunk sum
    and once at return; where only the bare binomial product leaves it,
    _terms takes the terms from logs and counts their roundoff.
  * the a-derivative of the alternating series: the same head and tail,
    differentiated in a. The same _head, with the same length rule, sums
    t_i H_i with H_i a cumulative sum of 1/(a-j); the tail is the
    a-derivative of the asymptotic tail, the head long enough (N + c >= 40)
    for the differentiated Euler-Maclaurin remainders to keep their bound.
    At a non-negative integer a the terms past i = a are a power-law tail
    of their own, summed by the same asymptotic tail with no derivative.

Every bound above is a derived upper bound on the error, not a fit spread.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ramaseries.special_fn import (_BERNOULLI_EVEN, _EPS, DivergenceError, DomainError,
                                   _em_damped, _em_dzeta, _em_zeta, _expint_orders, _hurwitz,
                                   digamma)

_CHUNK = 4096  # numpy chunk of _head; on longer ones its threaded BLAS dot can take ms
_SCALAR_TERMS = 256  # _scalar_psi hands a geometric sum to _powerlaw_psi past this many terms
_TAIL_ORDERS = 30  # highest order k of the asymptotic tail
_DIRECT = 1 << 20  # most terms of a damped tail sum summed directly before the kernel
_TARGET = 1e-12  # the sums aim at a bound under max(_TARGET, 1e-13 |value|)
_DEFAULT_CAP = 10**7
_OVERFLOW = "the series terms overflow double precision"

# _BERN_ROWS[n][m]: coefficient of x^m in the Bernoulli polynomial
# B_n(x) = sum_m C(n, m) B_(n-m) x^m
_BERNOULLI = [1.0, -0.5] + [_BERNOULLI_EVEN[j // 2 - 1] if j % 2 == 0 else 0.0
                            for j in range(2, _TAIL_ORDERS + 2)]
_BERN_ROWS = [[math.comb(n, m) * _BERNOULLI[n - m] for m in range(n + 1)]
              for n in range(_TAIL_ORDERS + 2)]


@dataclass(frozen=True)
class SeriesParams:
    """Parameters of the weighted series sum_i C(a,i) beta^i / (b+i)^(alpha+1)."""

    a: float
    b: float
    beta: float
    alpha: float

    def validate(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)
                and math.isfinite(self.beta) and math.isfinite(self.alpha)):
            raise DomainError(f"parameters must be finite, got {self}")
        if not self.b > 0.0:
            raise DomainError(f"b must be positive, got {self.b}")
        if abs(self.beta) > 1.0:
            raise DomainError(f"beta must lie in [-1, 1], got {self.beta}")
        if self.alpha < 0.0:
            raise DomainError(f"alpha must be >= 0, got {self.alpha}")


@dataclass(frozen=True)
class EvalResult:
    """A computed value with its rigorous absolute error bound."""

    value: float
    abs_error_bound: float
    terms_used: int
    method: str  # direct | closed-form | recursion | oracle

    def __post_init__(self):
        # numpy scalars ride in from the vectorized paths; strip the wrapper
        # so repr() and serialization stay plain
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "abs_error_bound", float(self.abs_error_bound))
        object.__setattr__(self, "terms_used", int(self.terms_used))


@dataclass(frozen=True)
class ConvergenceReport:
    """Regime classification for a parameter point."""

    regime: str  # finite | geometric | power-law | divergent
    exponent: float | None = None
    finite_terms: int | None = None


def _is_nonneg_int(a: float) -> bool:
    return a >= 0.0 and a == math.floor(a)


def _sign_recip_gamma_neg(a: float) -> float:
    # sign of 1/Gamma(-a) for non-integer a
    if a < 0.0:
        return 1.0
    return -1.0 if math.floor(a) % 2 == 0 else 1.0


def _fsum(xs) -> float:
    """math.fsum, raising DomainError where the terms left double range."""
    try:
        total = math.fsum(xs)
    except (ValueError, OverflowError):  # inf - inf, or a partial sum past 1e308
        total = math.nan
    if not math.isfinite(total):
        raise DomainError(_OVERFLOW)
    return total


def _scalar_psi(a: float, b: float, beta: float, alpha: float, cap: int):
    """Term by term, summed by fsum: a non-negative integer a runs its a + 1
    terms to the exact zero t_(a+1) = 0; any other a (|beta| < 1) stops once
    its geometric tail bound meets the target, or after _SCALAR_TERMS terms
    (or cap) goes to _powerlaw_psi. Past term i the ratio |t_(j+1) / t_j| =
    |beta| |a-j| / (j+1) ((b+j) / (b+j+1))^(alpha+1) stays under
    |beta| max(|i-a| / (i+1), 1): |a-j| / (j+1) falls while j < a, and past
    a stays under 1 (a > -1) or falls (a < -1).

    Relative roundoff of t_i, in units of _EPS: t_0 carries 1 + (alpha+1)|ln b|
    (pow, and the rounding of alpha + 1), each ratio 5 + 3(alpha+1), one
    more for a - j at non-integer a (w1 = 5 + 4(alpha+1) holds both, since
    alpha + 1 >= 1), and (alpha+1) ln((b+j+1)/(b+j)) from the rounding of
    alpha + 1; those sum to (alpha+1) ln(1 + i/b), which w0 takes at the
    last index. Once the loop stops, the bound adds
    eps (sum_i (w0 + w1 i) |t_i| + |S|) to the tail.
    """
    ab, p = abs(beta), alpha + 1.0
    finite = _is_nonneg_int(a)
    terms = []
    total = tail = 0.0
    t = b ** -p
    for j in range(int(a) + 1 if finite else min(cap, _SCALAR_TERMS)):
        terms.append(t)
        total += t
        t *= beta * (a - j) / (j + 1.0) * ((b + j) / (b + j + 1.0)) ** p
        if finite:
            continue
        i = j + 1
        r = abs(i - a) / (i + 1.0)
        rhat = ab * r if r > 1.0 else ab
        if rhat < 1.0:
            tail = abs(t) / (1.0 - rhat)
            stop = tail + _EPS * i * abs(total)
            if stop <= _TARGET or stop <= 1e-13 * abs(total) or i >= cap:
                break
    else:
        if not finite:
            return _powerlaw_psi(a, b, beta, alpha, cap)
    value = _fsum(terms)
    w0 = 3.0 + p * (3.0 + abs(math.log(b)) + math.log1p((len(terms) - 1) / b))
    roundoff = math.fsum(map(operator.mul, map(abs, terms), itertools.count(w0, 5.0 + 4.0 * p)))
    return value, tail + _EPS * (roundoff + abs(value)), len(terms)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _terms(a: float, b: float, beta: float, alpha: float, i0: int, t0: float,
           n: int, u0: float = 0.0):
    """Terms t_i0 .. t_(i0+n-1) from t_i0 = t0, their indices i, and the
    extra roundoff of each (None where there is none).

    The binomial factor is a cumulative product P of beta (a-j)/(j+1), the
    power factor ((b+i0)/(b+i))^(alpha+1) is taken in closed form, so the
    relative error of t_i grows by at most 4 units of roundoff a term past
    what the power factor carries (see _head_length). Where P alone leaves
    double range (very negative a, large alpha), the terms from there on
    are sign exp(log|P_m| + cumsum log|ratio| + (alpha+1) log((b+i0)/(b+i))),
    and the extra units of each are the roundoff of the logs, of every
    partial sum and of the exponent; u0 is the extra of t0, which every term
    inherits. Past double range the terms come out inf, without a numpy
    warning; the callers raise DomainError on their sums.
    """
    j = np.arange(i0, i0 + n, dtype=np.float64)
    r = np.empty(n)
    r[0] = t0
    np.divide(beta * (a - j[:-1]), j[1:], out=r[1:])
    p = np.cumprod(r)
    power = ((b + i0) / (b + j)) ** (alpha + 1.0)
    m = n if np.isfinite(p[-1]) else int(np.argmin(np.isfinite(p)))
    if not 0 < m < n:
        return p * power, j, None if not u0 else np.full(n, u0)
    lp = math.log(abs(p[m - 1]))
    lr, lw = np.log(np.abs(r[m:])), np.log((b + i0) / (b + j[m:]))
    ls = lp + np.cumsum(lr)
    ex = ls + (alpha + 1.0) * lw
    t = p * power
    t[m:] = math.copysign(1.0, p[m - 1]) * np.cumprod(np.sign(r[m:])) * np.exp(ex)
    xu = np.full(n, u0)
    xu[m:] += (abs(lp) + np.cumsum(3.0 + np.abs(lr) + np.abs(ls))
               + (alpha + 1.0) * (4.0 + 2.0 * np.abs(lw)) + np.abs(ex) + 1.0)
    return t, j, xu


@np.errstate(over="ignore", invalid="ignore")  # terms past 1e308 raise DomainError in the callers
def _head(a: float, b: float, beta: float, alpha: float, i: int, t: float, stop: int,
          w0: float, harmonic: bool = False):
    """sum_(i<=k<stop) t_k from t_i = t, in numpy chunks of _terms; with
    harmonic (from i = 0) sum t_k H_k, H_k = sum_(j<k) 1/(a-j). Returns the
    sum, its roundoff in units of _EPS, and t_stop.

    Relative roundoff of t_k, in units of _EPS: w0 (see _head_length; a
    harmonic caller adds one for the product t_k H_k), 4 a term for the
    binomial product, and the extra units _terms reports, each weighed by
    |t_k|, so a head that cancels counts the roundoff of its largest terms.
    H_k adds (k+2) sum_(j<k) |1/(a-j)| units of |t_k|.
    """
    sums = []
    roundoff = u = h = habs = 0.0  # u: extra units that t carries (see _terms)
    while i < stop:
        L = min(_CHUNK, stop - i)
        run, j, xu = _terms(a, b, beta, alpha, i, t, L + 1, u)
        d, j = run[:L], j[:L]
        if harmonic:
            inc = 1.0 / (a - j[:-1])  # never 1/0: j < a at integer a
            H = np.cumsum(np.concatenate(([h], inc)))
            A = np.cumsum(np.concatenate(([habs], np.abs(inc))))
            roundoff += float(((j + 2.0) * A) @ np.abs(d))
            d = d * H
            if i + L < stop:
                last = 1.0 / (a - j[-1])
                h, habs = H[-1] + last, A[-1] + abs(last)
        mags = np.abs(d)
        roundoff += w0 * float(mags.sum()) + 4.0 * float(mags @ j)
        if xu is not None:
            roundoff += float(mags @ xu[:L])
            u = float(xu[L])
        sums.append(_fsum(d.tolist()))
        t = float(run[L])
        i += L
    return math.fsum(sums), roundoff, t


def _asymptotic_tail(a: float, b: float, beta: float, alpha: float, c: float,
                     n: int, thr: float, lg: float, sign: float,
                     psi: float | None = None):
    """sum_(i>=n) t_i as sum_k e_k Z_k, with its error bound.

    t_i = sign exp(-lg) (-beta)^i f(i), f as in _powerlaw_psi: lg is
    lgamma(-a) and sign that of 1/Gamma(-a) for the series itself.
    l_n = L_n / q^n (q = n + c) with L_n = (-1)^(n+1) [(B_(n+1)(-a-c)
    - B_(n+1)(1-c)) / (n(n+1)) - (alpha+1) (b-c)^n / n], then e_k / q^k from
    k e_k = sum_n n L_n e_(k-n); L_1 = 0 where s > 1 (c from
    _head_length). The sum stops once two consecutive
    contributions fall under thr, from k = 3 on (the k = 1 one of the
    value is zero), since odd orders nearly vanish when c is near -a/2. The bound adds
    twice those two, the Euler-Maclaurin remainders, and the roundoff of
    the prefactor exp(-lg - s log q - lam n) and of the series. Z_k =
    q^(s+k) sum_(j>=0) (+-1)^j e^(-lam j) (q+j)^-(s+k), lam = -log|beta|,
    and its remainder come from the kernel special_fn._em_zeta (its damped
    form _em_damped where lam > 0), plain at beta < 0 and alternating at
    beta > 0. Where the damped kernel needs lam q >= 1 (at beta < 0 for its
    exponential-integral fraction, at s <= 0 for its remainder), the first
    J = 1/lam - q terms of each Z_k are summed directly as
    exp(-lam j - (s+k) log(1 + j/q)), each within
    2 lam j + 3 |s+k| log(1 + j/q) + 4 units, plus 20 + log2 J for numpy's
    pairwise sum (8-way runs of 16 in blocks of 128), and the kernel takes
    the rest at q + J; the integral terms of all orders there come from
    one special_fn._expint_orders.

    Given psi = digamma(-a) (beta = -1 only), it returns the a-derivative
    of the tail instead, with n and c held: the prefactor gives
    psi - log q, d(n l_n)/da = (-1)^n B_n(-a-c) / q^n (nonzero at n = 1)
    feeds the same recursion for de_k, and dZ_k/ds comes from
    special_fn._em_dzeta. Its contributions, stopping rule and bound are
    built the same way.
    """
    s = a + alpha + 2.0
    q = n + c
    lnq = math.log(q)
    u = 1.0 / q
    x1, x2, y = -(a + c) * u, (1.0 - c) * u, (b - c) * u
    px1, px2 = [1.0, x1], x2  # x1^m, m = 0, 1, ...; x2^m
    diffs = [0.0, x1 - x2]  # (x1^m - x2^m)
    up = [1.0, u]  # u^m
    nl, dnl = [0.0], [0.0]  # n l_n and its a-derivative
    e, de = [1.0], [0.0]
    lam = -math.log(abs(beta)) if abs(beta) < 1.0 else 0.0
    rho = sign * math.exp(-lg - s * lnq - lam * n)  # |beta|^n at |beta| < 1
    J = min(max(0, math.ceil(1.0 / lam - q)), _DIRECT) if lam and (beta < 0.0 or s <= 0.0) else 0
    q1 = q + J
    if J:
        jj = np.arange(J, dtype=np.float64)
        damp, lx, lx1 = -lam * jj, np.log1p(jj / q), math.log1p(J / q)
    orders = _expint_orders(s, q1 * lam, _TAIL_ORDERS) if lam and beta < 0.0 else None
    if beta > 0.0 and n % 2:
        rho = -rho  # (-beta)^i alternates from (-1)^n
    parts = []
    em = mag = 0.0
    sm1 = (a + 1.0) + alpha
    for k in range(_TAIL_ORDERS + 1):
        if k:
            px1.append(px1[-1] * x1)
            px2 *= x2
            diffs.append(px1[-1] - px2)
            up.append(up[-1] * u)
            if k == 1 and s > 1.0:
                nl.append(0.0)  # L_1 = 0 by the choice of c
            else:
                # B_(k+1)(x1) - B_(k+1)(x2), over q^k
                bdiff = q * sum(map(operator.mul, _BERN_ROWS[k + 1],
                                    map(operator.mul, diffs, reversed(up))))
                ell = bdiff / (k * (k + 1.0)) - (alpha + 1.0) * y ** k / k
                nl.append(k * ell if k % 2 else -k * ell)
            if psi is not None:
                # B_k(-a-c) / q^k
                bk = sum(map(operator.mul, _BERN_ROWS[k],
                             map(operator.mul, px1, up[k::-1])))
                dnl.append(-bk if k % 2 else bk)
                de.append((sum(map(operator.mul, dnl[1:], e[::-1]))
                           + sum(map(operator.mul, nl[1:], de[::-1]))) / k)
            e.append(sum(map(operator.mul, nl[1:], reversed(e))) / k)
        if lam:
            z, rem, zabs = _em_damped(s + k, q1, lam, beta > 0.0, orders and orders[k])
        else:
            z, rem, zabs = _em_zeta(s + k, sm1 + k, q1, beta > 0.0)
        if J:  # Z_k(q) = sum_(j<J) (+-1)^j e^(-lam j) (1 + j/q)^-sig + w Z_k(q + J)
            sig = s + k
            direct = np.exp(damp - sig * lx)
            if beta > 0.0:
                direct[1::2] *= -1.0
            w = math.exp(-lam * J - sig * lx1) * (-1.0 if beta > 0.0 and J % 2 else 1.0)
            dabs = float(np.abs(direct).sum())
            units = 2.0 * lam * J + 3.0 * abs(sig) * lx1 + 24.0 + math.log2(J)
            z, rem, zabs = (float(direct.sum()) + w * z,
                            abs(w) * (rem + _EPS * (lam * J + 2.0 * abs(sig) * lx1 + 4.0) * zabs)
                            + _EPS * units * dabs,
                            dabs + abs(w) * zabs)
        ce = rho * e[k]
        if psi is None:
            parts.append(ce * z)
            em += abs(ce) * rem
            mag += abs(ce) * zabs
        else:
            dz, drem, dzabs = _em_dzeta(s + k, sm1 + k, q)
            dce = rho * ((psi - lnq) * e[k] + de[k])
            parts.append(dce * z + ce * dz)
            em += abs(dce) * rem + abs(ce) * drem
            mag += (abs(rho) * ((abs(psi) + lnq) * abs(e[k]) + abs(de[k])) * zabs
                    + abs(ce) * dzabs)
        if (k >= 3 and abs(parts[-1]) <= thr and abs(parts[-2]) <= thr) or k == _TAIL_ORDERS:
            break
    tail = math.fsum(parts)
    bound = (2.0 * (abs(parts[-1]) + abs(parts[-2])) + em
             + _EPS * (2.0 * abs(lg) + 2.0 * abs(s) * lnq + 2.0 * lam * n + 2 * k + 16.0) * mag)
    return tail, bound


def _head_length(a: float, b: float, alpha: float, qmin: float, cap: int):
    """The shift c of the tail's variable z = i + c, the head length n, and
    w0, the roundoff units of a head term that do not grow with its index.

    c = ((alpha+1) b - a(a+1)/2) / s zeroes L_1 where s = a + alpha + 2 > 1
    (always at beta = +-1); c = b otherwise, where that c runs off to
    infinity as s -> 0 or does not exist. The head passes the sign
    transients (n >= ceil(a) + 2) and q = n + c >= qmin, and runs to
    z >= max(6 max(|a+c|, |1-c|, |b-c|, 1), 32), where the shifts in the log
    series are small against z, or to cap terms. In units of _EPS, t_0
    carries 1 + (alpha+1)|ln b| (pow, and the rounding of alpha + 1), the
    power factor 2 + (alpha+1)(3 + ln(1 + i/b)).
    """
    s = a + alpha + 2.0
    c = ((alpha + 1.0) * b - 0.5 * a * (a + 1.0)) / s if s > 1.0 else b
    x = max(abs(a + c), abs(1.0 - c), abs(b - c), 1.0)
    n = max(2, math.ceil(a) + 2, math.ceil(qmin - c),
            min(cap, math.ceil(max(6.0 * x, 32.0) - c)))
    return c, n, 3.0 + (alpha + 1.0) * (3.0 + abs(math.log(b)) + math.log1p(n / b))


@np.errstate(over="ignore", invalid="ignore")  # terms past 1e308 raise DomainError in the caller
def _powerlaw_psi(a: float, b: float, beta: float, alpha: float, cap: int):
    """Head of n terms plus the asymptotic tail: at beta = +-1, and for the
    geometric sums (|beta| < 1) that the scalar loop left unfinished.

    Past the head, t_i = ((-beta)^i / Gamma(-a)) f(i) with
    f(i) = Gamma(i-a) / Gamma(i+1) / (b+i)^(alpha+1). In z = i + c,
    log f = -s log z + sum_n L_n z^-n (Tricomi-Erdelyi, s = a+alpha+2), and
    exp of that series is sum_k e_k z^-k, so the tail is sum_k e_k times a
    Hurwitz zeta of order s+k (even/odd split at beta > 0), damped by
    |beta|^j below |beta| = 1, from the kernels special_fn._em_zeta and
    _em_damped in _asymptotic_tail. The head is _head_length's, q >= 1.
    """
    c, n, w0 = _head_length(a, b, alpha, 1.0, cap)
    head, roundoff, t = _head(a, b, beta, alpha, 0, b ** -(alpha + 1.0), n, w0)

    # For a > -1 the terms past i = a shrink: d/dx log f <= -s / (x+m) with
    # m = max(1, b), so f(x) <= f(n) ((n+m)/(x+m))^s. The tail is then under
    # |t_n| where it alternates (beta = +1) and under |t_n| (1 + (n+m)/(s-1))
    # where it keeps one sign; one under thr is left out.
    thr = 1e-3 * max(0.1 * _TARGET, _EPS * abs(head))
    sm1 = (a + 1.0) + alpha  # s - 1 without the rounding of s near 1
    rest = math.inf
    if a > -1.0:  # then sm1 > 0
        rest = abs(t) * (1.0 if beta > 0.0 else 1.0 + (n + max(1.0, b)) / sm1)
    if rest <= thr:
        tail, tail_bound = 0.0, rest
    else:
        tail, tail_bound = _asymptotic_tail(a, b, beta, alpha, c, n, thr, math.lgamma(-a),
                                            _sign_recip_gamma_neg(a))
    value = head + tail
    return value, tail_bound + _EPS * (roundoff + abs(value)), n


def _negint_psi(k: int, b: float, alpha: float):
    """beta = -1 at a = -k: the weight C(k-1+i, i) is a degree k-1 polynomial
    in (b+i), so S = sum_r poly_r zeta(alpha+2-k+r, b) / (k-1)!. The bound
    adds each zeta's bound and, in units of _EPS, 3k |poly|_r (|poly| from
    |j - b|) for the coefficients, 2 for product and quotient, and sig L,
    L = max(|ln b|, ln(b + 12)), for the rounding of sig = sm1 + 1; sm1 =
    alpha - (k-1) + r keeps sig - 1 exact where it is small."""
    poly, absp = [1.0], [1.0]
    for j in range(1, k):
        root = float(j) - b
        poly = [x + y * root for x, y in zip(poly + [0.0], [0.0] + poly)]
        absp = [x + y * abs(root) for x, y in zip(absp + [0.0], [0.0] + absp)]
    fact = float(math.factorial(k - 1))
    L = max(abs(math.log(b)), math.log(b + 12.0))
    pieces, errs = [], []
    for r, (c, cabs) in enumerate(zip(poly, absp)):
        sm1 = (alpha - (k - 1)) + r
        z, zb, _ = _hurwitz(sm1 + 1.0, b, sm1)
        pieces.append(c * z / fact)
        errs.append((abs(c) * (zb + _EPS * ((sm1 + 1.0) * L + 2.0) * z)
                     + _EPS * 3.0 * k * cabs * z) / fact)
    value = math.fsum(pieces)
    return value, math.fsum(errs) + _EPS * abs(value), k


def eval_psi_general(params: SeriesParams, *, cap: int = _DEFAULT_CAP) -> EvalResult:
    """Sum the weighted series for params, with a rigorous error bound.

    A terminating sum (non-negative integer a) runs all its terms. A
    geometric sum stops when its tail bound, plus eps i |S|, drops under
    max(1e-12, 1e-13 |S|); its reported bound then counts the roundoff of
    every term, which a cancelling sum can lift past that target. One not
    done after 256 terms (or after cap, if smaller) goes to a head and an
    asymptotic tail, as at |beta| = 1. cap limits that head: a head cut
    short of the asymptotic range shows in the bound instead of failing.
    """
    params.validate()
    a, b, beta, alpha = params.a, params.b, params.beta, params.alpha
    method = "direct"
    if _is_nonneg_int(a) or abs(beta) < 1.0:
        value, bound, n = _scalar_psi(a, b, beta, alpha, cap)
    elif a + alpha <= -1.0:
        raise DivergenceError(
            f"series diverges: |beta| = 1 and a + alpha = {a + alpha} <= -1")
    elif beta == -1.0 and a == math.floor(a):
        value, bound, n = _negint_psi(int(-a), b, alpha)
        method = "closed-form"
    else:
        value, bound, n = _powerlaw_psi(a, b, beta, alpha, cap)
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise DomainError(_OVERFLOW)
    return EvalResult(value, bound, n, method)


def eval_phi(a: float, b: float, alpha: float, *, cap: int = _DEFAULT_CAP) -> EvalResult:
    """Alternating-weight series sum_i (-1)^i C(a,i) / (b+i)^(alpha+1)."""
    return eval_psi_general(SeriesParams(a, b, -1.0, alpha), cap=cap)


def eval_phi_tilde(a: float, b: float, alpha: float, *, cap: int = _DEFAULT_CAP) -> EvalResult:
    """Plus-weight series sum_i C(a,i) / (b+i)^(alpha+1).

    Every term carries the plain binomial sign pattern of expanding
    (1 + e^-x)^a; there is no trailing alternation.
    """
    return eval_psi_general(SeriesParams(a, b, 1.0, alpha), cap=cap)


def eval_phi_da_direct(a: float, b: float, n: int, *, cap: int = _DEFAULT_CAP) -> EvalResult:
    """Term-wise a-derivative of the alternating series, with a rigorous bound.

    Returns sum_{i>=1} (-1)^i C(a,i) H_i(a) / (b+i)^(n+1) with
    H_i(a) = sum_{j<i} 1/(a-j): the term t_i of S(a, b, -1, n) times
    d/da log t_i = psi(-a) - psi(i-a). A head of N terms, t_i from _terms
    times H_i from a cumulative sum, plus the a-derivative of
    _asymptotic_tail with N and c held at the base a. N is chosen as for
    the power law but with q = N + c >= 40 whatever the cap, so that the
    Euler-Maclaurin remainder of the differentiated zeta sums keeps its
    bound (see special_fn._em_dzeta). Each head term's roundoff is counted: that of
    t_i as in _head, and (i+2) sum_(j<i) |1/(a-j)| units for H_i.

    At a non-negative integer a = m the i <= m terms keep H_i (its
    denominators a-j stay >= 1), and past i = m the term-wise limit is
    (-1)^(m+1) m! Gamma(i-m)/Gamma(i+1)/(b+i)^(n+1): the power-law terms with
    (-1)^(m+1) m! in place of 1/Gamma(-a), whose tail is _asymptotic_tail
    with no derivative. At a = 0 that leaves -sum_{i>=1} 1/(i (b+i)^(n+1)).
    """
    SeriesParams(a, b, -1.0, float(n)).validate()
    if n != int(n):
        raise DomainError(f"n must be a non-negative integer, got {n}")
    alpha = float(n)
    if a + alpha <= -1.0:
        raise DivergenceError(
            f"derivative series diverges: a + n = {a + alpha} <= -1")
    if abs(a) < 1e-150:
        # 1/a would overflow, or t_i go subnormal; in the integral form the
        # weight (1-e^-x)^a = exp(a ln(1-e^-x)) is 1 within 1e-140 wherever
        # it matters, so the a = 0 value stands within its own roundoff
        a = 0.0
    c, N, w0 = _head_length(a, b, alpha, 40.0, cap)
    t0 = b ** -(alpha + 1.0)
    if _is_nonneg_int(a):
        m = int(a)
        total, roundoff, _ = _head(a, b, -1.0, alpha, 0, t0, m + 1, w0 + 1.0, harmonic=True)
        t_next = (-1.0) ** (m + 1) / ((m + 1.0) * (b + m + 1.0) ** (alpha + 1.0))
        rest, rest_roundoff, _ = _head(a, b, -1.0, alpha, m + 1, t_next, N, w0 + 1.0)
        total, roundoff = math.fsum((total, rest)), roundoff + rest_roundoff
        lg, sign, psi = -math.lgamma(a + 1.0), (-1.0) ** (m + 1), None
    else:
        total, roundoff, _ = _head(a, b, -1.0, alpha, 0, t0, N, w0 + 1.0, harmonic=True)
        lg, sign, psi = math.lgamma(-a), _sign_recip_gamma_neg(a), digamma(-a)
    thr = 1e-3 * max(0.1 * _TARGET, _EPS * abs(total))
    tail, tail_bound = _asymptotic_tail(a, b, -1.0, alpha, c, N, thr, lg, sign, psi)
    value, bound = total + tail, tail_bound + _EPS * (roundoff + abs(total + tail))
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise DomainError(_OVERFLOW)
    return EvalResult(value, bound, N, "direct")


def convergence_report(params: SeriesParams) -> ConvergenceReport:
    """Classify the summation regime without evaluating anything."""
    a, beta, alpha = params.a, params.beta, params.alpha
    if _is_nonneg_int(a):
        return ConvergenceReport("finite", finite_terms=int(a) + 1)
    if abs(beta) < 1.0:
        return ConvergenceReport("geometric")
    if a + alpha > -1.0:
        return ConvergenceReport("power-law", exponent=a + alpha + 2.0)
    return ConvergenceReport("divergent")
