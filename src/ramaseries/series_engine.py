"""Tail-bounded summation of the binomial-weighted series family.

The central object is psi(a, b, beta, alpha) = sum_i C(a,i) beta^i / (b+i)^(alpha+1)
with C(a,i) the generalized binomial coefficient. beta = -1 gives the
alternating-weight series phi, beta = +1 its plus-weight twin, and the
same machinery sums the term-wise a-derivative of phi.

Every term comes from one loop, _loop: t_k is the bare binomial product
P_k = t_i prod_(i<=j<k) beta (a-j)/(j+1) times the power factor
((b+i)/(b+k))^(alpha+1) in closed form, and carries w0 + 4k units of
roundoff (w0 from the first term and the power factor, 4 a term from P), so
a sum that cancels counts the roundoff of its largest terms. Where P leaves
double range or the power factor turns subnormal, the loop goes on from
log|P| and counts the roundoff of the logs as well; where a first term
c (b+i)^-(alpha+1) (t_0 = b^-(alpha+1)) is below the normal range it starts
from log|P| = ln|c| - (alpha+1) ln(b+i). A term past 1e308 raises
OverflowError, which the public functions raise as DomainError.

Summation strategy by regime (_regime classifies it). First, before any
term runs, two tests on (a, b, beta, alpha) alone send a sum that the
series cannot give within the target to the paper's integral, by the
trapezoid rule in t = ln x with a derived bound (_integral_psi):
_loop_cannot_stop at |beta| < 1, where the loop's stop test is proven not
to fire within its 256 terms, and _head_cancels at beta = -1, a > 0, where
the terms' counted roundoff is estimated to reach the target (where the
route then misses it, the series runs too: _cancelling). Otherwise:
  * non-negative integer a: the series terminates; the loop runs its
    a + 1 terms to the exact zero t_(a+1) = 0, summed by fsum.
  * |beta| < 1: the same loop, stopped by a geometric tail bound whose
    ratio bound holds where the terms still grow (i < a). A sum here,
    terminating or not, that the loop still cannot give within the target
    goes to _integral_psi after it.
  * beta = -1, negative integer a: a finite Hurwitz zeta combination,
    each zeta with its own bound.
  * |beta| = 1 otherwise: power-law tails (exponent s = a + alpha + 2).
    A head of N terms from the loop plus an asymptotic tail: the
    Tricomi-Erdelyi expansion of the gamma ratio in C(a,i) turns
    sum_(i>=N) t_i into sum_k e_k zeta(s+k, N+c), with the even/odd
    Hurwitz split at beta = +1. The bound adds twice the last two orders
    kept, the Euler-Maclaurin remainders, and the roundoff of head and tail.
  * every Hurwitz value above comes from the one Euler-Maclaurin kernel,
    special_fn._em_zeta (and its s-derivative _em_dzeta), with its
    remainder bound.
  * the a-derivative of the alternating series: the same head and tail,
    differentiated in a. The loop's head, with the same length rule, gives
    t_i H_i with H_i a cumulative sum of 1/(a-j); the tail is the
    a-derivative of the asymptotic tail, the head long enough (N + c >= 40)
    for the differentiated Euler-Maclaurin remainders to keep their bound.
    At a non-negative integer a the terms past i = a are a power-law tail
    of their own, summed by the same asymptotic tail with no derivative.
    The head has no i = 0 term (H_0 = 0), so where t_0 would pass 1e308
    it starts at t_1.

Every bound above is a derived upper bound on the error, not a fit spread.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass

from ramaseries.special_fn import (_BERNOULLI_EVEN, _EPS, DivergenceError, DomainError,
                                   _em_dzeta, _em_zeta, _hurwitz, _whole, digamma)

_SCALAR_TERMS = 256  # _scalar_psi hands a geometric sum to _integral_psi past this many terms
_TAIL_ORDERS = 30  # highest order k of the asymptotic tail
_TARGET = 1e-12  # the sums aim at a bound under max(_TARGET, 1e-13 |value|)
_STRIP = 1.2  # half-width D of the strip |Im t| <= D in which _integral_psi bounds its rule
_DEFAULT_CAP = 10**7
_OVERFLOW = "the series terms overflow double precision"
_NODES = 10**5  # _integral_psi refuses a pass over more nodes than this
_SUBNORMAL = 4.0 * sys.float_info.min  # in units of _EPS, about 2^-1073: see _sum
_LN2 = math.log(2.0)

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
    method: str  # direct | closed-form | integral | recursion | oracle


@dataclass(frozen=True)
class ConvergenceReport:
    """Regime classification for a parameter point."""

    regime: str  # finite | geometric | power-law | divergent
    exponent: float | None = None
    finite_terms: int | None = None


def _is_nonneg_int(a: float) -> bool:
    return a >= 0.0 and float(a).is_integer()


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


def _loop(a: float, b: float, beta: float, alpha: float, i: int, t: float | None, stop: int,
          geometric: bool = False, coef: float = 1.0):
    """The one term loop: t_i, t_(i+1), ... from t_i = t, to t_(stop-1);
    t None stands for t_i = coef (b+i)^-(alpha+1) (t_0 = b^-(alpha+1) at
    i = 0, coef = 1).

    Each term is the bare binomial product P_k = t_i prod_(i<=j<k) beta
    (a-j)/(j+1) times the power factor ((b+i)/(b+k))^(alpha+1) in closed
    form. Where P leaves double range (large |a|, small b), or the power
    factor turns subnormal and would carry too few digits (large alpha),
    the loop keeps log|P| from there on, and such a term is
    sign exp(log|P_k| + (alpha+1) log((b+i)/(b+k))); a term past double
    range raises OverflowError from math.exp. A t_i = coef (b+i)^-(alpha+1)
    below the normal range would carry too few digits, or none: the loop
    then starts from log|P| = -(alpha+1) ln(b+i) + ln|coef|, within
    2 (alpha+1) |ln(b+i)| + 1 units (the log and the product), and
    |ln|coef|| + |log|P|| more where coef is not 1 (its log and the sum);
    t_i = exp(log|P|) counts those units too.

    Given geometric (a sum from i = 0 at |beta| < 1), it stops once the
    tail bound, plus eps k |S|, meets the target. Past term k the ratio
    |t_(j+1) / t_j| = |beta| |a-j| / (j+1) ((b+j) / (b+j+1))^(alpha+1)
    stays under |beta| max(|k-a| / (k+1), 1): |a-j| / (j+1) falls while
    j < a, and past a stays under 1 (a > -1) or falls (a < -1).

    Returns the terms, the extra roundoff units of each term computed from
    log|P| (in _EPS: the roundoff of log|P| where P left, of every log and
    partial sum of the ratios, and of the exponent; the last of them is
    that of the next term), the next term, and the geometric tail bound
    (None where there is none).
    """
    p = alpha + 1.0
    ab, bi = abs(beta), b + i
    terms, extra = [], []
    P, lP = t, None  # lP: log|P| once the loop goes on from logs
    total, inf, tiny = 0.0, math.inf, sys.float_info.min
    if t is None:
        P = t = coef * bi ** -p
        if abs(t) < tiny and coef:  # coef = 0: every term is an exact 0
            lP, sign = -p * math.log(bi), math.copysign(1.0, coef)
            units = 2.0 * abs(lP) + 1.0
            if coef != 1.0:
                lc = math.log(abs(coef))
                lP += lc
                units += abs(lc) + abs(lP)
            extra.append(units)
            t = math.copysign(math.exp(lP), sign)
    for j in range(i, stop):
        terms.append(t)
        total += t
        j1 = j + 1.0
        q = P * beta * (a - j) / j1
        w = (bi / (b + j1)) ** p
        if lP is None and -inf < q < inf and (w >= tiny or not q):
            P = q
            t = P * w
        else:
            r = beta * (a - j) / j1
            if lP is None:
                lP, sign = math.log(abs(P)), math.copysign(1.0, P)
                units = abs(lP) + 1.0
            # r = 0 only at the last ratio of a terminating sum, whose t_(a+1) is 0
            lr = math.log(abs(r)) if r else -inf
            lP += lr
            units += 3.0 + abs(lr) + abs(lP)
            sign = -sign if r < 0.0 else sign
            lw = math.log(bi / (b + j1))
            ex = lP + p * lw
            t = math.copysign(math.exp(ex), sign)
            extra.append(units + p * (4.0 + 2.0 * abs(lw)) + abs(ex))
        if geometric:  # t is t_k, k = j1
            rk = abs(j1 - a) / (j1 + 1.0)
            rhat = ab * rk if rk > 1.0 else ab
            if rhat < 1.0:
                tail = abs(t) / (1.0 - rhat)
                bound = tail + _EPS * j1 * abs(total)
                if bound <= _TARGET or bound <= 1e-13 * abs(total):
                    return terms, extra, t, tail
    return terms, extra, t, None


def _sum(terms: list, extra: list, i: int, b: float, alpha: float, u0: float = 0.0,
         a: float | None = None):
    """fsum of the terms t_i, t_(i+1), ... from _loop (given a, of t_k H_k,
    H_k = sum_(j<k) 1/(a-j)) and its roundoff in units of _EPS.

    Relative roundoff of t_k: w0 = u0 + 3 + (alpha+1)(3 + |ln b| + ln(1 + n/b)),
    n the last index, as t_0 = b^-(alpha+1) carries 1 + (alpha+1)|ln b| (pow,
    and the rounding of alpha + 1) and the power factor 2 + (alpha+1)(3 +
    ln(1 + k/b)), with u0 more where the caller needs them; 4 a term for
    the binomial product; and the extra units _loop reports. Each is weighed by
    |t_k| (|t_k H_k|), so a sum that cancels counts the roundoff of its
    largest terms. H_k adds (k+2) sum_(j<k) |1/(a-j)| units of |t_k|.
    Below the normal range a rounding is off by up to 2^-1075 absolute,
    whatever the size of the term: each term and the sum add _SUBNORMAL.
    """
    w0 = u0 + 3.0 + (alpha + 1.0) * (3.0 + abs(math.log(b)) + math.log1p((i + len(terms) - 1) / b))
    roundoff = 0.0
    if a is not None:
        inc = [1.0 / (a - j) for j in range(i + len(terms) - 1)]  # never 1/0: j < a at integer a
        habs = itertools.islice(itertools.accumulate(map(abs, inc), initial=0.0), i, None)
        roundoff = math.fsum(map(operator.mul, map(abs, terms),
                                 map(operator.mul, habs, itertools.count(2.0 + i))))
        terms = list(map(operator.mul, terms,
                         itertools.islice(itertools.accumulate(inc, initial=0.0), i, None)))
    roundoff += math.fsum(map(operator.mul, map(abs, terms), itertools.count(w0 + 4.0 * i, 4.0)))
    if extra:  # the last entry is that of the next term
        logged = terms[len(terms) + 1 - len(extra):]
        roundoff += math.fsum(map(operator.mul, map(abs, logged), extra))
    return _fsum(terms), roundoff + _SUBNORMAL * (len(terms) + 1)


def _head(a: float, b: float, beta: float, alpha: float, i: int, t: float | None, stop: int,
          u0: float = 0.0, harmonic: bool = False, coef: float = 1.0):
    """sum_(i<=k<stop) t_k from t_i = t (t None: from coef (b+i)^-(alpha+1),
    see _loop; with harmonic, of t_k H_k), its roundoff in units of _EPS
    (see _sum), and t_stop."""
    terms, extra, t, _ = _loop(a, b, beta, alpha, i, t, stop, False, coef)
    return (*_sum(terms, extra, i, b, alpha, u0, a if harmonic else None), t)


def _loop_cannot_stop(a: float, b: float, beta: float, alpha: float, stop: int) -> bool:
    """True where _loop's stop test, on the sum from t_0 at |beta| < 1 (a
    not a non-negative integer), is proven not to fire at any k <= stop.

    The ratio bound r_k = |beta| |a-k| / (k+1) of |C(a,k) beta^k| falls
    while k < a and stays under |beta| past a (a > -1) or falls (a < -1):
    once under 1 it stays there. The test needs r_k < 1, and from that k
    on |t_k| falls (the power factor is under 1), so every tail it tests
    is at least |t_stop| / (1 - |beta|) (rhat >= |beta|), taken by lgamma.
    The
    partial sums are under sum_j |t_j| <= b^-(alpha+1) min((1 - |beta|)^-|a|,
    2^(floor(a)+2) at a > 0), as |C(a,j)| <= (-1)^j C(-|a|, j) and, at
    a > 0, sum_j |C(a,j)| <= 2 sum_(j<=a) C(floor(a)+1, j). A margin of
    2^-10 on the logs covers the rounding of lgamma (|a| <= 2^30) and of the
    loop's terms (alpha <= 2^10); outside those it answers False. First a
    cheap bound: ln|C(a,k)| <= (floor(a)+1) ln 2 at a > 0, and
    max(-a-1, 0) (1 + ln k) at a < 0.
    """
    ab, p = abs(beta), alpha + 1.0
    if not (ab and abs(a) <= 2.0**30 and p <= 2.0**10):
        return False
    rest = stop * math.log(ab) - math.log1p(-ab) - p * math.log(b + stop)  # all but |C(a, stop)|
    least = math.log(_TARGET) + 2.0**-10
    lc_max = (math.floor(a) + 1.0) * _LN2 if a > 0.0 else max(-a - 1.0, 0.0) * (1.0 + math.log(stop))
    if rest + lc_max <= least:
        return False
    lc = math.lgamma(stop - a) - math.lgamma(-a) - math.lgamma(stop + 1.0)
    lsum = -abs(a) * math.log1p(-ab) - p * math.log(b)
    if a > 0.0:
        lsum = min(lsum, (math.floor(a) + 2.0) * _LN2 - p * math.log(b))
    return rest + lc > max(least, math.log(1e-13) + lsum + 2.0**-10)


def _head_cancels(a: float, b: float, alpha: float) -> bool:
    """True where, at beta = -1 and a > 0, the series' counted roundoff
    is estimated to reach the target, so that S goes to _integral_psi.

    _sum charges w0 + 4i units of _EPS to |t_i| (w0 here with n = a), and
    the terms peak near i = a/2, where C(a, i) is within about
    sqrt(pi a / 2) of sum_i C(a, i) = 2^a. That estimate, by lgamma at
    m = floor(a/2), is set against max(1e-12, 1e-13 b^-(alpha+1)), which
    is at least the target: S <= b^-(alpha+1), as (1 - e^-x)^a <= 1. It
    routes from a quarter of that, erring toward the route: the bounds of
    the series that miss the target came out within e^-0.03 to e^0.6 of the
    estimate (a <= 60, 0.05 <= b <= 50, alpha <= 5). Below a = 2 the
    peak is t_0 = b^-(alpha+1) itself, whose roundoff no cancellation
    magnifies; past a = 2^30 lgamma's rounding swamps the estimate, and the
    terms pass 1e308 at once. There it answers False.
    """
    if not 2.0 <= a <= 2.0**30:
        return False
    p, m = alpha + 1.0, math.floor(0.5 * a)
    lt = math.lgamma(a + 1.0) - math.lgamma(m + 1.0) - math.lgamma(a - m + 1.0) - p * math.log(b + m)
    w0 = 3.0 + p * (3.0 + abs(math.log(b)) + math.log1p(a / b))
    units = (w0 + 4.0 * m) * math.sqrt(0.5 * math.pi * a + 1.0)
    target = max(math.log(_TARGET), math.log(1e-13) - p * math.log(b))
    return lt + math.log(_EPS * units) >= target - 2.0 * _LN2


def _scalar_psi(a: float, b: float, beta: float, alpha: float, cap: int | None):
    """The loop from t_0: without cap (a terminating sum, a a non-negative
    integer) its a + 1 terms to the exact zero t_(a+1) = 0; with cap
    (|beta| < 1) at most min(cap, _SCALAR_TERMS) terms under _loop's stop
    test; the bound adds eps (the roundoff of every term + |S|) to the tail.
    eval_psi_general tries _integral_psi first on the sums that
    _loop_cannot_stop or _head_cancels picks (see _cancelling). At
    |beta| < 1 a sum not done,
    past 1e308 or over max(_TARGET, 1e-13 |S|) still goes there, unless its
    bound is under the least roundoff the route counts; the smaller bound
    wins, the loop's where the route raises.
    """
    stop = int(a) + 1 if cap is None else min(cap, _SCALAR_TERMS)
    loop = math.nan, math.inf, 0, "direct"  # no sum: not done, or past 1e308
    try:
        terms, extra, _, tail = _loop(a, b, beta, alpha, 0, None, stop, cap is not None)
        if tail is not None or cap is None:
            value, roundoff = _sum(terms, extra, 0, b, alpha)
            loop = value, (tail or 0.0) + _EPS * (roundoff + abs(value)), len(terms), "direct"
    except (OverflowError, DomainError):
        pass
    if (loop[1] <= _TARGET or loop[1] <= 1e-13 * abs(loop[0]) or abs(beta) == 1.0
            or loop[1] <= _EPS * (alpha + 1.0) * abs(math.log((alpha + 1.0) / b)) * abs(loop[0])):
        return loop  # met, or under the route's least roundoff
    try:
        return min(_integral_psi(a, b, beta, alpha), loop, key=operator.itemgetter(1))
    except (OverflowError, DomainError):
        if loop[1] == math.inf:
            raise
        return loop


def _asymptotic_tail(a: float, b: float, beta: float, alpha: float, c: float,
                     n: int, thr: float, lg: float, sign: float,
                     psi: float | None = None):
    """sum_(i>=n) t_i as sum_k e_k Z_k, with its error bound.

    t_i = sign exp(-lg) (-beta)^i f(i), f as in _powerlaw_psi: lg is
    lgamma(-a) and sign that of 1/Gamma(-a) for the series itself.
    l_n = L_n / q^n (q = n + c) with L_n = (-1)^(n+1) [(B_(n+1)(-a-c)
    - B_(n+1)(1-c)) / (n(n+1)) - (alpha+1) (b-c)^n / n], then e_k / q^k from
    k e_k = sum_n n L_n e_(k-n); L_1 = 0 where s > 1 (c from _head_length).
    The sum stops once two consecutive contributions fall under thr, from
    k = 3 on (the k = 1 one of the value is zero), since odd orders nearly
    vanish when c is near -a/2. The bound adds twice those two, the
    Euler-Maclaurin remainders, and the roundoff of the prefactor
    exp(-lg - s log q) and of the series. Z_k = q^(s+k) sum_(j>=0) (+-1)^j
    (q+j)^-(s+k) and its remainder come from the kernel special_fn._em_zeta,
    plain at beta = -1 and alternating at beta = +1.

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
    rho = sign * math.exp(-lg - s * lnq)
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
        z, rem, zabs = _em_zeta(s + k, sm1 + k, q, beta > 0.0)
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
    tail = _fsum(parts)
    bound = (2.0 * (abs(parts[-1]) + abs(parts[-2])) + em
             + _EPS * (2.0 * abs(lg) + 2.0 * abs(s) * lnq + 2 * k + 16.0) * mag)
    return tail, bound


def _head_length(a: float, b: float, alpha: float, qmin: float, cap: int):
    """The shift c of the tail's variable z = i + c and the head length n.

    c = ((alpha+1) b - a(a+1)/2) / s zeroes L_1 where s = a + alpha + 2 > 1
    (always at beta = +-1); c = b otherwise, where that c runs off to
    infinity as s -> 0 or does not exist. The head passes the sign
    transients (n >= ceil(a) + 2) and q = n + c >= qmin, and runs to
    z >= max(6 max(|a+c|, |1-c|, |b-c|, 1), 32), where the shifts in the log
    series are small against z, or to cap terms.
    """
    s = a + alpha + 2.0
    c = ((alpha + 1.0) * b - 0.5 * a * (a + 1.0)) / s if s > 1.0 else b
    x = max(abs(a + c), abs(1.0 - c), abs(b - c), 1.0)
    n = max(2, math.ceil(a) + 2, math.ceil(qmin - c),
            min(cap, math.ceil(max(6.0 * x, 32.0) - c)))
    return c, n


def _powerlaw_psi(a: float, b: float, beta: float, alpha: float, cap: int):
    """Head of n terms plus the asymptotic tail, at beta = +-1.

    Past the head, t_i = ((-beta)^i / Gamma(-a)) f(i) with
    f(i) = Gamma(i-a) / Gamma(i+1) / (b+i)^(alpha+1). In z = i + c,
    log f = -s log z + sum_n L_n z^-n (Tricomi-Erdelyi, s = a+alpha+2), and
    exp of that series is sum_k e_k z^-k, so the tail is sum_k e_k times a
    Hurwitz zeta of order s+k (even/odd split at beta > 0) from
    special_fn._em_zeta in _asymptotic_tail; the head is _head_length's, q >= 1.
    """
    c, n = _head_length(a, b, alpha, 1.0, cap)
    head, roundoff, t = _head(a, b, beta, alpha, 0, None, n)

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
    return value, tail_bound + _EPS * (roundoff + abs(value)), n, "direct"


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
    return value, math.fsum(errs) + _EPS * abs(value), k, "closed-form"


def _nodes(a: float, b: float, beta: float, alpha: float, h: float, lg: float,
           floor: float, rel: float):
    """log g(kh) of _integral_psi's rule for k walked out from the peak of
    x^(alpha+1) e^(-bx), right then left, until the bound on the nodes past
    the last falls to max(floor, rel + the largest log g); each node's
    roundoff in units of _EPS; the logs of the two tail bounds.

    log g = (alpha+1) t - bx + a ln y - lg, t = kh, x = e^t, e = expm1(-x),
    y = 1 + beta + beta e. Units: (alpha+1 + bx + s) |t| for kh and s for x,
    s = |a beta| x e^(-x) / y; 2 |a beta e| / y for e; 3 |a| for y (1 + beta
    <= 2y); 5, 5, 4 and 3 on (alpha+1) |t|, bx, |a ln y| and |lg|; 1 for exp.
    y^a is monotone in x, so Gamma(alpha+1) times the nodes left of t sum to
    at most h e^((alpha+1) t) max((1 + beta)^a, y^a) / (e^((alpha+1) h) - 1),
    and right of t, once bx >= 2 (alpha+1), to at most max(1, y^a) x^alpha
    e^(-bx) / (b - alpha/x), over the integral of x^alpha e^(-bx) past x.
    """
    p, exp, expm1, log = alpha + 1.0, math.exp, math.expm1, math.log
    b0 = a * math.log1p(beta) if beta > -1.0 else -math.inf  # ln (1 + beta)^a, a > 0 at beta = -1
    left, ab = log(h / expm1(p * h)) - lg, abs(a * beta)
    c0, k0, top = 3.0 * (abs(a) + abs(lg)) + 1.0, math.floor(log(p / b) / h), -math.inf
    ls, units, tails = [], [], []
    for step in (1, -1):
        for k in itertools.count(k0 if step == 1 else k0 - 1, step):
            t = k * h
            x, at = exp(t), abs(t)
            e = expm1(-x)
            y = (1.0 + beta) + beta * e
            bx, ay = b * x, a * log(y)
            lk = p * t - bx + ay - lg
            ls.append(lk)
            units.append(at * (6.0 * p + bx) + 5.0 * bx + 4.0 * abs(ay)
                         + ab * ((at + 1.0) * x * (1.0 + e) - 2.0 * e) / y + c0)
            top = lk if lk > top else top
            if len(ls) > _NODES:
                raise DomainError(f"the integral route needs more than {_NODES} nodes")
            # the left tail's bound, or the right tail's once x >= 2 (alpha+1) / b
            lt = (left + p * t + max(b0, ay) if step == -1 else math.inf if bx < 2.0 * p
                  else alpha * t - bx - log(b - alpha / x) + max(0.0, ay) - lg)
            if lt <= floor or lt <= rel + top:
                break
        tails.append(lt)
    return ls, units, tails


def _logsum(logs) -> float:
    """log sum exp(v) over the logs v, free of overflow."""
    top = max(logs)
    return top + math.log(math.fsum([math.exp(v - top) for v in logs]))


def _integral_psi(a: float, b: float, beta: float, alpha: float):
    """S at |beta| < 1, and at beta = -1 for a > 0, by the paper's integral
    in t = ln x: the trapezoid rule h sum_k g(kh), g = x^(alpha+1) e^(-bx)
    (1 + beta e^(-x))^a / Gamma(alpha+1) (_nodes), as (S, bound, nodes,
    "integral").

    (1 + beta e^(-x))^a branches only at Re x = ln|beta| <= 0 (at beta = -1,
    where 1 - e^(-x) = 0, on Re x = 0), so on |Im t| <= D = _STRIP < pi/2,
    where Re x > 0, g is analytic and |g| at most the same
    integrand at x cos D and beta' = sign(a) |beta|: the rule is off by at
    most K S', S' = S(a, b, beta', alpha), K = 2 (cos D)^-(alpha+1) /
    (e^(2 pi D / h) - 1) (Trefethen and Weideman, SIAM Review 56, 2014,
    Thm 5.1). At beta = -1 the majorant is the beta' = +1 sum, about 2^a
    times S, so the step shrinks as a grows. A pass at K = 1/16 bounds S'
    (S where beta' = beta) by
    (S'_h + tails) (1 + roundoff) / (1 - K), in logs, and S from below by
    S_h - K S'; the step then takes K S' under a quarter of the target
    max(1e-12, 1e-13 S). g's cuts are at 1/1024 of max(1e-12, 1e-13 h
    times its largest node), the majorant's at 1/16 of h times its own.
    A pass over more than _NODES nodes raises DomainError.
    """
    p, lg = alpha + 1.0, math.lgamma(alpha + 1.0)
    width, lk2 = 2.0 * math.pi * _STRIP, math.log(2.0) - p * math.log(math.cos(_STRIP))
    floor, rel = math.log(_TARGET / 1024.0), math.log(1e-13 / 1024.0)

    def step(z):  # the h at which K = e^-z, z > 0
        return width / (z + lk2 + math.log1p(math.exp(-z - lk2)))

    h0 = step(math.log(16.0))
    nodes = _nodes(a, b, beta, alpha, h0, lg, floor, rel + math.log(h0))
    beta1 = math.copysign(abs(beta), a)  # beta' of the majorant
    maj = nodes if beta1 == beta else _nodes(a, b, beta1, alpha, h0, lg, -math.inf, math.log(h0 / 16.0))
    lmaj = (_logsum([math.log(h0) + _logsum(maj[0]) + math.log1p(_EPS * (max(maj[1]) + 2.0))] + maj[2])
            - math.log1p(-1.0 / 16.0))
    lsum = math.log(h0) + _logsum(nodes[0])
    gap = lmaj - math.log(16.0) - lsum  # log K S' / S_h0
    low = lsum + math.log(-math.expm1(gap)) if gap < 0.0 else -math.inf  # log of S_h0 - K S'
    z = math.log(4.0) + lmaj - max(math.log(_TARGET), math.log(1e-13) + low)
    h = h0 if z <= math.log(16.0) else step(z)
    ls, units, tails = nodes if h == h0 else _nodes(a, b, beta, alpha, h, lg, floor, rel + math.log(h))
    g = list(map(math.exp, ls))
    value = h * math.fsum(g)
    roundoff = h * math.fsum(map(operator.mul, g, units)) + 2.0 * value
    bound = (math.exp(lk2 + lmaj - width / h - math.log(-math.expm1(-width / h)))  # K S'
             + math.exp(tails[0]) + math.exp(tails[1]) + _EPS * roundoff)
    return value, bound, len(ls), "integral"


def eval_psi_general(params: SeriesParams, *, cap: int = _DEFAULT_CAP) -> EvalResult:
    """Sum the weighted series for params, with a rigorous error bound.

    The route is chosen first, from the parameters alone: the integral
    route, which refuses a pass over 10^5 nodes, takes a sum at |beta| < 1
    that the series is proven not to finish within 256 terms (or cap, if
    smaller), and a sum at beta = -1, a > 0 whose terms would cancel past
    the target max(1e-12, 1e-13 |S|); where the latter misses the target
    or raises, the series runs too, and the smaller bound wins (the series'
    where the route raises). Otherwise a terminating sum
    (non-negative integer a) runs all its terms. A geometric sum stops when
    its tail bound, plus eps i |S|, drops under that target; its reported
    bound then counts the roundoff of every term. At |beta| < 1 a sum whose
    bound misses the target, that is not done after 256 terms (or cap), or
    whose terms pass 1e308 still goes to the integral route. At |beta| = 1
    cap, an integer >= 1, limits the head: a head cut short of the
    asymptotic range shows in the bound instead of failing.
    """
    cap = _whole(cap, 1, "cap must be a positive integer, got {}")
    params.validate()
    a, b, beta, alpha = params.a, params.b, params.beta, params.alpha
    regime = _regime(a, beta, alpha)
    if regime == "divergent":
        raise DivergenceError(
            f"series diverges: |beta| = 1 and a + alpha = {a + alpha} <= -1")
    if regime == "geometric" and _loop_cannot_stop(a, b, beta, alpha, min(cap, _SCALAR_TERMS)):
        return _result(_integral_psi, a, b, beta, alpha)
    if beta == -1.0 and a > 0.0 and _head_cancels(a, b, alpha):
        return _cancelling(regime, a, b, alpha, cap)
    return _series(regime, a, b, beta, alpha, cap)


def _series(regime: str, a: float, b: float, beta: float, alpha: float, cap: int) -> EvalResult:
    """The EvalResult of the series route of the (convergent) regime."""
    if regime != "power-law":
        return _result(_scalar_psi, a, b, beta, alpha,
                       cap if regime == "geometric" else None)
    if beta == -1.0 and float(a).is_integer():
        return _result(_negint_psi, int(-a), b, alpha)
    return _result(_powerlaw_psi, a, b, beta, alpha, cap)


def _cancelling(regime: str, a: float, b: float, alpha: float, cap: int) -> EvalResult:
    """S at beta = -1 where _head_cancels picks the integral route: the
    route's result where it meets the target. At large a and S the route's
    own roundoff, about 3a units of S, can pass it too; then, and where the
    route raises, the series runs as well, and the smaller bound wins, the
    one that does not raise."""
    try:
        route = _result(_integral_psi, a, b, -1.0, alpha)
    except DomainError:
        return _series(regime, a, b, -1.0, alpha, cap)
    if route.abs_error_bound <= max(_TARGET, 1e-13 * abs(route.value)):
        return route
    try:
        series = _series(regime, a, b, -1.0, alpha, cap)
    except DomainError:
        return route
    return min(route, series, key=operator.attrgetter("abs_error_bound"))


def _result(evaluate, *args) -> EvalResult:
    """The EvalResult of evaluate(*args) = (value, bound, terms used,
    method): a term, prefactor or head length past 1e308 (OverflowError
    from **, math.exp or math.ceil), or a result that is not finite,
    raises DomainError."""
    try:
        value, bound, n, method = evaluate(*args)
    except OverflowError:
        raise DomainError(_OVERFLOW) from None
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
    d/da log t_i = psi(-a) - psi(i-a). A head of N terms, t_i from _loop
    times H_i from a cumulative sum, plus the a-derivative of
    _asymptotic_tail with N and c held at the base a. N is chosen as for
    the power law but with q = N + c >= 40 whatever the cap, so that the
    Euler-Maclaurin remainder of the differentiated zeta sums keeps its
    bound (see special_fn._em_dzeta). Each head term's roundoff is counted: that of
    t_i as in _sum, one unit more for the product t_i H_i (past i = m below,
    for the first term in closed form), and (i+2) sum_(j<i) |1/(a-j)| units
    for H_i.

    At a non-negative integer a = m the i <= m terms keep H_i (its
    denominators a-j stay >= 1), and past i = m the term-wise limit is
    (-1)^(m+1) m! Gamma(i-m)/Gamma(i+1)/(b+i)^(n+1): the power-law terms with
    (-1)^(m+1) m! in place of 1/Gamma(-a), whose tail is _asymptotic_tail
    with no derivative. At a = 0 that leaves -sum_{i>=1} 1/(i (b+i)^(n+1)).
    """
    alpha = float(_whole(n, 0, "n must be a non-negative integer, got {}"))
    cap = _whole(cap, 1, "cap must be a positive integer, got {}")
    SeriesParams(a, b, -1.0, alpha).validate()
    if a + alpha <= -1.0:
        raise DivergenceError(
            f"derivative series diverges: a + n = {a + alpha} <= -1")
    if abs(a) < 1e-150:
        # 1/a would overflow, or t_i go subnormal; in the integral form the
        # weight (1-e^-x)^a = exp(a ln(1-e^-x)) is 1 within 1e-140 wherever
        # it matters, so the a = 0 value stands within its own roundoff
        a = 0.0
    return _result(_phi_da, a, b, alpha, cap)


def _phi_da(a: float, b: float, alpha: float, cap: int):
    """eval_phi_da_direct's value, bound, head length N and method.

    H_0 = 0, so where t_0 = b^-(alpha+1) passes 1e308 the head starts at
    t_1 = -a (b+1)^-(alpha+1); and where the power in the closed form of
    t_(m+1) does, the loop starts that term from its logarithm.
    """
    c, N = _head_length(a, b, alpha, 40.0, cap)
    i0 = 0
    try:
        b ** -(alpha + 1.0)
    except OverflowError:
        i0 = 1
    m = int(a) if _is_nonneg_int(a) else None
    total, roundoff, _ = _head(a, b, -1.0, alpha, i0, None, N if m is None else m + 1, 1.0,
                               harmonic=True, coef=(-a) ** i0)
    if m is None:
        lg, sign, psi = math.lgamma(-a), _sign_recip_gamma_neg(a), digamma(-a)
    else:
        sign = (-1.0) ** (m + 1)
        try:  # 0 where the product passes 1e308
            t_next = sign / ((m + 1.0) * (b + m + 1.0) ** (alpha + 1.0))
        except OverflowError:
            t_next = 0.0
        rest, rest_roundoff, _ = _head(a, b, -1.0, alpha, m + 1, t_next or None, N, 1.0,
                                       coef=sign / (m + 1.0))
        total, roundoff = math.fsum((total, rest)), roundoff + rest_roundoff
        lg, psi = -math.lgamma(a + 1.0), None
    thr = 1e-3 * max(0.1 * _TARGET, _EPS * abs(total))
    tail, tail_bound = _asymptotic_tail(a, b, -1.0, alpha, c, N, thr, lg, sign, psi)
    return total + tail, tail_bound + _EPS * (roundoff + abs(total + tail)), N, "direct"


def _regime(a: float, beta: float, alpha: float) -> str:
    """The one regime classifier, of convergence_report and eval_psi_general."""
    if _is_nonneg_int(a):
        return "finite"
    if abs(beta) < 1.0:
        return "geometric"
    return "power-law" if a + alpha > -1.0 else "divergent"


def convergence_report(params: SeriesParams) -> ConvergenceReport:
    """Classify the summation regime without evaluating anything."""
    a, alpha = params.a, params.alpha
    regime = _regime(a, params.beta, alpha)
    return ConvergenceReport(regime, exponent=a + alpha + 2.0 if regime == "power-law" else None,
                             finite_terms=int(a) + 1 if regime == "finite" else None)
