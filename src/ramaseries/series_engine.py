"""Tail-bounded summation of the binomial-weighted series family.

The central object is psi(a, b, beta, alpha) = sum_i C(a,i) beta^i / (b+i)^(alpha+1)
with C(a,i) the generalized binomial coefficient. beta = -1 gives the
alternating-weight series phi, beta = +1 its plus-weight twin, and the
same machinery sums the term-wise a-derivative of phi.

Summation strategy by regime:
  * non-negative integer a: the series terminates, summed exactly.
  * |beta| < 1: scalar compensated loop with a geometric tail bound; a sum
    longer than 256 terms goes on in numpy chunks under the same stopping
    rule.
  * beta = -1, negative integer a: a finite Hurwitz zeta combination,
    each zeta with its own bound.
  * |beta| = 1 otherwise: power-law tails (exponent s = a + alpha + 2).
    A head of N terms (a numpy cumulative product of the term ratio) plus
    an asymptotic tail: the Tricomi-Erdelyi expansion of the gamma ratio
    in C(a,i) turns sum_(i>=N) t_i into sum_k e_k zeta(s+k, N+c), with the
    even/odd Hurwitz split at beta = +1. The bound adds twice the last two
    orders kept, the Euler-Maclaurin remainders, and the roundoff of head
    and tail.
  * every Hurwitz value above comes from the one Euler-Maclaurin kernel,
    special_fn._em_zeta (and its s-derivative _em_dzeta), with its
    remainder bound.
  * terms past double range raise DomainError, checked once per chunk sum
    and once at return.
  * the a-derivative of the alternating series: the same head and tail,
    differentiated in a. Head terms are t_i H_i with H_i a cumulative sum
    of 1/(a-j); the tail is the a-derivative of the asymptotic tail, the
    head long enough (N + c >= 40) for the differentiated Euler-Maclaurin
    remainders to keep their bound. At a non-negative integer a the terms
    past i = a are a power-law tail of their own, summed by the same
    asymptotic tail with no derivative.

Every bound above is a derived upper bound on the error, not a fit spread.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ramaseries.special_fn import (_BERNOULLI_EVEN, _EPS, DivergenceError, DomainError,
                                   _em_dzeta, _em_zeta, _hurwitz, digamma)

_CHUNK = 32768
_SCALAR_TERMS = 256  # geometric sums go to numpy chunks past this many terms
_GEOMETRIC_CHUNK = 4096  # small: a geometric sum stops mid-chunk, and 32768 raised peak RSS
_TAIL_ORDERS = 30  # highest order k of the asymptotic tail
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


def _finite_psi(a: int, b: float, beta: float, alpha: float):
    """Terminating series: exactly a+1 terms, summed by fsum.

    Relative roundoff of t_i, in units of _EPS: t_0 carries 1 + (alpha+1)|ln b|
    (pow, and the rounding of alpha + 1), each ratio 5 + 4(alpha+1) plus
    (alpha+1) ln((b+i+1)/(b+i)) from the rounding of alpha + 1 in its power;
    w0 covers the parts that do not grow with i, as in _powerlaw_psi.
    """
    terms = []
    t = b ** -(alpha + 1.0)
    for i in range(a + 1):
        terms.append(t)
        t *= beta * (a - i) / (i + 1.0) * ((b + i) / (b + i + 1.0)) ** (alpha + 1.0)
    value = _fsum(terms)
    w0 = 3.0 + (alpha + 1.0) * (3.0 + abs(math.log(b)) + math.log1p(a / b))
    w1 = 5.0 + 4.0 * (alpha + 1.0)
    roundoff = math.fsum(map(operator.mul, map(abs, terms), itertools.count(w0, w1)))
    return value, _EPS * (roundoff + abs(value)), a + 1


@np.errstate(over="ignore", invalid="ignore")
def _terms(a: float, b: float, beta: float, alpha: float, i0: int, t0: float,
           n: int):
    """Terms t_i0 .. t_(i0+n-1) from t_i0 = t0, and their indices i.

    The binomial factor is a cumulative product of beta (a-j)/(j+1), the
    power factor ((b+i0)/(b+i))^(alpha+1) is taken in closed form, so the
    relative error of t_i grows by at most 4 units of roundoff a term past
    what the power factor carries (see _powerlaw_psi). Past double range
    the terms come out inf, without a numpy warning; the callers raise
    DomainError on their sums.
    """
    j = np.arange(i0, i0 + n, dtype=np.float64)
    r = np.empty(n)
    r[0] = t0
    np.divide(beta * (a - j[:-1]), j[1:], out=r[1:])
    return np.cumprod(r) * ((b + i0) / (b + j)) ** (alpha + 1.0), j


def _geometric_psi(a: float, b: float, beta: float, alpha: float, cap: int):
    target = _TARGET
    total = 0.0
    comp = 0.0
    t = b ** -(alpha + 1.0)
    i = 0
    while i < _SCALAR_TERMS:
        y = t - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
        t *= beta * (a - i) / (i + 1.0) * ((b + i) / (b + i + 1.0)) ** (alpha + 1.0)
        i += 1
        # uniform ratio bound: the (b+i) factor only shrinks, the binomial
        # factor approaches 1 from whichever side sign(-a-1) dictates
        rhat = abs(beta) * max(1.0, (i - a) / (i + 1.0))
        if rhat < 1.0:
            bound = abs(t) / (1.0 - rhat) + _EPS * i * abs(total)
            if bound <= max(target, 1e-13 * abs(total)) or i >= cap:
                return total, bound, i
        elif i >= cap:
            return total, abs(t) * i, i
    # long sums go on in numpy chunks under the same stopping rule, checked
    # after every term: run[m] is added to make i+m+1 terms, run[m+1] is next
    sums = [total, -comp]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises DomainError below
        while True:
            L = min(_GEOMETRIC_CHUNK, i)
            run, j = _terms(a, b, beta, alpha, i, t, L + 1)
            used = j[1:]
            partial = np.abs(math.fsum(sums) + np.cumsum(run[:L]))
            rhat = abs(beta) * np.maximum(1.0, (used - a) / (used + 1.0))
            nxt = np.abs(run[1:])
            ok = rhat < 1.0
            bound = np.where(ok, nxt / np.where(ok, 1.0 - rhat, 1.0) + _EPS * used * partial,
                             nxt * used)
            stop = np.flatnonzero((ok & (bound <= np.maximum(target, 1e-13 * partial)))
                                  | (used >= cap))
            m = int(stop[0]) + 1 if stop.size else L
            sums.append(float(np.sum(run[:m])))
            if not math.isfinite(sums[-1]):
                raise DomainError(_OVERFLOW)
            if stop.size:
                return _fsum(sums), float(bound[m - 1]), i + m
            i += L
            t = float(run[L])


def _asymptotic_tail(a: float, b: float, beta: float, alpha: float, c: float,
                     n: int, thr: float, lg: float, sign: float,
                     psi: float | None = None):
    """sum_(i>=n) t_i at beta = +-1 as sum_k e_k Z_k, with its error bound.

    t_i = sign exp(-lg) (-beta)^i f(i), f as in _powerlaw_psi: lg is
    lgamma(-a) and sign that of 1/Gamma(-a) for the series itself.
    l_n = L_n / q^n (q = n + c) with L_n = (-1)^(n+1) [(B_(n+1)(-a-c)
    - B_(n+1)(1-c)) / (n(n+1)) - (alpha+1) (b-c)^n / n], then e_k / q^k from
    k e_k = sum_n n L_n e_(k-n). The sum stops once two consecutive
    contributions fall under thr, from k = 3 on (the k = 1 one of the
    value is zero), since odd orders nearly vanish when c is near -a/2. The bound adds
    twice those two, the Euler-Maclaurin remainders, and the roundoff of
    the prefactor exp(-lg - s log q) and of the series. Z_k = q^(s+k)
    sum_(j>=0) (+-1)^j (q+j)^-(s+k) and its remainder come from the kernel
    special_fn._em_zeta, plain at beta = -1 and alternating at beta = +1.

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
            if k == 1:
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
    tail = math.fsum(parts)
    bound = (2.0 * (abs(parts[-1]) + abs(parts[-2])) + em
             + _EPS * (2.0 * abs(lg) + 2.0 * s * lnq + 2 * k + 16.0) * mag)
    return tail, bound


def _powerlaw_psi(a: float, b: float, beta: float, alpha: float, cap: int):
    """Head of n terms plus the asymptotic tail at beta = +-1.

    Past the head, t_i = ((-beta)^i / Gamma(-a)) f(i) with
    f(i) = Gamma(i-a) / Gamma(i+1) / (b+i)^(alpha+1). In z = i + c,
    log f = -s log z + sum_n L_n z^-n (Tricomi-Erdelyi, s = a+alpha+2), and
    exp of that series is sum_k e_k z^-k, so the tail is sum_k e_k times a
    Hurwitz zeta of order s+k (even/odd split at beta = +1), from the
    kernel special_fn._em_zeta in _asymptotic_tail. c zeroes L_1;
    the head runs until z >= 6 max(|a+c|, |1-c|, |b-c|, 1), where the shifts
    in the log series are small against z, or until cap terms.
    """
    s = a + alpha + 2.0
    c = ((alpha + 1.0) * b - 0.5 * a * (a + 1.0)) / s
    x = max(abs(a + c), abs(1.0 - c), abs(b - c), 1.0)
    k0 = max(2, math.ceil(a) + 2)
    n = max(k0, math.ceil(1.0 - c), min(cap, math.ceil(max(6.0 * x, 32.0) - c)))

    # head in chunks. Relative roundoff of t_i, in units of _EPS: t_0 carries
    # 1 + (alpha+1)|ln b| (pow, and the rounding of alpha+1), the power
    # factor 2 + (alpha+1)(3 + ln(1 + i/b)), the binomial product 4 a term.
    # The first k0 terms carry the sign transients, and only their sum
    # enters (an under-count where it cancels).
    w0 = 3.0 + (alpha + 1.0) * (3.0 + abs(math.log(b)) + math.log1p(n / b))
    sums = []
    roundoff = 0.0
    t = b ** -(alpha + 1.0)  # t_i, the next term
    i = 0
    while i < n:
        L = min(_CHUNK, n - i)
        run, j = _terms(a, b, beta, alpha, i, t, L + 1)
        terms = run[:L].tolist()
        sums.append(_fsum(terms))
        if i == 0:
            roundoff = (w0 + 4.0 * k0) * abs(math.fsum(terms[:k0]))
        lo = max(k0 - i, 0)
        mags = np.abs(run[lo:L])
        roundoff += w0 * float(mags.sum()) + 4.0 * float(mags @ j[lo:L])
        t = float(run[L])
        i += L
    head = math.fsum(sums)

    # For a > -1 the terms past i = a shrink: d/dx log f <= -s / (x+m) with
    # m = max(1, b), so f(x) <= f(n) ((n+m)/(x+m))^s. The tail is then under
    # |t_n| where it alternates (beta = +1) and under |t_n| (1 + (n+m)/(s-1))
    # where it keeps one sign; one under thr is left out.
    thr = 1e-3 * max(0.1 * _TARGET, _EPS * abs(head))
    sm1 = (a + 1.0) + alpha  # s - 1 without the rounding of s near 1
    rest = abs(t) * (1.0 if beta > 0.0 else 1.0 + (n + max(1.0, b)) / sm1)
    if a > -1.0 and rest <= thr:
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

    A geometric sum stops when its tail bound drops under
    max(1e-12, 1e-13 |S|), or after cap terms with the bound it reached.
    At |beta| = 1 the head is at most cap terms long; a head cut short of
    the asymptotic range shows in the bound instead of failing.
    """
    params.validate()
    a, b, beta, alpha = params.a, params.b, params.beta, params.alpha
    method = "direct"
    if _is_nonneg_int(a):
        value, bound, n = _finite_psi(int(a), b, beta, alpha)
    elif abs(beta) < 1.0:
        value, bound, n = _geometric_psi(a, b, beta, alpha, cap)
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
    t_i as in _powerlaw_psi, and (i+2) sum_(j<i) |1/(a-j)| units for H_i.

    At a non-negative integer a = m the i <= m terms keep H_i (its
    denominators a-j stay >= 1), and past i = m the term-wise limit is
    (-1)^(m+1) m! Gamma(i-m)/Gamma(i+1)/(b+i)^(n+1): the power-law terms with
    (-1)^(m+1) m! in place of 1/Gamma(-a), whose tail is _asymptotic_tail
    with no derivative. At a = 0 that leaves -sum_{i>=1} 1/(i (b+i)^(n+1)).
    """
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(n)):
        raise DomainError(f"a, b and n must be finite, got {a}, {b}, {n}")
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b}")
    if n != int(n) or n < 0:
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
    s = a + alpha + 2.0
    c = ((alpha + 1.0) * b - 0.5 * a * (a + 1.0)) / s
    x = max(abs(a + c), abs(1.0 - c), abs(b - c), 1.0)
    N = max(math.ceil(a) + 2, math.ceil(40.0 - c), min(cap, math.ceil(6.0 * x - c)))
    w0 = 3.0 + (alpha + 1.0) * (3.0 + abs(math.log(b)) + math.log1p(N / b))
    sums = []
    roundoff = 0.0  # in units of _EPS

    def head(i: int, t: float, stop: int, harmonic: bool) -> None:
        # adds t_i H_i (t_i alone unless harmonic) for i in [i, stop) from t_i = t
        nonlocal roundoff
        h = habs = 0.0  # H_i, and sum_(j<i) |1/(a-j)| for its roundoff
        while i < stop:
            L = min(_CHUNK, stop - i)
            run, j = _terms(a, b, -1.0, alpha, i, t, L + 1)
            d = run[:L]
            err = (w0 + 1.0 + 4.0 * j[:L]) * np.abs(d)
            if harmonic:
                inc = 1.0 / (a - j[:L - 1])  # never 1/0: j < a at integer a
                H = np.cumsum(np.concatenate(([h], inc)))
                A = np.cumsum(np.concatenate(([habs], np.abs(inc))))
                err = err * np.abs(H) + (j[:L] + 2.0) * A * np.abs(d)
                d = d * H
                if i + L < stop:
                    last = 1.0 / (a - j[L - 1])
                    h, habs = H[-1] + last, A[-1] + abs(last)
            sums.append(_fsum(d.tolist()))
            roundoff += float(err.sum())
            t = float(run[L])
            i += L

    t0 = b ** -(alpha + 1.0)
    if _is_nonneg_int(a):
        m = int(a)
        head(0, t0, m + 1, True)
        t_next = (-1.0) ** (m + 1) / ((m + 1.0) * (b + m + 1.0) ** (alpha + 1.0))
        head(m + 1, t_next, N, False)
        lg, sign, psi = -math.lgamma(a + 1.0), (-1.0) ** (m + 1), None
    else:
        head(0, t0, N, True)
        lg, sign, psi = math.lgamma(-a), _sign_recip_gamma_neg(a), digamma(-a)
    total = math.fsum(sums)
    thr = 1e-3 * max(0.1 * _TARGET, _EPS * abs(total))
    tail, tail_bound = _asymptotic_tail(a, b, -1.0, alpha, c, N, thr, lg, sign, psi)
    value = total + tail
    return EvalResult(value, tail_bound + _EPS * (roundoff + abs(value)), N, "direct")


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
