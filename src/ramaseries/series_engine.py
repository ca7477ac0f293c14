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
  * beta = -1, negative integer a: a finite Hurwitz zeta combination.
  * |beta| = 1 otherwise: power-law tails (exponent s = a + alpha + 2).
    A head of N terms (a numpy cumulative product of the term ratio) plus
    an asymptotic tail: the Tricomi-Erdelyi expansion of the gamma ratio
    in C(a,i) turns sum_(i>=N) t_i into sum_k e_k zeta(s+k, N+c), with the
    even/odd Hurwitz split at beta = +1. The bound adds twice the last two
    orders kept, the Euler-Maclaurin remainders, and the roundoff of head
    and tail.
  * the a-derivative: terms built in numpy chunks from a log-gamma fresh
    start per chunk, partial sums recorded at doubling checkpoints, and a
    least-squares fit of the tail family N^-(s0+k) * poly(log N) supplies
    an accelerated value when the rigorous bound cannot reach the target
    on its own. The reported bound is the rigorous unaccelerated one plus
    the distance between the reported value and the raw partial sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ramaseries.special_fn import (_BERNOULLI_EVEN, DivergenceError,
                                   DomainError, digamma, hurwitz_zeta)

_EPS = 1.1e-16
_FIRST_CHECKPOINT = 2500
_CHUNK = 32768
_SCALAR_TERMS = 256  # geometric sums go to numpy chunks past this many terms
_GEOMETRIC_CHUNK = 4096  # small: a geometric sum stops mid-chunk, and 32768 raised peak RSS
_TAIL_ORDERS = 30  # highest order k of the asymptotic tail
_DEFAULT_TARGET = 1e-12
_DEFAULT_CAP = 10**7

_BERNOULLI_OVER_FACT = [B / math.factorial(2 * m)
                        for m, B in enumerate(_BERNOULLI_EVEN[:9], 1)]
# _BERN_ROWS[n-1][m]: coefficient of x^m in the Bernoulli polynomial
# B_(n+1)(x) = sum_m C(n+1, m) B_(n+1-m) x^m
_BERNOULLI = [1.0, -0.5] + [_BERNOULLI_EVEN[j // 2 - 1] if j % 2 == 0 else 0.0
                            for j in range(2, _TAIL_ORDERS + 2)]
_BERN_ROWS = [[math.comb(n + 1, m) * _BERNOULLI[n + 1 - m] for m in range(n + 2)]
              for n in range(1, _TAIL_ORDERS + 1)]


@dataclass(frozen=True)
class SeriesParams:
    """Parameters of the weighted series sum_i C(a,i) beta^i / (b+i)^(alpha+1)."""

    a: float
    b: float
    beta: float
    alpha: float

    def validate(self) -> None:
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


def _family_fit(checkpoints, s0, log_pow=0):
    """Extrapolate the limit from partial sums S_N at doubling N.

    Tail model: S - S_N ~ sum_{k=0..K} N^-(s0+k) * P_k(log N) with
    deg P_k = log_pow. Least-squares over all checkpoints, columns scaled
    to unit norm; the constant column is the limit. Returns (est, spread)
    where spread is the K=1 vs K=2 fit disagreement, a self-consistency
    proxy rather than a bound.
    """
    Ns = np.array([n for (n, _) in checkpoints], dtype=np.float64)
    Ss = np.array([s for (_, s) in checkpoints], dtype=np.float64)
    per = log_pow + 1
    lns = np.log(Ns)

    def fit(K):
        cols = [np.ones_like(Ns)]
        for k in range(K + 1):
            p = Ns ** (-(s0 + k))
            for j in range(log_pow, 0, -1):
                cols.append(p * lns**j)
            cols.append(p)
        A = np.stack(cols, axis=1)
        scale = np.linalg.norm(A, axis=0)
        coef = np.linalg.lstsq(A / scale, Ss, rcond=None)[0] / scale
        return coef[0]

    max_K = (len(Ns) - 2) // per - 1  # keep at least one spare data point
    if max_K < 1:
        return Ss[-1], abs(Ss[-1] - Ss[0])
    e1 = fit(1)
    if max_K < 2:
        return e1, abs(e1 - Ss[-1]) * 0.1
    e2 = fit(2)
    return e1, abs(e1 - e2)


def _checkpoint_loop(chunk_terms, tail_abs, i_start, sigma, target, cap,
                     log_mod, b, head):
    """Chunked summation loop for the a-derivative's one-signed tail.

    chunk_terms(i0, L) -> ndarray of terms t_i, i in [i0, i0+L).
    tail_abs(N) -> |t_N|, used by the rigorous tail bounds.
    Returns (value, bound, terms_summed).
    """
    chunk_sums = [head]
    abs_roundoff = 0.0
    checkpoints = []
    next_cp = _FIRST_CHECKPOINT
    while next_cp <= i_start:
        next_cp *= 2
    i0 = i_start
    est_prev = None
    plateau = 0
    s0 = sigma - 1.0
    while True:
        cp_end = next_cp
        while i0 < cp_end:
            L = min(_CHUNK, cp_end - i0)
            t = chunk_terms(i0, L)
            chunk_sums.append(float(np.sum(t)))
            # worst-case accumulated float64 noise for this chunk
            abs_roundoff += _EPS * float(np.sum(np.abs(t) * (np.arange(L) + 8.0)))
            i0 += L
        N = i0
        S = math.fsum(chunk_sums)
        tN = tail_abs(N)
        B = 1.5 * tN * (N + b) / (sigma - 1.0) + abs_roundoff
        if log_mod:
            B *= 1.0 + 1.0 / ((sigma - 1.0) * math.log(N + 2.0))
        checkpoints.append((N, S))
        tgt = max(target, 1e-13 * abs(S))
        if len(checkpoints) >= 3:
            est, spread = _family_fit(checkpoints, s0, 1 if log_mod else 0)
        else:
            est, spread = S, abs(S)
        if B <= tgt:
            value = S
            break
        if (est_prev is not None
                and spread <= max(5e-14 * abs(est), 0.1 * tgt)
                and abs(est - est_prev) <= max(5e-14 * abs(est), 0.1 * tgt)):
            plateau += 1
            if plateau >= 2 and len(checkpoints) >= 5:
                value = est
                break
        else:
            plateau = 0
        est_prev = est
        if 2 * N > cap:
            value = est
            break
        next_cp = 2 * N
    bound = B + abs(value - S)
    return value, bound, N


def _finite_psi(a: int, b: float, beta: float, alpha: float):
    # terminating series: exactly a+1 terms
    terms = []
    t = b ** -(alpha + 1.0)
    for i in range(a + 1):
        terms.append(t)
        t *= beta * (a - i) / (i + 1.0) * ((b + i) / (b + i + 1.0)) ** (alpha + 1.0)
    value = math.fsum(terms)
    bound = _EPS * (a + 2) * math.fsum(abs(x) for x in terms)
    return value, bound, a + 1


def _terms(a: float, b: float, beta: float, alpha: float, i0: int, t0: float,
           n: int):
    """Terms t_i0 .. t_(i0+n-1) from t_i0 = t0, and their indices i.

    The binomial factor is a cumulative product of beta (a-j)/(j+1), the
    power factor ((b+i0)/(b+i))^(alpha+1) is taken in closed form, so the
    relative error of t_i grows by at most 4 units of roundoff a term past
    what the power factor carries (see _powerlaw_psi).
    """
    j = np.arange(i0, i0 + n, dtype=np.float64)
    r = np.empty(n)
    r[0] = t0
    np.divide(beta * (a - j[:-1]), j[1:], out=r[1:])
    return np.cumprod(r) * ((b + i0) / (b + j)) ** (alpha + 1.0), j


def _geometric_psi(a: float, b: float, beta: float, alpha: float, target: float,
                   cap: int):
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
        if stop.size:
            return math.fsum(sums), float(bound[m - 1]), i + m
        i += L
        t = float(run[L])


def _zeta_sums(s: float, sm1: float, q: float, alternating: bool):
    """The function k -> (Z_k, remainder bound, magnitude).

    Z_k = q^(s+k) sum_(j>=0) (+-1)^j (q+j)^-(s+k), by Euler-Maclaurin at q
    with eight Bernoulli corrections: h^sig zeta(sig, p) = h (p/h)^(1-sig)
    / (sig-1) + (p/h)^-sig (1/2 + sum_m B_2m/(2m)! (sig)_(2m-1) p^(1-2m)).
    Every even derivative of x^-sig is positive, so the remainder lies
    between zero and the first omitted correction. The alternating sum is
    2^-sig (zeta(sig, q/2) - zeta(sig, (q+1)/2)); the integral terms of the
    two differ by an expm1, free of cancellation near sig = 1. The
    magnitude sums the absolute values of the pieces, for the roundoff.
    """
    h = 0.5 * q if alternating else q
    cf1 = [B * h ** (1 - 2 * m) for m, B in enumerate(_BERNOULLI_OVER_FACT, 1)]
    cf2 = [B * (h + 0.5) ** (1 - 2 * m) for m, B in enumerate(_BERNOULLI_OVER_FACT, 1)] \
        if alternating else cf1
    shrink = h / (h + 0.5)  # (p2/h)^-sig for p2 = h + 1/2
    lq = math.log1p(1.0 / q)

    def zeta_k(k: int):
        sig = s + k
        c1 = c2 = 0.5
        poch = sig  # (sig)_(2m-1)
        for m in range(8):
            c1 += cf1[m] * poch
            c2 += cf2[m] * poch
            poch *= (sig + 2 * m + 1) * (sig + 2 * m + 2)
        if not alternating:
            z = q / (sm1 + k) + c1
            return z, abs(cf1[8] * poch), abs(z)
        w2 = shrink ** sig
        dint = h * -math.expm1(-(sm1 + k) * lq) / (sm1 + k)
        return (c1 - w2 * c2 + dint, abs(cf1[8] * poch) + w2 * abs(cf2[8] * poch),
                abs(c1) + abs(w2 * c2) + abs(dint))

    return zeta_k


def _asymptotic_tail(a: float, b: float, beta: float, alpha: float, c: float,
                     n: int, thr: float):
    """sum_(i>=n) t_i at beta = +-1 as sum_k e_k Z_k, with its error bound.

    l_n = L_n / q^n (q = n + c) with L_n = (-1)^(n+1) [(B_(n+1)(-a-c)
    - B_(n+1)(1-c)) / (n(n+1)) - (alpha+1) (b-c)^n / n], then e_k / q^k from
    k e_k = sum_n n L_n e_(k-n). The sum stops once two consecutive
    contributions fall under thr, from k = 3 on (the k = 1 one is zero),
    since odd orders nearly vanish when c is near -a/2. The bound adds
    twice those two, the Euler-Maclaurin remainders, and the roundoff of
    the prefactor exp(-lgamma(-a) - s log q) and of the series.
    """
    s = a + alpha + 2.0
    q = n + c
    u = 1.0 / q
    x1, x2, y = -(a + c) * u, (1.0 - c) * u, (b - c) * u
    px1, px2 = x1, x2
    diffs = [0.0, x1 - x2]  # (x1^m - x2^m), m = 0, 1, ...
    up = [1.0, u]  # u^m
    nl = [0.0]  # n l_n
    e = [1.0]
    lg = math.lgamma(-a)
    rho = _sign_recip_gamma_neg(a) * math.exp(-lg - s * math.log(q))
    if beta > 0.0 and n % 2:
        rho = -rho  # (-beta)^i alternates from (-1)^n
    parts = []
    em = mag = 0.0
    zeta_k = _zeta_sums(s, (a + 1.0) + alpha, q, beta > 0.0)
    for k in range(_TAIL_ORDERS + 1):
        if k:
            px1 *= x1
            px2 *= x2
            diffs.append(px1 - px2)
            up.append(up[-1] * u)
            if k == 1:
                nl.append(0.0)  # L_1 = 0 by the choice of c
            else:
                # B_(k+1)(x1) - B_(k+1)(x2), over q^k
                bdiff = q * sum(map(operator.mul, _BERN_ROWS[k - 1],
                                    map(operator.mul, diffs, reversed(up))))
                ell = bdiff / (k * (k + 1.0)) - (alpha + 1.0) * y ** k / k
                nl.append(k * ell if k % 2 else -k * ell)
            e.append(sum(map(operator.mul, nl[1:], reversed(e))) / k)
        z, rem, zabs = zeta_k(k)
        ce = rho * e[k]
        parts.append(ce * z)
        em += abs(ce) * rem
        mag += abs(ce) * zabs
        if (k >= 3 and abs(parts[-1]) <= thr and abs(parts[-2]) <= thr) or k == _TAIL_ORDERS:
            break
    tail = math.fsum(parts)
    bound = (2.0 * (abs(parts[-1]) + abs(parts[-2])) + em
             + _EPS * (2.0 * abs(lg) + 2.0 * s * math.log(q) + 2 * k + 16.0) * mag)
    return tail, bound


def _powerlaw_psi(a: float, b: float, beta: float, alpha: float, target: float,
                  cap: int):
    """Head of n terms plus the asymptotic tail at beta = +-1.

    Past the head, t_i = ((-beta)^i / Gamma(-a)) f(i) with
    f(i) = Gamma(i-a) / Gamma(i+1) / (b+i)^(alpha+1). In z = i + c,
    log f = -s log z + sum_n L_n z^-n (Tricomi-Erdelyi, s = a+alpha+2), and
    exp of that series is sum_k e_k z^-k, so the tail is sum_k e_k times a
    Hurwitz zeta of order s+k (even/odd split at beta = +1). c zeroes L_1;
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
        if i == 0:
            roundoff = (w0 + 4.0 * k0) * abs(math.fsum(terms[:k0]))
        lo = max(k0 - i, 0)
        mags = np.abs(run[lo:L])
        roundoff += w0 * float(mags.sum()) + 4.0 * float(mags @ j[lo:L])
        sums.append(math.fsum(terms))
        t = float(run[L])
        i += L
    head = math.fsum(sums)

    # For a > -1 the terms past i = a shrink: d/dx log f <= -s / (x+m) with
    # m = max(1, b), so f(x) <= f(n) ((n+m)/(x+m))^s. The tail is then under
    # |t_n| where it alternates (beta = +1) and under |t_n| (1 + (n+m)/(s-1))
    # where it keeps one sign; one under thr is left out.
    thr = 1e-3 * max(0.1 * target, _EPS * abs(head))
    sm1 = (a + 1.0) + alpha  # s - 1 without the rounding of s near 1
    rest = abs(t) * (1.0 if beta > 0.0 else 1.0 + (n + max(1.0, b)) / sm1)
    if a > -1.0 and rest <= thr:
        tail, tail_bound = 0.0, rest
    else:
        tail, tail_bound = _asymptotic_tail(a, b, beta, alpha, c, n, thr)
    value = head + tail
    return value, tail_bound + _EPS * (roundoff + abs(value)), n


def eval_psi_general(params: SeriesParams, *, target: float = _DEFAULT_TARGET,
                     cap: int = _DEFAULT_CAP) -> EvalResult:
    """Sum the weighted series for params, with a rigorous error bound.

    A geometric sum stops when its tail bound drops under
    max(target, 1e-13 |S|), or after cap terms with the bound it reached.
    At |beta| = 1 the head is at most cap terms long; a head cut short of
    the asymptotic range shows in the bound instead of failing.
    """
    params.validate()
    a, b, beta, alpha = params.a, params.b, params.beta, params.alpha
    if _is_nonneg_int(a):
        value, bound, n = _finite_psi(int(a), b, beta, alpha)
        return EvalResult(value, bound, n, "direct")
    if abs(beta) < 1.0:
        value, bound, n = _geometric_psi(a, b, beta, alpha, target, cap)
        return EvalResult(value, bound, n, "direct")
    if a + alpha <= -1.0:
        raise DivergenceError(
            f"series diverges: |beta| = 1 and a + alpha = {a + alpha} <= -1")
    if beta == -1.0 and a < 0.0 and a == math.floor(a):
        # negative integer upper parameter with alternating weight: every
        # term is positive, the binomial weight is a degree k-1 polynomial
        # in (b+i), and the sum is a finite Hurwitz zeta combination
        k = int(-a)
        poly = [1.0]
        for j in range(1, k):
            root = float(j) - b
            nxt = [0.0] * (len(poly) + 1)
            for idx, c in enumerate(poly):
                nxt[idx] += c
                nxt[idx + 1] += c * root
            poly = nxt
        fact = float(math.factorial(k - 1))
        pieces = [c * hurwitz_zeta(alpha + 2.0 - k + r, b) / fact
                  for r, c in enumerate(poly)]
        value = math.fsum(pieces)
        bound = 4e-15 * math.fsum(abs(x) for x in pieces) + 1e-300
        return EvalResult(value, bound, k, "closed-form")
    value, bound, n = _powerlaw_psi(a, b, beta, alpha, target, cap)
    return EvalResult(value, bound, n, "direct")


def eval_phi(a: float, b: float, alpha: float, *, target: float = _DEFAULT_TARGET,
             cap: int = _DEFAULT_CAP) -> EvalResult:
    """Alternating-weight series sum_i (-1)^i C(a,i) / (b+i)^(alpha+1)."""
    return eval_psi_general(SeriesParams(a, b, -1.0, alpha), target=target, cap=cap)


def eval_phi_tilde(a: float, b: float, alpha: float, *,
                   target: float = _DEFAULT_TARGET,
                   cap: int = _DEFAULT_CAP) -> EvalResult:
    """Plus-weight series sum_i C(a,i) / (b+i)^(alpha+1).

    Every term carries the plain binomial sign pattern of expanding
    (1 + e^-x)^a; there is no trailing alternation.
    """
    return eval_psi_general(SeriesParams(a, b, 1.0, alpha), target=target, cap=cap)


def eval_phi_da_direct(a: float, b: float, n: int, *,
                       target: float = _DEFAULT_TARGET,
                       cap: int = _DEFAULT_CAP) -> EvalResult:
    """Term-wise a-derivative of the alternating series, summed directly.

    Returns sum_{i>=1} (-1)^i C(a,i) H_i(a) / (b+i)^(n+1) with
    H_i(a) = sum_{j<i} 1/(a-j). At a = 0 only the i-th term's j = 0
    factor survives the C(a,i) zero, leaving -sum_{i>=1} 1/(i (b+i)^(n+1)).
    At positive integer a the same term-wise limit splits into the i <= a
    finite part plus an analytic continuation tail, so no harmonic factor
    is ever evaluated at a zero denominator.
    """
    if not b > 0.0:
        raise DomainError(f"b must be positive, got {b}")
    if n != int(n) or n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n}")
    n = int(n)
    if a + n <= -1.0:
        raise DivergenceError(
            f"derivative series diverges: a + n = {a + n} <= -1")

    if a == 0.0:
        # limit form: - sum_{i>=1} 1/(i (b+i)^(n+1))
        def chunk(i0: int, L: int) -> np.ndarray:
            idx = np.arange(i0, i0 + L, dtype=np.float64)
            return -1.0 / (idx * (b + idx) ** (n + 1.0))

        head = -math.fsum(1.0 / (i * (b + i) ** (n + 1.0)) for i in range(1, 8))
        value, bound, N = _checkpoint_loop(
            chunk, lambda N: 1.0 / (N * (b + N) ** (n + 1.0)), 8, n + 2.0,
            target, cap, log_mod=False, b=b, head=head)
        return EvalResult(value, bound, N, "direct")

    if _is_nonneg_int(a):
        ia = int(a)
        # finite part: harmonic denominators a-j stay >= 1 for i <= a
        finite = []
        t = 1.0
        Hi = 0.0
        for i in range(1, ia + 1):
            t *= (a - (i - 1)) / i
            Hi += 1.0 / (a - (i - 1))
            finite.append((-1.0) ** i * t * Hi / (b + i) ** (n + 1.0))
        head = math.fsum(finite)
        # term-wise limit past i = a: (-1)^(a+1) a! (i-a-1)!/i! / (b+i)^(n+1)
        sgn = (-1.0) ** (ia + 1)
        lg_fact_a = math.lgamma(a + 1.0)

        def tail_term(i0: float) -> float:
            return sgn * math.exp(lg_fact_a + math.lgamma(i0 - a)
                                  - math.lgamma(i0 + 1.0)
                                  - (n + 1.0) * math.log(b + i0))

        def chunk(i0: int, L: int) -> np.ndarray:
            idx = np.arange(i0, i0 + L - 1, dtype=np.float64)
            r = (idx - a) / (idx + 1.0) * ((b + idx) / (b + idx + 1.0)) ** (n + 1.0)
            t_arr = np.empty(L)
            t_arr[0] = tail_term(float(i0))
            if L > 1:
                t_arr[1:] = t_arr[0] * np.cumprod(r)
            return t_arr

        value, bound, N = _checkpoint_loop(
            chunk, lambda N: abs(tail_term(float(N))), ia + 1, a + n + 2.0,
            target, cap, log_mod=False, b=b, head=head)
        return EvalResult(value, bound, N, "direct")

    # generic a: H_i(a) = psi(a+1) - psi(i-a) + pi cot(pi a) for i > a
    lg_neg_a = math.lgamma(-a)
    sgn = _sign_recip_gamma_neg(a)
    psi_a1 = digamma(a + 1.0)
    picot = math.pi / math.tan(math.pi * a)

    def H_at(i0: float) -> float:
        return psi_a1 - digamma(i0 - a) + picot

    def base_at(i0: float) -> float:
        mag = math.exp(math.lgamma(i0 - a) - math.lgamma(i0 + 1.0) - lg_neg_a
                       - (n + 1.0) * math.log(b + i0))
        return mag * sgn

    def chunk(i0: int, L: int) -> np.ndarray:
        idx = np.arange(i0, i0 + L - 1, dtype=np.float64)
        r = (idx - a) / (idx + 1.0) * ((b + idx) / (b + idx + 1.0)) ** (n + 1.0)
        base = np.empty(L)
        base[0] = base_at(float(i0))
        if L > 1:
            base[1:] = base[0] * np.cumprod(r)
        H = H_at(float(i0)) + np.concatenate(([0.0], np.cumsum(1.0 / (a - idx))))
        return base * H

    head_terms = []
    t = 1.0
    Hi = 0.0
    K = 8
    for i in range(1, K):
        t *= (a - (i - 1)) / i
        Hi += 1.0 / (a - (i - 1))
        head_terms.append((-1.0) ** i * t * Hi / (b + i) ** (n + 1.0))
    value, bound, N = _checkpoint_loop(
        chunk, lambda N: abs(base_at(float(N)) * H_at(float(N))), K,
        a + n + 2.0, target, cap, log_mod=True, b=b,
        head=math.fsum(head_terms))
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
