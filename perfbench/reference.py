"""mpmath references for every result the benchmark scores.

Nothing here imports ramaseries: each value comes from mpmath at 34 digits
by a route chosen per input, never by the package's own code.

  series S(a, b, beta, alpha) = sum_i C(a, i) beta^i / (b + i)^(alpha + 1)
    integer a >= 0         the terminating sum, term by term
    beta = -1, a = -k      sum_r c_r zeta(alpha + 1 - r, b), where
                           C(k + i - 1, i) = sum_r c_r (b + i)^r
    beta = -1, alpha = n   ((-1)^n / n!) d^n/db^n B(b, a + 1), through the
                           Bell recursion in psi^(k)(b) - psi^(k)(a + b + 1)
    beta = +1, alpha = n   ((-1)^n / n!) d^n/db^n [2F1(-a, b; b+1; -1) / b]
    |beta| < 1, alpha = n  pFq([-a, b x (n+1)], [(b+1) x (n+1)], -beta) / b^(n+1)
                           (2F1 at alpha = 0, which mpmath continues near |z| = 1)
    other alpha            quad of t^(b-1) (-ln t)^alpha (1 + beta t)^a / Gamma(alpha+1)
  a-derivative             d/da of the Beta form, or quad with ln(1 - t) added
  scalars                  mp.zeta, mp.digamma, mp.gamma, direct sums

Quadrature runs in t = e^(-x) on [0, 1/2] and in u = 1 - t on [0, 1/2], so
the endpoint factor (1 - t)^a is u^a to full precision; on [0, inf) in x,
mp.quad is off by 2e-3 at (a, b, beta, alpha) = (-0.9, 2.5, -1, 0).
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 34
DIGITS = 34


class ReferenceError(RuntimeError):
    """A reference route failed its own accuracy check."""


def _is_int(x: float) -> bool:
    return float(x) == math.floor(x)


def _quad(f, pts):
    val, err = mp.quad(f, pts, error=True)
    if not err <= mp.mpf(10) ** -24 * max(1, abs(val)):
        raise ReferenceError("quadrature error estimate %s at %s" % (mp.nstr(err, 3), mp.nstr(val, 10)))
    return val


def series_quad(a, b, beta, alpha, with_log=False):
    """(1/Gamma(alpha+1)) int_0^1 t^(b-1) (-ln t)^alpha (1+beta t)^a [ln(1+beta t)] dt."""
    a, b, beta, alpha = (mp.mpf(x) for x in (a, b, beta, alpha))
    one_plus = 1 + beta  # exact: beta is a double

    def body(t, u, base):
        out = (-mp.log1p(-u) if u is not None else -mp.log(t)) ** alpha * base ** a
        return out * mp.log(base) if with_log else out

    # t = w^(1/b) absorbs t^(b-1) dt = dw / b, so a small b leaves no singularity
    def left(w):
        t = w ** (1 / b)
        return body(t, None, 1 + beta * t) / b

    if one_plus == 0:
        # (1 - t)^a (-ln t)^alpha ~ u^e at u = 0; u = w^p with p = 1/(e+1) smooths it
        p = 1 / (a + alpha + 1)

        def right(w):
            u = w ** p
            return (1 - u) ** (b - 1) * body(None, u, u) * p * w ** (p - 1)

        rpts = [0, mp.mpf(0.5) ** (1 / p)]
    else:
        def right(u):
            return (1 - u) ** (b - 1) * body(None, u, one_plus - beta * u)

        # near-unit beta < 0: the base bends on the scale 1 + beta near u = 0
        rpts = [0, one_plus, 0.5] if beta < 0 and one_plus < 0.25 else [0, 0.5]
    total = _quad(left, [0, mp.mpf(0.5) ** b]) + _quad(right, rpts)
    return total / mp.gamma(alpha + 1)


def _bell_beta_derivs(a, b, n):
    """[d^k/db^k B(b, a+1) for k = 0..n] through psi^(k) differences."""
    g = [mp.psi(k, b) - mp.psi(k, a + b + 1) for k in range(n)]
    y = [mp.mpf(1)]
    for m in range(n):
        y.append(mp.fsum(mp.binomial(m, k) * y[m - k] * g[k] for k in range(m + 1)))
    bb = mp.beta(b, a + 1)
    return [bb * v for v in y]


def series_value(a: float, b: float, beta: float, alpha: float):
    """Reference for sum_i C(a, i) beta^i / (b + i)^(alpha + 1)."""
    A, B, Z, S = (mp.mpf(x) for x in (a, b, beta, alpha))
    if a >= 0 and _is_int(a):
        m = int(a)
        return mp.fsum(mp.binomial(m, i) * Z ** i / (B + i) ** (S + 1) for i in range(m + 1))
    if beta == -1.0 and a < 0 and _is_int(a):
        k = int(-a)
        poly = [mp.mpf(1)]  # coefficients of prod_{j=1}^{k-1} (x + j - b), low first
        for j in range(1, k):
            root = j - B
            nxt = [mp.mpf(0)] * (len(poly) + 1)
            for idx, c in enumerate(poly):
                nxt[idx] += c * root
                nxt[idx + 1] += c
            poly = nxt
        return mp.fsum(c * mp.zeta(S + 1 - r, B) for r, c in enumerate(poly)) / mp.factorial(k - 1)
    if not _is_int(alpha):
        return series_quad(a, b, beta, alpha)
    n = int(alpha)
    if beta == -1.0:
        return (-1) ** n * _bell_beta_derivs(A, B, n)[n] / mp.factorial(n)
    if beta == 1.0:
        if n == 0:
            return mp.hyp2f1(-A, B, B + 1, -1) / B
        d = mp.diff(lambda x: mp.hyp2f1(-A, x, x + 1, -1) / x, B, n)
        return (-1) ** n * d / mp.factorial(n)
    if n == 0:
        return mp.hyp2f1(-A, B, B + 1, -Z) / B
    if abs(beta) <= 0.9:
        return mp.hyper([-A] + [B] * (n + 1), [B + 1] * (n + 1), -Z) / B ** (n + 1)
    return series_quad(a, b, beta, alpha)


def deriv_value(a: float, b: float, n: int):
    """Reference for d/da of sum_i (-1)^i C(a, i) / (b + i)^(n + 1)."""
    A, B = mp.mpf(a), mp.mpf(b)
    d = mp.diff(lambda x, y: mp.beta(y, x + 1), (A, B), (1, n))
    return (-1) ** n * d / mp.factorial(n)


def lerch_value(z: float, s: float, q: float):
    """sum_j z^j (q + j)^(-s) for |z| <= 0.9, summed until the tail is negligible."""
    Z, S, Q = mp.mpf(z), mp.mpf(s), mp.mpf(q)
    total = mp.mpf(0)
    p = mp.mpf(1)
    j = 0
    eps = mp.mpf(10) ** -(DIGITS + 2)
    while True:
        t = p * (Q + j) ** (-S)
        total += t
        j += 1
        p *= Z
        # terms decrease once j > q; |z|^j / (1 - |z|) bounds the rest
        if j > Q and abs(p) * (Q + j) ** (-S) / (1 - abs(Z)) <= eps * abs(total):
            return total


def s_prime_value(r: int):
    return mp.nsum(lambda k: (-1) ** int(k) / (2 * k + 1) ** r, [0, mp.inf])


def scalar_value(fn: str, args):
    if fn == "hurwitz_zeta":
        return mp.zeta(mp.mpf(args[0]), mp.mpf(args[1]))
    if fn == "lerch_phi":
        return lerch_value(*args)
    if fn == "digamma":
        return mp.digamma(mp.mpf(args[0]))
    if fn == "gamma":
        return mp.gamma(mp.mpf(args[0]))
    if fn == "s_prime":
        return s_prime_value(int(args[0]))
    if fn == "beta_f":
        p, a, b = (mp.mpf(x) for x in args)
        return mp.gamma(p + b) * mp.gamma(a + 1) / mp.gamma(p + a + b + 1)
    raise ValueError("no reference for %r" % fn)


SERIES_FNS = ("eval_psi_general", "eval_phi", "eval_phi_tilde")


def series_args(fn: str, args):
    """(a, b, beta, alpha) of a series call in the benchmark's op encoding."""
    if fn == "eval_psi_general":
        return tuple(args)
    a, b, alpha = args
    return a, b, (-1.0 if fn == "eval_phi" else 1.0), alpha


def value(fn: str, args):
    """Reference value of one op, as an mpf."""
    if fn in SERIES_FNS:
        return series_value(*series_args(fn, args))
    if fn == "eval_phi_da_direct":
        return deriv_value(args[0], args[1], int(args[2]))
    return scalar_value(fn, args)


def as_text(x) -> str:
    return mp.nstr(x, DIGITS, min_fixed=1, max_fixed=0)


def _agree(x, y, what, rel=1e-24):
    if not abs(x - y) <= mp.mpf(rel) * max(1, abs(y)):
        raise ReferenceError("%s: %s vs %s" % (what, mp.nstr(x, 25), mp.nstr(y, 25)))


def self_check() -> None:
    """Cross-check every route against an independent one; raise on disagreement."""
    _agree(series_value(50.5, 1.0, -1.0, 0.0), 1 / mp.mpf(51.5), "Beta at (50.5, 1, -1, 0)")
    # the point where quad over [0, inf) in x goes wrong
    _agree(series_quad(-0.9, 2.5, -1.0, 0.0), series_value(-0.9, 2.5, -1.0, 0.0),
           "quad vs Beta at (-0.9, 2.5, -1, 0)")
    for a, b, n in ((3.7, 1.3, 1), (59.3, 1.3, 2), (-0.6, 0.4, 3)):
        _agree(series_value(a, b, -1.0, n), series_quad(a, b, -1.0, n), "Bell vs quad %r" % ((a, b, n),))
    for a, b, n in ((3.7, 1.3, 1), (59.3, 0.7, 2), (-0.3, 2.0, 0)):
        hyp = mp.hyper([-mp.mpf(a)] + [mp.mpf(b)] * (n + 1), [mp.mpf(b) + 1] * (n + 1), -1) / mp.mpf(b) ** (n + 1)
        _agree(series_value(a, b, 1.0, n), hyp, "2F1 diff vs hyper %r" % ((a, b, n),))
        _agree(hyp, series_quad(a, b, 1.0, n), "hyper vs quad %r" % ((a, b, n),))
    for a, b, beta, n in ((-0.37, 1.3, 0.9, 1), (50.5, 1.3, -0.9, 2), (2.5, 0.2, -0.999, 0),
                          (-0.7, 1.3, 0.999, 0), (-0.7, 5.0, -0.95, 0)):
        _agree(series_value(a, b, beta, n), series_quad(a, b, beta, n), "hyper vs quad %r" % ((a, b, beta, n),))
    for k, b, alpha in ((1, 1.3, 0.7), (2, 0.4, 2.5), (4, 3.0, 4.2)):
        _agree(series_value(-float(k), b, -1.0, alpha), series_quad(-float(k), b, -1.0, alpha),
               "zeta form vs quad %r" % ((k, b, alpha),))
    for m, b, beta, alpha in ((7, 1.3, -0.7, 1.5), (12, 0.3, 1.0, 0.0)):
        _agree(series_value(float(m), b, beta, alpha), series_quad(float(m), b, beta, alpha),
               "finite sum vs quad %r" % ((m, b, beta, alpha),))
    for a, b, n in ((-0.9, 1.3, 0), (-0.5, 1.3, 1), (1.7, 0.3, 2)):
        _agree(deriv_value(a, b, n), series_quad(a, b, -1.0, n, with_log=True), "d/da %r" % ((a, b, n),))
    _agree(lerch_value(-0.9, 0.7, 0.3), mp.lerchphi(-0.9, 0.7, 0.3), "lerch")
    _agree(s_prime_value(1), mp.pi / 4, "s_prime(1)")
    _agree(s_prime_value(2), mp.catalan, "s_prime(2)")
