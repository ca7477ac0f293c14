"""Coefficient triangle that trades a polynomial weight (b+i)^m inside a
binomial series for a linear combination of parameter shifts.

For real p, b the rows A[m][1..m] built here satisfy, for |t| < 1,

    sum_i (-1)^i C(p,i) (b+i)^m t^i
        = sum_{k=1}^{m+1} A[m+1][k] t^(k-1) (1-t)^(p-k+1)

so a power weight on the left becomes a fixed, finite ladder of shifted
unweighted series on the right.  The shift identities in ``identities``
consume these rows directly.

Both evaluators work in compensated (hi, lo) float pairs.  The alternating
cells at larger m cancel by factors up to ~1e6, which plain double terms
cannot survive at the 1e-10 residuals the cross-check demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .special_fn import DomainError

_MAX_DEPTH = 64
_TAIL_TARGET = 1e-13
_ITER_GUARD = 200_000

# ---------------------------------------------------------------------------
# double-double primitives (Dekker / Knuth), enough for *, /, + of pairs


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float) -> tuple[float, float]:
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    s, e = _two_sum(xh, yh)
    return _two_sum(s, e + xl + yl)


def _dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    p, e = _two_prod(xh, yh)
    return _two_sum(p, e + xh * yl + xl * yh)


def _dd_div(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    q1 = xh / yh
    ph, pl = _two_prod(q1, yh)
    rh, rl = _dd_add(xh, xl, -ph, -(pl + q1 * yl))
    return _two_sum(q1, rh / yh + rl / yh)


def _dd_powi(xh: float, xl: float, n: int) -> tuple[float, float]:
    rh, rl = 1.0, 0.0
    for _ in range(n):
        rh, rl = _dd_mul(rh, rl, xh, xl)
    return rh, rl


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffTriangle:
    """Dense triangle of reduction coefficients for fixed (p, b).

    rows[m-1][k-1] holds A[m][k], 1 <= k <= m <= len(rows), correctly rounded
    from the exact dyadic recurrence.  rows_lo carries the rounding
    remainders so evaluators can reconstruct entries to double-double
    accuracy.
    """

    p: float
    b: float
    rows: tuple[tuple[float, ...], ...]
    rows_lo: tuple[tuple[float, ...], ...] = field(repr=False)

    def entry(self, m: int, k: int) -> float:
        if not (1 <= k <= m <= len(self.rows)):
            raise DomainError(f"entry ({m},{k}) outside triangle of depth {len(self.rows)}")
        return self.rows[m - 1][k - 1]


def build(p: float, b: float, M: int) -> CoeffTriangle:
    """Build the triangle down to row M (M <= 64).

    Row update: first entry scales by b, interior entries mix the two
    entries above, the new diagonal extends the falling factorial of p.
    Floats are dyadic rationals, so the recurrence runs exactly in Fraction
    and each stored entry is the correctly rounded value.
    """
    M = int(M)
    if M < 1:
        raise DomainError("triangle depth must be >= 1")
    if M > _MAX_DEPTH:
        raise DomainError(f"triangle depth {M} exceeds {_MAX_DEPTH}")
    p = float(p)
    b = float(b)
    P, B = Fraction(p), Fraction(b)
    exact = [(Fraction(1),)]
    for m in range(1, M):
        prev = exact[-1]
        nxt = [B * prev[0]]
        for k in range(2, m + 1):
            nxt.append(-(P - k + 2) * prev[k - 2] + (B + k - 1) * prev[k - 1])
        nxt.append(-(P - m + 1) * prev[m - 1])
        exact.append(tuple(nxt))
    rows = []
    rows_lo = []
    for row in exact:
        hi = tuple(float(v) for v in row)
        if not all(math.isfinite(h) for h in hi):
            raise DomainError("non-finite coefficient; depth too large for these inputs")
        rows.append(hi)
        rows_lo.append(tuple(float(v - Fraction(h)) for v, h in zip(row, hi)))
    return CoeffTriangle(p=p, b=b, rows=tuple(rows), rows_lo=tuple(rows_lo))


def lhs_poly(tri: CoeffTriangle, m: int, t: float) -> float:
    """Evaluate the shifted-power ladder sum_{k=1}^{m+1} A t^(k-1) (1-t)^(p-k+1).

    m = 0 degenerates to (1-t)^p.  For t < 1 the single non-integer power is
    hoisted: the ladder equals (1-t)^p times a polynomial in t/(1-t), and the
    polynomial runs through a compensated Horner pass.  Zero coefficients are
    skipped at t = 1, so rows whose tail columns vanish (non-negative integer
    p) stay finite there; a nonzero coefficient against a negative power of
    (1-t) at t = 1 is a genuine pole and raises.
    """
    if not 0 <= m < len(tri.rows):
        raise DomainError(f"row m={m} not available in triangle of depth {len(tri.rows)}")
    t = float(t)
    p = tri.p
    if m == 0:
        return (1.0 - t) ** p
    row, row_lo = tri.rows[m], tri.rows_lo[m]
    if t == 1.0:
        total = 0.0
        for k in range(1, m + 2):
            a_k = row[k - 1]
            if a_k == 0.0:
                continue
            expo = p - k + 1
            if expo < 0.0:
                raise DomainError("ladder has a pole at t=1 for this (p, m)")
            total += a_k if expo == 0.0 else 0.0
        return total
    one_m_t_h, one_m_t_l = _two_sum(1.0, -t)
    rh, rl = _dd_div(t, 0.0, one_m_t_h, one_m_t_l)
    sh, sl = row[m], row_lo[m]
    for k in range(m, 0, -1):
        sh, sl = _dd_mul(sh, sl, rh, rl)
        sh, sl = _dd_add(sh, sl, row[k - 1], row_lo[k - 1])
    return math.fsum([sh * (1.0 - t) ** p, sl * (1.0 - t) ** p])


def rhs_series(p: float, b: float, m: int, t: float) -> float:
    """Sum the weighted series sum_i (-1)^i C(p,i) (b+i)^m t^i for |t| < 1.

    Terms follow the exact ratio
        u_{i+1}/u_i = t (i-p)/(i+1) ((b+i+1)/(b+i))^m
    carried as compensated pairs, and the run stops once a geometric envelope
    bounds the tail below 1e-13.
    """
    p = float(p)
    b = float(b)
    t = float(t)
    if m < 0:
        raise DomainError("weight power m must be >= 0")
    if b <= 0.0:
        raise DomainError("b must be positive")
    if not abs(t) < 1.0:
        raise DomainError("need |t| < 1")
    uh, ul = _dd_powi(b, 0.0, m) if m > 0 else (1.0, 0.0)
    pieces = [uh, ul]
    i = 0
    while True:
        nh, nl = _two_sum(float(i), -p)
        fh, fl = _dd_div(nh, nl, i + 1.0, 0.0)
        fh, fl = _dd_mul(fh, fl, t, 0.0)
        if m > 0:
            bih, bil = _two_sum(b, float(i))
            bjh, bjl = _two_sum(b, i + 1.0)
            gh, gl = _dd_div(bjh, bjl, bih, bil)
            gh, gl = _dd_powi(gh, gl, m)
            fh, fl = _dd_mul(fh, fl, gh, gl)
        uh, ul = _dd_mul(uh, ul, fh, fl)
        if uh == 0.0:
            break
        i += 1
        rho = abs(t) * max(1.0, (i - p) / (i + 1.0)) * ((b + i + 1.0) / (b + i)) ** m
        pieces.append(uh)
        pieces.append(ul)
        if rho < 1.0 and abs(uh) / (1.0 - rho) <= _TAIL_TARGET:
            break
        if i > _ITER_GUARD:
            raise DomainError("series failed to meet tail target")
    return math.fsum(pieces)
