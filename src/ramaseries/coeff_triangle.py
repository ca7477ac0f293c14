"""Coefficient triangle that trades a polynomial weight (b+i)^m inside a
binomial series for a linear combination of parameter shifts.

For real p, b the rows A[m][1..m] built here satisfy, for |t| < 1,

    sum_i (-1)^i C(p,i) (b+i)^m t^i
        = sum_{k=1}^{m+1} A[m+1][k] t^(k-1) (1-t)^(p-k+1)

so a power weight on the left becomes a fixed, finite ladder of shifted
unweighted series on the right.  The shift identities in ``identities``
consume these rows directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .special_fn import DomainError, _whole

_MAX_DEPTH = 64


@dataclass(frozen=True)
class CoeffTriangle:
    """Dense triangle of reduction coefficients for fixed (p, b).

    rows[m-1][k-1] holds A[m][k], 1 <= k <= m <= len(rows), correctly rounded
    from the exact dyadic recurrence.
    """

    p: float
    b: float
    rows: tuple[tuple[float, ...], ...]

    def entry(self, m: int, k: int) -> float:
        if not (1 <= k <= m <= len(self.rows)):
            raise DomainError(f"entry ({m},{k}) outside triangle of depth {len(self.rows)}")
        return self.rows[m - 1][k - 1]


def build(p: float, b: float, M: int) -> CoeffTriangle:
    """Build the triangle down to row M (M <= 64).

    Row update: first entry scales by b, interior entries mix the two
    entries above, the new diagonal extends the falling factorial of p.
    Floats are dyadic rationals, so the recurrence runs exactly in Fraction
    and each stored entry is the correctly rounded value.  A non-finite p or
    b, or an entry past double range, raises DomainError.
    """
    M = _whole(M, 1, "triangle depth must be >= 1 and an integer, got {}")
    if M > _MAX_DEPTH:
        raise DomainError(f"triangle depth {M} exceeds {_MAX_DEPTH}")
    p = float(p)
    b = float(b)
    if not (math.isfinite(p) and math.isfinite(b)):
        raise DomainError(f"p and b must be finite, got p={p}, b={b}")
    P, B = Fraction(p), Fraction(b)
    prev, rows = (Fraction(1),), [(1.0,)]
    try:
        for m in range(1, M):
            nxt = [B * prev[0]]
            for k in range(2, m + 1):
                nxt.append(-(P - k + 2) * prev[k - 2] + (B + k - 1) * prev[k - 1])
            nxt.append(-(P - m + 1) * prev[m - 1])
            rows.append(tuple(float(v) for v in nxt))
            prev = nxt
    except OverflowError:  # float() of an entry past 1e308
        raise DomainError("coefficient past double range at this depth") from None
    return CoeffTriangle(p=p, b=b, rows=tuple(rows))
