"""Both sides of the triangle identity at 40 digits, for the tests:

    sum_i (-1)^i C(p,i) (b+i)^m t^i = sum_{k=1}^{m+1} A[m+1][k] t^(k-1) (1-t)^(p-k+1)
"""

import functools

import mpmath as mp


def ladder(tri, m, t):
    """The right side from build's float rows. A zero coefficient is skipped,
    so that rows whose tail columns vanish (integer p) stay finite at t = 1."""
    with mp.workdps(40):
        p, t = mp.mpf(tri.p), mp.mpf(t)
        return float(mp.fsum(a * t ** (k - 1) * (1 - t) ** (p - k + 1)
                             for k, a in enumerate(tri.rows[m], 1) if a))


@functools.cache  # two tests check the same grid
def weighted_series(p, b, m, t):
    """The left side for |t| < 1, summed directly until the tail is under 1e-40.

    Past term i each ratio |t| |p-j| / (j+1) ((b+j+1) / (b+j))^m stays under
    rho = |t| max(1, (i+|p|) / (i+1)) (1 + 1/(b+i))^m.
    """
    with mp.workdps(40):
        P, B, T = mp.mpf(p), mp.mpf(b), mp.mpf(t)
        u, total, i = mp.mpf(1), mp.mpf(0), 0
        while u:
            term = u * (B + i) ** m
            total += term
            rho = abs(t) * max(1.0, (i + abs(p)) / (i + 1)) * (1.0 + 1.0 / (b + i)) ** m
            if rho < 1.0 and abs(term) < 1e-40 * (1.0 - rho):
                break
            u *= -T * (P - i) / (i + 1)
            i += 1
        return float(total)
