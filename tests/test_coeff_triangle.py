import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramaseries.coeff_triangle import build
from ramaseries.special_fn import DomainError
from triangle_ref import ladder, weighted_series

GRID_P = (-1.0, -0.5, 0.5, 2.0)
GRID_B = (0.25, 1.0, 3.0)
GRID_T = (-0.6, -0.1, 0.2, 0.7)


def falling(p, n):
    out = 1.0
    for j in range(n):
        out *= p - j
    return out


def test_first_rows_exact():
    tri = build(0.5, 0.25, 3)
    assert tri.rows[0] == (1.0,)
    assert tri.rows[1] == (0.25, -0.5)
    assert tri.rows[2] == (0.0625, -0.75, -0.25)
    tri = build(2.0, 1.0, 3)
    assert tri.rows[1] == (1.0, -2.0)
    assert tri.rows[2] == (1.0, -6.0, 2.0)


def test_row_two_three_shape_general():
    for p in GRID_P:
        for b in GRID_B:
            tri = build(p, b, 3)
            assert tri.rows[1] == pytest.approx((b, -p), rel=1e-15)
            assert tri.rows[2] == pytest.approx(
                (b * b, -(2 * b + 1) * p, p * (p - 1)), rel=1e-14
            )


def test_identity_grid():
    for p in GRID_P:
        for b in GRID_B:
            tri = build(p, b, 10)
            for m in range(9):
                for t in GRID_T:
                    l = ladder(tri, m, t)
                    r = weighted_series(p, b, m, t)
                    assert abs(l - r) <= 1e-10 * (1.0 + abs(r)), (p, b, m, t)


def test_corner_columns():
    for p, b in ((0.37, 1.91), (-2.3, 0.11), (4.0, 2.0), (-0.5, 0.25)):
        tri = build(p, b, 10)
        for m in range(1, 11):
            lead = b ** (m - 1)
            assert tri.entry(m, 1) == pytest.approx(lead, rel=5e-14)
            diag = (-1.0) ** (m - 1) * falling(p, m - 1)
            assert tri.entry(m, m) == pytest.approx(diag, rel=5e-13, abs=1e-300)


def test_integer_p_degeneracy():
    for p in (0, 1, 2, 3):
        tri = build(float(p), 0.75, 10)
        for m in range(p + 1, 10):
            assert tri.entry(m + 1, m + 1) == 0.0
        # ladder stays finite at t = 1 and matches the terminating series
        for m in range(p, 9):
            val = ladder(tri, m, 1.0)
            direct = sum(
                (-1) ** i * math.comb(p, i) * (0.75 + i) ** m for i in range(p + 1)
            )
            assert math.isfinite(val)
            assert val == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_rhs_terminating_and_binomial():
    # both sides against the series in closed form: (1-t)^p at m = 0, a
    # finite sum at integer p
    assert ladder(build(1.0, 1.0, 3), 2, 0.5) == pytest.approx(-1.0, rel=1e-13)
    assert weighted_series(1.0, 1.0, 2, 0.5) == -1.0
    for t in (-0.7, -0.2, 0.4, 0.8):
        assert weighted_series(2.5, 1.0, 0, t) == pytest.approx((1 - t) ** 2.5, rel=1e-13)
    for p in (2, 3):
        direct = sum(
            (-1) ** i * math.comb(p, i) * (0.5 + i) ** 4 * 0.3 ** i for i in range(p + 1)
        )
        assert ladder(build(float(p), 0.5, 5), 4, 0.3) == pytest.approx(direct, rel=1e-13)
        assert weighted_series(float(p), 0.5, 4, 0.3) == pytest.approx(direct, rel=1e-13)


def test_lhs_direct_substitution():
    tri = build(0.5, 0.25, 5)
    for t in (-0.4, 0.0, 0.3, 0.9):
        assert ladder(tri, 0, t) == pytest.approx((1.0 - t) ** 0.5, rel=1e-15)
    want = 0.25 * 0.7 ** 0.5 - 0.5 * 0.3 * 0.7 ** (-0.5)
    assert ladder(tri, 1, 0.3) == pytest.approx(want, rel=1e-14)
    assert ladder(tri, 3, 0.3) == pytest.approx(weighted_series(0.5, 0.25, 3, 0.3), rel=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        build(0.5, 0.25, 0)
    with pytest.raises(DomainError):
        build(0.5, 0.25, 65)
    tri = build(0.5, 0.25, 4)
    with pytest.raises(DomainError):
        tri.entry(5, 1)
    # non-finite p or b, and entries past double range
    for p, b, m in ((math.nan, 1.0, 4), (1.0, math.inf, 4), (-math.inf, 1.0, 4),
                    (1.0, math.nan, 4), (1e308, 1e308, 64)):
        with pytest.raises(DomainError):
            build(p, b, m)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(-3.0, 3.0),
    b=st.floats(0.1, 5.0),
    m=st.integers(0, 6),
    t=st.floats(-0.8, 0.8),
)
def test_identity_random(p, b, m, t):
    tri = build(p, b, m + 1)
    l = ladder(tri, m, t)
    r = weighted_series(p, b, m, t)
    assert abs(l - r) <= 1e-10 * (1.0 + abs(r))
