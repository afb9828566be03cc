"""Named generating functions assembled from the series primitives.

The central object is the weight generating function of the partition
counts defined by the mex statistic with A = a = t (t odd): as a q-series
it is the alternating triangular sum at step t divided by the Euler
product (q;q)_inf.  Modulo 2 that quotient collapses to the eta-style
product (q^t;q^t)_inf^3 / (q;q)_inf, which is what makes parity questions
tractable at order 10^5; both routes are exposed and their agreement is
part of the test suite.

The t-core counting series (q^t;q^t)_inf^t / (q;q)_inf and the
arithmetic-progression dissection identity that links the two families
live here as well.
"""

from __future__ import annotations

from functools import lru_cache

from .series import (
    MOD2,
    TruncatedSeries,
    alternating_triangular,
    dissect,
    euler_product,
    series_mul,
    series_recip,
)

__all__ = [
    "ptt_series",
    "ptt_mod2_series",
    "acore_series",
    "acore_mod2_series",
    "dissection_identity_check",
]


def _require_odd_t(t: int) -> None:
    if t < 1 or t % 2 == 0:
        raise ValueError(f"t must be an odd positive integer, got {t}")


@lru_cache(maxsize=64)
def ptt_series(t: int, order: int) -> TruncatedSeries:
    """Integer series whose coefficient of q^n counts partitions of n with
    mex_{t,t} congruent to t mod 2t.

    Computed as the alternating triangular sum at step t times the
    reciprocal Euler product; coefficients match partitions.p_direct.
    """
    _require_odd_t(t)
    return series_mul(euler_product(1, -1, order), alternating_triangular(t, order))


@lru_cache(maxsize=64)
def ptt_mod2_series(t: int, order: int) -> TruncatedSeries:
    """Parity of ptt_series, computed natively over GF(2).

    Uses the product form (q^t;q^t)^3 / (q;q), which reduces the same way
    for every odd t and scales to order 10^5; agreement with
    reduce_mod2(ptt_series(t, .)) is covered by the tests.  Even t is
    rejected: the parity collapse needs t odd.
    """
    _require_odd_t(t)
    return series_mul(
        euler_product(t, 3, order, MOD2), euler_product(1, -1, order, MOD2)
    )


@lru_cache(maxsize=64)
def acore_series(t: int, order: int) -> TruncatedSeries:
    """Integer series counting t-core partitions: (q^t;q^t)^t / (q;q)."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return series_mul(euler_product(t, t, order), euler_product(1, -1, order))


@lru_cache(maxsize=64)
def acore_mod2_series(t: int, order: int) -> TruncatedSeries:
    """Parity of the t-core counts, computed natively over GF(2)."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return series_mul(
        euler_product(t, t, order, MOD2), euler_product(1, -1, order, MOD2)
    )


def dissection_identity_check(t: int, r: int, order: int) -> bool:
    """Check one residue class of the 2t-dissection identity.

    For odd t >= 3 and 0 <= r < 2t, the parity series satisfies

        dissect(ptt_mod2, 2t, r) == dissect(acore_mod2, 2t, r) / (q;q)^((t-3)/2)

    coefficientwise.  This routine verifies the first `order` coefficients
    of both sides and returns True on exact agreement.  t = 1 and even t
    are outside the identity and rejected.
    """
    if t % 2 == 0 or t < 3:
        raise ValueError(f"the dissection identity needs odd t >= 3, got {t}")
    if not 0 <= r < 2 * t:
        raise ValueError(f"residue must satisfy 0 <= r < {2 * t}, got {r}")
    if order < 1:
        raise ValueError("order must be >= 1")
    parent_order = 2 * t * order
    lhs = dissect(ptt_mod2_series(t, parent_order), 2 * t, r)
    prefactor = series_recip(euler_product(1, (t - 3) // 2, order, MOD2))
    rhs = series_mul(prefactor, dissect(acore_mod2_series(t, parent_order), 2 * t, r))
    return lhs == rhs
