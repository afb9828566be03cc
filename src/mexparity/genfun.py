"""Named generating functions assembled from the series primitives.

The central object is the weight generating function of the partition
counts defined by the mex statistic with A = a = t (t odd): the
alternating triangular sum at step t divided by the Euler product
(q;q)_inf.  Over the integers it is one series_div by the
pentagonal-sparse (q;q), a back-substitution over its pentagonal terms
in blocks of coefficients.  The t-core counting series
(q^t;q^t)_inf^t / (q;q)_inf is built over GF(2) only, since every check
of it is a parity check.  Over GF(2) both multiply R = 1/(q;q)_inf, the
memoized series.partition_parity: by psi(q^t), which the alternating sum
is mod 2 (Jacobi), or by one sparse (q^(t*2^i);q^(t*2^i)) per set bit i
of t, since squaring is a dilation.  The 2t-dissection identity is
checked as one product per t (multiplying by a series in q^(2t) commutes
with 2t-slices), sliced from one digit string per side.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import OrderLimitError
from .series import (
    INTEGERS,
    MOD2,
    TruncatedSeries,
    alternating_triangular,
    euler_product,
    partition_parity,
    series_div,
    series_mul,
)

__all__ = [
    "INT_ORDER_CEILING",
    "ptt_series",
    "ptt_mod2_series",
    "acore_mod2_series",
    "dissection_identity_check",
]


# largest order ptt_series accepts: its cost grows as about order^1.5,
# about 50 ms for ptt_series(3, 10^4) (2-vCPU VM, Python 3.11.7), so a
# library call at order 10^6 would run for minutes
INT_ORDER_CEILING = 10**4


def _require_odd_t(t: int) -> None:
    if t < 1 or t % 2 == 0:
        raise ValueError(f"t must be an odd positive integer, got {t}")


def ptt_series(t: int, order: int) -> TruncatedSeries:
    """Integer series whose coefficient of q^n counts partitions of n with
    mex_{t,t} congruent to t mod 2t.

    Computed as the alternating triangular sum at step t divided by the
    Euler product (q;q), one back-substitution over its pentagonal terms,
    solved in blocks of coefficients (series_div); coefficients match
    partitions.p_direct.  An order above INT_ORDER_CEILING raises
    OrderLimitError.
    """
    _require_odd_t(t)
    if order > INT_ORDER_CEILING:
        raise OrderLimitError(
            f"integer series order {order} exceeds the ceiling {INT_ORDER_CEILING}; "
            "use the mod-2 series for larger orders"
        )
    return series_div(alternating_triangular(t, order), euler_product(1, order, domain=INTEGERS))


# memoized: `verify --suite all` asks for 11 keys and hits 4 times in 15
# calls, p11's and p33's series reused by the corollaries after theorem6's
# seven; that reuse distance needs 9 entries, so 16 keep every hit
@lru_cache(maxsize=16)
def ptt_mod2_series(t: int, order: int) -> TruncatedSeries:
    """Parity of ptt_series: the same formula over GF(2), where the
    alternating triangular sum is psi(q^t).  Even t is rejected, and an
    order above series.MOD2_ORDER_CEILING raises partition_parity's
    OrderLimitError before anything is built."""
    _require_odd_t(t)
    return series_mul(partition_parity(order), alternating_triangular(t, order, MOD2))


def _times_euler_power_mod2(s: TruncatedSeries, step: int, power: int) -> TruncatedSeries:
    # s * (q^step;q^step)^power over GF(2) with one sparse factor per set
    # bit of power: squaring is a dilation, so no dense power is formed
    for i in range(power.bit_length()):
        if power >> i & 1:
            s = series_mul(s, euler_product(step << i, s.order, domain=MOD2))
    return s


def acore_mod2_series(t: int, order: int) -> TruncatedSeries:
    """Parity of the t-core counts over GF(2): 1/(q;q) times one factor
    (q^(t*2^i);q^(t*2^i)) per set bit i of t, which is (q^t;q^t)^t mod 2.
    An order above series.MOD2_ORDER_CEILING raises partition_parity's
    OrderLimitError before anything is built."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return _times_euler_power_mod2(partition_parity(order), t, t)


def dissection_identity_check(t: int, order: int) -> tuple[int, ...]:
    """Check every residue class of the 2t-dissection identity.

    For odd t >= 3 and each 0 <= r < 2t, the parity series satisfy

        dissect(ptt_mod2, 2t, r) * (q;q)^((t-3)/2) == dissect(acore_mod2, 2t, r)

    coefficientwise.  The first `order` coefficients of every class are
    checked at once, as ptt_mod2 * (q^(2t);q^(2t))^((t-3)/2) == acore_mod2
    at order 2t*order: each side's digit string is formed once and class r
    is its slice [r::2t].  Returns the residues r < 2t whose slices of the
    two sides differ, in increasing order: empty on exact agreement.
    t = 1 and even t are outside the identity and rejected.
    """
    if t % 2 == 0 or t < 3:
        raise ValueError(f"the dissection identity needs odd t >= 3, got {t}")
    m = 2 * t
    lhs = _times_euler_power_mod2(ptt_mod2_series(t, m * order), m, (t - 3) // 2)
    a, b = lhs.digits, acore_mod2_series(t, m * order).digits
    return tuple(r for r in range(m) if a[r::m] != b[r::m])
