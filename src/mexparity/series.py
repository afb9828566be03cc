"""Truncated formal power series in one variable q.

A series of order N holds the coefficients of q^0 .. q^(N-1), and every
operation is exact through that window: as long as the inputs are exact
to order N, so is the output.  Coefficients past it are unknown, not zero.

Each coefficient domain has one representation.  An integer series is a
plain tuple of its coefficients, q^0 first, so its order is its length.
A GF(2) series is a TruncatedSeries, the NamedTuple (bits, order) whose
bits is one Python int used as a bitmask (bit n = coefficient of q^n).
Other modules read a GF(2) series only through its public digit string,
q^0 first (.digits): slices of it are progressions and str.find steps
through its odd coefficients.  Every product the package forms has a
sparse side (a pentagonal or triangular series or a dilation of one), and
each domain has one operation.  The product series_mul is GF(2)-only,
shift-XOR over the sparser operand.  The quotient series_div is
integer-only, a back-substitution over the nonzero terms of the divisor
in blocks of coefficients.  The one GF(2) quotient the package needs,
R = 1/(q;q)_inf, is built by partition_parity as R(q) = psi(q) * R(q^4).

The module also provides constructors for the classical series this
package is built around: the Euler product (q^s;q^s)_inf, the
pentagonal-number expansion of (q;q)_inf, Jacobi's expansion of
(q;q)_inf^3, the triangular-number theta series psi(q), and the
alternating triangular sum that generates the mex-based partition counts.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import count, takewhile
from operator import index
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import OrderLimitError

__all__ = [
    "Domain",
    "INTEGERS",
    "MOD2",
    "MOD2_ORDER_CEILING",
    "checked_mod2_order",
    "TruncatedSeries",
    "series_mul",
    "series_recip",
    "series_div",
    "euler_product",
    "partition_parity",
    "euler_pentagonal",
    "jacobi_cube",
    "alternating_triangular",
    "theta_psi",
    "dissect",
    "nonzero_indices",
]


class Domain(enum.Enum):
    """Coefficient domain of a built series: a tuple or a TruncatedSeries."""

    INTEGERS = "integers"
    MOD2 = "mod2"


INTEGERS = Domain.INTEGERS
MOD2 = Domain.MOD2

# largest order of a GF(2) series: the parity catalog peaks at 89 MiB at
# order 10^7 and 21 MiB at 10^6, so 10^8 is about 0.8 GiB (extrapolated)
MOD2_ORDER_CEILING = 10**8


def checked_mod2_order(order: int) -> int:
    """order itself, once a GF(2) series of that order may be built.

    An order past MOD2_ORDER_CEILING is an OrderLimitError, raised before
    anything of its size is built.
    """
    if order > MOD2_ORDER_CEILING:
        raise OrderLimitError(f"mod-2 series order {order} exceeds the ceiling {MOD2_ORDER_CEILING}")
    return order


class _Mod2Series(NamedTuple):
    bits: int
    order: int


class TruncatedSeries(_Mod2Series):
    """GF(2) power series in q, exact through q^(order-1): bit n of bits is
    the coefficient of q^n.  TruncatedSeries(bits, order) is the one checked
    constructor; the builders in this module use the NamedTuple's _make."""

    __slots__ = ()

    # perfbench/tracer.py labels each series_mul call by args[0].domain and
    # patches vars(TruncatedSeries)["coeffs"], so both live in this class
    domain = MOD2

    def __new__(cls, bits: int, order: int):
        # O(1) checks: the order, its ceiling, and no bit at or past it
        bits, order = index(bits), index(order)
        if order < 1:
            raise ValueError("order must be >= 1")
        checked_mod2_order(order)
        if bits < 0 or bits.bit_length() > order:
            raise ValueError(f"bits must satisfy 0 <= bits < 2**{order}")
        return super().__new__(cls, bits, order)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """All coefficients as ints, q^0 first."""
        return tuple(map(int, self.digits))

    @property
    def digits(self) -> str:
        """Digit string ("0"s and "1"s), q^0 first."""
        return format(self.bits, f"0{self.order}b")[::-1]


def nonzero_indices(s: TruncatedSeries) -> Iterator[int]:
    """Exponents n < order with a nonzero coefficient, in increasing order."""
    return _ones(s.digits)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product of two GF(2) series, exact through min(a.order, b.order).

    Over the integers the one operation is the quotient series_div.
    """
    if not (isinstance(a, TruncatedSeries) and isinstance(b, TruncatedSeries)):
        raise ValueError(
            f"series_mul is GF(2)-only, got {type(a).__name__} * {type(b).__name__}; "
            "over the integers the one operation is series_div"
        )
    order = min(a.order, b.order)
    return TruncatedSeries._make((_gf2_mul(a.bits, b.bits, order), order))


def series_div(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient num / den of integer series, exact through min(len(num),
    len(den)): the series r with r * den == num.  The constant term of den
    must be +-1.  Over GF(2) the one quotient is partition_parity.
    """
    # a TruncatedSeries is itself a tuple, (bits, order), so it is named here
    if isinstance(num, TruncatedSeries) or isinstance(den, TruncatedSeries):
        raise ValueError(
            f"series_div is integer-only, got {type(num).__name__} / {type(den).__name__}; "
            "1/(q;q) mod 2 is partition_parity"
        )
    return _int_div(num, den, min(len(num), len(den)))


def series_recip(a: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse series_div(1, a) of an integer series: a * result == 1."""
    return series_div((1,) + (0,) * (len(a) - 1), a)


def euler_product(step: int, order: int, *, domain: Domain = INTEGERS) -> tuple | TruncatedSeries:
    """The infinite product (q^step;q^step)_inf = prod_{k>=1} (1 - q^(step*k)).

    It is the pentagonal-number expansion (the terms of euler_pentagonal)
    dilated by `step`, so it has O(sqrt(order/step)) nonzero terms; over
    GF(2) their bits are set directly.  A power over GF(2) is one such
    factor per set bit of the exponent, since squaring is a dilation.
    1/(q;q) is series_recip or partition_parity.  The product of binomial
    factors is kept out of this path; the identity suite rebuilds it
    independently from its logarithmic derivative.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    return _from_terms(((step * e, c) for e, c in _pentagonal_terms()), order, domain)


# 4 entries: `verify --suite all` asks for 3 orders, the bound shared by
# every sweep and the dissection check's two, and hits 17 times in 20 calls
@lru_cache(maxsize=4)
def partition_parity(order: int) -> TruncatedSeries:
    """R = 1/(q;q)_inf over GF(2): coefficient n is p(n) mod 2.

    Mod 2, (q;q)^3 = psi(q) (Jacobi) and (q;q)^4 = (q^4;q^4) (squaring is a
    dilation), so R(q) = psi(q) * R(q^4): R at order n is one product of
    psi(q), about sqrt(2n) terms, with R at order ceil(n/4) dilated by 4.
    R is built up from order 1 through the orders ceil(order / 4^k).  An
    order above MOD2_ORDER_CEILING raises OrderLimitError.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    checked_mod2_order(order)
    orders = [order]
    while orders[-1] > 1:
        orders.append((orders[-1] + 3) // 4)
    bits = 1
    for n in reversed(orders[:-1]):
        # bit i of R(q) is bit 4i of R(q^4): "000" between every two digits
        r4 = int("000".join(format(bits, "b")), 2)
        bits = _gf2_mul(alternating_triangular(1, n, MOD2).bits, r4, n)
    return TruncatedSeries._make((bits, order))


def euler_pentagonal(order: int) -> tuple[int, ...]:
    """Pentagonal-number expansion of (q;q)_inf.

    Sum over all integers n of (-1)^n q^(n(3n-1)/2); the exponents with
    n = k and n = -k are k(3k-1)/2 and k(3k+1)/2, both with sign (-1)^k.
    euler_product is built from this expansion; the identity suite checks it
    against the product of binomial factors, rebuilt from its log-derivative.
    """
    return _from_terms(_pentagonal_terms(), order)


def jacobi_cube(order: int) -> tuple[int, ...]:
    """Jacobi's expansion of (q;q)_inf^3: sum of (-1)^n (2n+1) q^(n(n+1)/2)."""
    terms = ((n * (n + 1) // 2, (2 * n + 1) * (-1 if n & 1 else 1)) for n in count())
    return _from_terms(terms, order)


def alternating_triangular(t: int, order: int, domain: Domain = INTEGERS) -> tuple | TruncatedSeries:
    """The alternating sum of (-1)^n q^(t*n(n+1)/2) over n >= 0 (psi(q^t) mod 2)."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    terms = ((t * n * (n + 1) // 2, -1 if n & 1 else 1) for n in count())
    return _from_terms(terms, order, domain)


def theta_psi(order: int) -> tuple[int, ...]:
    """Ramanujan's theta series psi(q) = sum of q^(n(n+1)/2).

    The indicator series of the triangular numbers; as a product it equals
    (q^2;q^2)_inf^2 / (q;q)_inf, rebuilt and checked by the identity suite.
    """
    return _from_terms(((n * (n + 1) // 2, 1) for n in count()), order)


def _pentagonal_terms() -> Iterator[tuple[int, int]]:
    # (exponent, coefficient) of (q;q)_inf, exponents increasing
    yield 0, 1
    for k in count(1):
        sign = -1 if k & 1 else 1
        yield k * (3 * k - 1) // 2, sign
        yield k * (3 * k + 1) // 2, sign


def _from_terms(
    terms: Iterable[tuple[int, int]], order: int, domain: Domain = INTEGERS
) -> tuple | TruncatedSeries:
    # the series of (exponent, coefficient) terms with increasing exponents,
    # cut at the first exponent >= order; the one function that reads a Domain
    if order < 1:
        raise ValueError("order must be >= 1")
    window = takewhile(lambda term: term[0] < order, terms)
    if domain is MOD2:
        checked_mod2_order(order)
        return TruncatedSeries._make((_bits_of((e for e, c in window if c & 1), order), order))
    if domain is not INTEGERS:
        raise TypeError(f"domain must be a Domain, got {domain!r}")
    c = [0] * order
    for e, v in window:
        c[e] = v
    return tuple(c)


def dissect(s: TruncatedSeries, modulus: int, residue: int) -> TruncatedSeries:
    """Arithmetic-progression slice of a GF(2) series: coefficient n of the
    result is coefficient modulus*n + residue of `s`.

    The result order is ceil((s.order - residue) / modulus), i.e. exactly
    the coefficients of the progression that lie inside the exact window.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if not 0 <= residue < modulus:
        raise ValueError(f"residue must satisfy 0 <= r < {modulus}, got {residue}")
    new_order = (s.order - residue + modulus - 1) // modulus
    if new_order < 1:
        raise ValueError(
            f"series of order {s.order} has no exact coefficients in the "
            f"progression {modulus}n + {residue}"
        )
    return TruncatedSeries._make((int(s.digits[residue::modulus][::-1], 2), new_order))


# ---------------------------------------------------------------------------
# GF(2) kernels: a series is one int, bit n = coefficient of q^n, and its
# positions are read from a digit string, q^0 first (TruncatedSeries.digits)
# ---------------------------------------------------------------------------


def _bits_of(indices: Iterable[int], order: int) -> int:
    # bitmask with exactly the given bits set; each index must be < order
    out = bytearray((order + 7) // 8)
    for i in indices:
        out[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(out, "little")


def _ones(digits: str) -> Iterator[int]:
    # positions of the "1"s in a digit string, increasing
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _gf2_mul(a: int, b: int, order: int) -> int:
    mask = (1 << order) - 1
    a &= mask
    b &= mask
    if b.bit_count() < a.bit_count():
        a, b = b, a
    acc = 0
    for i in _ones(format(a, "b")[::-1]):
        acc ^= b << i
    return acc & mask


# ---------------------------------------------------------------------------
# integer kernels: a series is a tuple of Python ints
# ---------------------------------------------------------------------------


# coefficients per block of _int_div: ptt_series(3, 10^4) and the t-core
# quotient (q^5;q^5)^5 / (q;q) at order 10^4 time flat from 32 to 128 and
# slower at 256 and 512
# (2-vCPU VM, Python 3.11.7)
_BLOCK = 64


def _int_div(num: Sequence[int], den: Sequence[int], order: int) -> tuple[int, ...]:
    # back-substitution in blocks of _BLOCK coefficients; with a unit constant
    # term c0 = 1/c0 the update is r[n] = c0 * (num[n] - sum_{k>=1} den[k] r[n-k]).
    # The terms k >= 1 of den are grouped by value v.  A far term (k >= _BLOCK)
    # reads only finished blocks, so each block [lo, hi) starts from num[lo:hi]
    # less v times the column sums of r[lo-k:hi-k] over the group; a far term
    # with lo < k < hi reaches only r[:hi-k], zero-padded in front.  The near
    # terms (k < _BLOCK) are then substituted one coefficient at a time.
    c0 = den[0]
    if c0 not in (1, -1):
        raise ValueError(f"constant term must be +-1 to divide over the integers, got {c0}")
    near = []
    far: dict[int, list[int]] = {}
    for k in range(1, order):
        v = den[k]
        if v:
            if k < _BLOCK:
                near.append((k, v))
            else:
                far.setdefault(v, []).append(k)
    r: list[int] = []
    for lo in range(0, order, _BLOCK):
        hi = min(lo + _BLOCK, order)
        acc = num[lo:hi]
        for v, ks in far.items():
            cols = [r[lo - k : hi - k] if k <= lo else [0] * (k - lo) + r[: hi - k] for k in ks if k < hi]
            if cols:
                acc = [a - v * s for a, s in zip(acc, map(sum, zip(*cols)))]
        for n in range(lo, hi):
            s = acc[n - lo]
            for k, v in near:
                if k > n:
                    break
                s -= v * r[n - k]
            r.append(s if c0 == 1 else -s)
    return tuple(r)
