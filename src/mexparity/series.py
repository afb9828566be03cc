"""Truncated formal power series in one variable q.

Two coefficient domains are supported: arbitrary-precision integers and
GF(2) (coefficients modulo 2).  A series of order N stores the coefficients
of q^0 .. q^(N-1) and every operation is exact through that window: as long
as the inputs are exact to order N, so is the output.  Coefficients at or
beyond the truncation order are unknown, not zero, and asking for them is
an error.

Integer series are kept as coefficient tuples, GF(2) series as one Python
int used as a bitmask (bit n = coefficient of q^n).  Other modules read a
GF(2) series only through its public digit string, q^0 first (.digits):
slices of it are progressions and str.find steps through its odd
coefficients.  Every product the package forms has a sparse side (a
pentagonal or triangular series or a dilation of one), so there is one
multiplication route per domain: shift-XOR over the sparser operand for
GF(2), a convolution over the nonzero terms for the integers.  The one
quotient, series_div, is integer-only, a back-substitution over the
nonzero terms of the divisor, solved a block of coefficients at a time:
the terms at least a block away read only finished blocks and enter as
column sums.  The one GF(2) quotient the package needs,
R = 1/(q;q)_inf, is built by partition_parity as R(q) = psi(q) * R(q^4).

The module also provides constructors for the classical series this
package is built around: the Euler product (q^s;q^s)_inf and its powers,
the pentagonal-number expansion of (q;q)_inf, Jacobi's expansion of
(q;q)_inf^3, the triangular-number theta series psi(q), and the
alternating triangular sum that generates the mex-based partition counts.
"""

from __future__ import annotations

import enum
from functools import lru_cache, reduce
from itertools import count, repeat, takewhile
from operator import index
from typing import Iterable, Iterator, Sequence

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
    """Coefficient domain of a TruncatedSeries."""

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


class TruncatedSeries:
    """Immutable power series in q, exact through q^(order-1).

    Instances are value objects: equality compares domain, order and all
    stored coefficients.  They are safe to share between threads and to
    cache; no operation in this module mutates its inputs.
    """

    __slots__ = ("order", "domain", "_data")

    order: int
    domain: Domain

    def __new__(cls, coeffs: Iterable[int], domain: Domain = INTEGERS):
        # index() takes ints and bools only: a float or a str is a TypeError;
        # _from_terms checks the domain and the order, as for every series
        data = tuple(map(index, coeffs))
        if domain is MOD2:
            for i, c in enumerate(data):
                if c not in (0, 1):
                    raise ValueError(f"Mod2 coefficients must be 0 or 1, got {c} at q^{i}")
        return _from_terms(((i, c) for i, c in enumerate(data) if c), len(data), domain)

    def __setattr__(self, name, *value):
        raise AttributeError(f"TruncatedSeries is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through _make, not slot assignment
        return TruncatedSeries._make, (self._data, self.order, self.domain)

    # -- alternate constructors -------------------------------------------

    @classmethod
    def _make(cls, data, order: int, domain: Domain) -> "TruncatedSeries":
        # trusted internal path and the only writer of the slots: a MOD2
        # bitmask < 2**order or an INTEGERS tuple of length order
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_data", data)
        return self

    @classmethod
    def one(cls, order: int, domain: Domain = INTEGERS) -> "TruncatedSeries":
        """The multiplicative identity 1, truncated at `order`."""
        return _from_terms(((0, 1),), order, domain)

    @classmethod
    def zero(cls, order: int, domain: Domain = INTEGERS) -> "TruncatedSeries":
        return _from_terms((), order, domain)

    # -- coefficient access ------------------------------------------------

    def coeff(self, n: int) -> int:
        """Coefficient of q^n.  Indices at or past the order are unknown."""
        if not 0 <= n < self.order:
            raise IndexError(
                f"coefficient q^{n} is outside the exact window [0, {self.order})"
            )
        if self.domain is MOD2:
            return (self._data >> n) & 1
        return self._data[n]

    @property
    def coeffs(self) -> tuple[int, ...]:
        """All stored coefficients, q^0 first."""
        if self.domain is MOD2:
            return tuple(map(int, self.digits))
        return self._data

    @property
    def bits(self) -> int:
        """Bitmask view (bit n = coefficient of q^n); Mod2 series only."""
        if self.domain is not MOD2:
            raise ValueError("bitmask view is only defined for Mod2 series")
        return self._data

    @property
    def digits(self) -> str:
        """Digit-string view ("0"s and "1"s, q^0 first); Mod2 series only."""
        if self.domain is not MOD2:
            raise ValueError("digit-string view is only defined for Mod2 series")
        return format(self._data, f"0{self.order}b")[::-1]

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.domain, self.order, self._data) == (other.domain, other.order, other._data)

    def __hash__(self) -> int:
        return hash((self.domain, self.order, self._data))

    def __repr__(self) -> str:
        head = ", ".join(str(self.coeff(n)) for n in range(min(8, self.order)))
        tail = ", ..." if self.order > 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order}, domain={self.domain.value})"


def nonzero_indices(s: TruncatedSeries) -> Iterator[int]:
    """Exponents n < order with a nonzero coefficient, in increasing order."""
    if s.domain is MOD2:
        return _ones(s.digits)
    return (i for i, c in enumerate(s._data) if c)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product of two series over the same domain.

    The result order is min(a.order, b.order); coefficient k is the full
    convolution sum over i+j = k.
    """
    if a.domain is not b.domain:
        raise ValueError(f"domain mismatch: {a.domain.value} * {b.domain.value}")
    order = min(a.order, b.order)
    mul = _gf2_mul if a.domain is MOD2 else _int_mul
    return TruncatedSeries._make(mul(a._data, b._data, order), order, a.domain)


def series_div(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Quotient num / den over the integers, exact through min(num.order,
    den.order): the series r with series_mul(r, den) == num.  The constant
    term of den must be +-1.  Over GF(2) the one quotient is partition_parity.
    """
    if num.domain is not den.domain:
        raise ValueError(f"domain mismatch: {num.domain.value} / {den.domain.value}")
    if den.domain is MOD2:
        raise ValueError("series_div is integer-only; 1/(q;q) mod 2 is partition_parity")
    order = min(num.order, den.order)
    c0 = den._data[0]
    if c0 not in (1, -1):
        raise ValueError(f"constant term must be +-1 to divide over the integers, got {c0}")
    return TruncatedSeries._make(_int_div(num._data, den._data, order), order, INTEGERS)


def series_recip(a: TruncatedSeries) -> TruncatedSeries:
    """Inverse series_div(1, a) of an integer series: series_mul(a, result) == 1."""
    return series_div(TruncatedSeries.one(a.order, a.domain), a)


def euler_product(step: int, power: int, order: int, domain: Domain = INTEGERS) -> TruncatedSeries:
    """The infinite product prod_{k>=1} (1 - q^(step*k)) raised to `power` >= 0.

    The base product is the pentagonal-number expansion (the terms of
    euler_pentagonal) dilated by `step`, so it has O(sqrt(order/step))
    nonzero terms; over GF(2) their bits are set directly.  A power is
    formed by repeated multiplication with that sparse base, and power = 0
    gives the identity series.  1/(q;q) is series_recip or partition_parity.
    The product of binomial factors is kept out of this path; the identity
    suite rebuilds it independently from its logarithmic derivative.
    """
    if step < 1:
        raise ValueError("step must be a positive integer")
    if power < 0:
        raise ValueError(f"power must be >= 0, got {power}")
    if power == 0:
        return TruncatedSeries.one(order, domain)
    base = _from_terms(((step * e, c) for e, c in _pentagonal_terms()), order, domain)
    return reduce(series_mul, repeat(base, power - 1), base)


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
        bits = _gf2_mul(alternating_triangular(1, n, MOD2)._data, r4, n)
    return TruncatedSeries._make(bits, order, MOD2)


def euler_pentagonal(order: int) -> TruncatedSeries:
    """Pentagonal-number expansion of (q;q)_inf.

    Sum over all integers n of (-1)^n q^(n(3n-1)/2); the exponents with
    n = k and n = -k are k(3k-1)/2 and k(3k+1)/2, both with sign (-1)^k.
    euler_product is built from this expansion; the identity suite checks it
    against the product of binomial factors, rebuilt from its log-derivative.
    """
    return _from_terms(_pentagonal_terms(), order)


def jacobi_cube(order: int) -> TruncatedSeries:
    """Jacobi's expansion of (q;q)_inf^3: sum of (-1)^n (2n+1) q^(n(n+1)/2)."""
    terms = ((n * (n + 1) // 2, (2 * n + 1) * (-1 if n & 1 else 1)) for n in count())
    return _from_terms(terms, order)


def alternating_triangular(t: int, order: int, domain: Domain = INTEGERS) -> TruncatedSeries:
    """The alternating sum of (-1)^n q^(t*n(n+1)/2) over n >= 0 (psi(q^t) mod 2)."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    terms = ((t * n * (n + 1) // 2, -1 if n & 1 else 1) for n in count())
    return _from_terms(terms, order, domain)


def theta_psi(order: int) -> TruncatedSeries:
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
) -> TruncatedSeries:
    # the series with the given (exponent, coefficient) terms; exponents must
    # increase, and the first one at or past `order` ends the (possibly
    # infinite) stream.  Every series is checked and laid out here: a domain
    # that is not a Domain would pass every `is MOD2` branch as the integers
    if order < 1:
        raise ValueError("order must be >= 1")
    if not isinstance(domain, Domain):
        raise TypeError(f"domain must be a Domain, got {domain!r}")
    if domain is MOD2:
        checked_mod2_order(order)
    window = list(takewhile(lambda term: term[0] < order, terms))
    if domain is MOD2:
        bits = _bits_of((e for e, c in window if c & 1), order)
        return TruncatedSeries._make(bits, order, MOD2)
    c = [0] * order
    for e, v in window:
        c[e] = v
    return TruncatedSeries._make(tuple(c), order, INTEGERS)


def dissect(s: TruncatedSeries, modulus: int, residue: int) -> TruncatedSeries:
    """Arithmetic-progression slice: coefficient n of the result is
    coefficient modulus*n + residue of `s`.

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
    if s.domain is MOD2:
        # the same slice as the integer path, over the digit string
        return TruncatedSeries._make(int(s.digits[residue::modulus][::-1], 2), new_order, MOD2)
    return TruncatedSeries._make(s._data[residue::modulus], new_order, INTEGERS)


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


def _int_mul(a: Sequence[int], b: Sequence[int], order: int) -> tuple[int, ...]:
    nza = [(i, v) for i, v in enumerate(a[:order]) if v]
    nzb = [(i, v) for i, v in enumerate(b[:order]) if v]
    if len(nzb) < len(nza):
        nza, nzb = nzb, nza
    acc = [0] * order
    for i, av in nza:
        for j, bv in nzb:
            k = i + j
            if k >= order:
                break
            acc[k] += av * bv
    return tuple(acc)


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
