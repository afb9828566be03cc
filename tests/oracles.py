"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the library's own algorithms: partition counts
come from the classic coin-style dynamic program, products from naive
schoolbook convolution, quotients from a coefficient-at-a-time
back-substitution, the identity suite's products from their recurrence
over a running array, the two characterizations' predicates from explicit
searches over k, and t-core counts from the hook lengths of every
partition.  The Euler product is multiplied out one binomial
factor at a time, independently of the pentagonal form the library uses
and of the logarithmic derivative the identity suite rebuilds it from,
and 1/(q;q) mod 2 is a Newton reciprocal, where the library uses the
theta recursion R(q) = psi(q) * R(q^4).
Partitions come from a recursive generator, and the crank is computed
without assuming any order of the parts.  The crank/rank tallies are the
per-partition route: every partition of n goes through the library's
four statistics, where the verifier counts each statistic from its
definition with tables of partition counts and lists no partition.
"""

from __future__ import annotations

from itertools import islice
from operator import sub

from mexparity.partitions import MexSpec, crank, enumerate_partitions, rank


def partition_counts(limit: int) -> list[int]:
    """p(0), ..., p(limit-1) by dynamic programming over allowed parts."""
    dp = [0] * limit
    dp[0] = 1
    for part in range(1, limit):
        for m in range(part, limit):
            dp[m] += dp[m - part]
    return dp


def schoolbook_mul(a, b, order):
    """Plain double-loop convolution, truncated at `order`."""
    out = [0] * order
    for i, av in enumerate(a):
        if i >= order:
            break
        if not av:
            continue
        for j, bv in enumerate(b):
            if i + j >= order:
                break
            out[i + j] += av * bv
    return out


def back_substitution(num, den, order):
    """num / den through q^(order-1), one coefficient at a time, for den
    with constant term +-1: r[n] = (num[n] - sum_{k>=1} den[k] r[n-k]) / den[0]
    over the nonzero terms of den.  The library substitutes in blocks."""
    c0 = den[0]
    nz = [(k, v) for k, v in enumerate(den[:order]) if v and k >= 1]
    r = [0] * order
    for n in range(order):
        s = num[n]
        for k, v in nz:
            if k > n:
                break
            s -= v * r[n - k]
        r[n] = s if c0 == 1 else -s
    return r


def log_product_by_rows(s, a, b):
    """(q;q)^a (q^2;q^2)^b to the order of the divisor sums s, by the
    recurrence n P_n = sum_{k>=1} L_k P_{n-k} with L = -a S(q) - 2b S(q^2),
    kept as a running array: one slice pass over the convolution's tail per
    nonzero P_n.  The library keeps the convolution in packed slots."""
    log_derivative = [-a * v for v in s]
    log_derivative[::2] = [v - 2 * b * w for v, w in zip(log_derivative[::2], s)]
    p, conv = [0] * len(s), [0] * len(s)
    for n in range(len(s)):
        p[n] = c = conv[n] // n if n else 1
        if c:
            conv[n:] = [v + c * w for v, w in zip(conv[n:], log_derivative)]
    return p


def euler_product_by_factors(step: int, order: int) -> list[int]:
    """prod_{k>=1} (1 - q^(step*k)) truncated at `order`, one binomial
    factor at a time; factors with step*k >= order are 1 in the window."""
    out = [1] + [0] * (order - 1)
    for m in range(step, order, step):
        out = schoolbook_mul([1] + [0] * (m - 1) + [-1], out, order)
    return out


def literal_euler_product(order: int) -> list[int]:
    """(q;q)_inf truncated at `order`, largest factor first, one slice
    assignment per factor.  Once the factors above m are in, the product is
    1 - q^(m+1) - ... - q^(2m+2) + (terms of degree >= 2m+3), so factor m
    only sets q^m to -1 and updates the window [2m+1, order): about
    order^2/4 updates in all.  The slice consumes the map before writing."""
    c = [1] + [0] * (order - 1)
    for m in range(order - 1, 0, -1):
        lo = 2 * m + 1
        if lo < order:
            c[lo:] = map(sub, islice(c, lo, order), islice(c, m + 1, order - m))
        c[m] -= 1
    return c


def product_form(step: int, power: int, order: int) -> list[int]:
    """(q^step;q^step)^power / (q;q) over the integers: the partition counts
    (the coefficients of 1/(q;q)) times the factor-by-factor product,
    `power` times over."""
    base = euler_product_by_factors(step, order)
    out = partition_counts(order)
    for _ in range(power):
        out = schoolbook_mul(base, out, order)
    return out


def product_form_mod2(step: int, power: int, order: int) -> list[int]:
    """product_form reduced mod 2."""
    return [c % 2 for c in product_form(step, power, order)]


def gf2_schoolbook_mul(abits: int, bbits: int, order: int) -> int:
    """Shift-XOR convolution over GF(2), truncated at `order`."""
    acc = 0
    i = 0
    x = abits
    while x:
        if x & 1:
            acc ^= bbits << i
        x >>= 1
        i += 1
    return acc & ((1 << order) - 1)


def gf2_newton_recip(abits: int, order: int) -> int:
    """1/a over GF(2) through q^(order-1), for a with bit 0 set, by Newton's
    iteration: if a*x == 1 mod q^m then a*(a*x^2) == (a*x)^2 == 1 mod q^(2m),
    and squaring x puts a "0" between every two of its binary digits."""
    x = m = 1
    while m < order:
        m = min(2 * m, order)
        square = int("0".join(format(x, "b")), 2)
        x = gf2_schoolbook_mul(abits & ((1 << m) - 1), square, m)
    return x


def pent_type_by_search(n: int) -> bool:
    """n == k(3k-1) or k(3k+1) for some k >= 1, by direct search."""
    k = 1
    while k * (3 * k - 1) <= n:
        if n in (k * (3 * k - 1), k * (3 * k + 1)):
            return True
        k += 1
    return False


def square_3n1_by_search(n: int) -> bool:
    """3n+1 == k^2 for some k >= 2, by direct search."""
    k = 2
    while k * k < 3 * n + 1:
        k += 1
    return k * k == 3 * n + 1


def conjugate(parts) -> tuple[int, ...]:
    """Transpose of the Young diagram (columns become rows)."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def hook_lengths(parts) -> tuple[int, ...]:
    """Multiset of hook lengths of the Young diagram, sorted descending.

    The hook of cell (i, j) covers the cell itself, the arm to its right
    and the leg below it: (parts[i] - j) + (conj[j] - i) - 1.  The empty
    diagram has no cells, so it has no hooks.
    """
    conj = conjugate(parts)
    hooks = [(row - j) + (conj[j] - i) - 1 for i, row in enumerate(parts) for j in range(row)]
    return tuple(sorted(hooks, reverse=True))


def a_t_direct(t: int, n: int) -> int:
    """Count t-core partitions of n: no hook length divisible by t.

    The empty partition has no hooks, so a_t_direct(t, 0) = 1.
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    return sum(all(h % t for h in hook_lengths(p)) for p in enumerate_partitions(n))


def smallest_missing_in_progression(parts, a: int, step: int) -> int:
    """First member of a, a+step, ... absent from `parts`, by scanning."""
    candidate = a
    while candidate in list(parts):
        candidate += step
    return candidate


def partitions_descending_reference(n: int):
    """Partitions of n in decreasing-first-part order, by recursion on the
    first part; the partitions of 0 are just the empty tuple."""

    def descend(remaining, cap, acc):
        if remaining == 0:
            yield tuple(acc)
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            yield from descend(remaining - part, part, acc)
            acc.pop()

    return descend(n, n, [])


def crank_unordered(parts) -> int:
    """Andrews-Garvan crank with no assumption on the order of the parts:
    max part if there are no 1s, else #(parts > w) - w for w the 1s."""
    ones = sum(1 for p in parts if p == 1)
    if ones == 0:
        return max(parts)
    return sum(1 for p in parts if p > ones) - ones


def crank_rank_tallies_by_partition(n: int) -> tuple[int, int, int, int]:
    """One pass over the partitions of n: how many have crank >= 0, mex_{1,1}
    in its counted class, rank >= -1 and mex_{3,3} in its counted class."""
    spec11 = MexSpec(1, 1)
    spec33 = MexSpec(3, 3)
    crank_count = mex11_count = rank_count = mex33_count = 0
    for parts in enumerate_partitions(n):
        if crank(parts) >= 0:
            crank_count += 1
        if spec11.counts(parts):
            mex11_count += 1
        if rank(parts) >= -1:
            rank_count += 1
        if spec33.counts(parts):
            mex33_count += 1
    return crank_count, mex11_count, rank_count, mex33_count
