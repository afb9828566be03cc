"""Exhaustive partition enumeration and partition statistics.

Everything here works by direct combinatorics on explicit partitions, with
no generating functions involved, so these routines double as independent
oracles for the series pipeline.  The t-core count by hook lengths, the
oracle of the t-core parity series, is kept with the other test oracles
in tests/oracles.py.  A partition is represented as a tuple of
weakly decreasing positive parts; the empty tuple is the unique partition
of 0.

Enumeration is an iterative generator, with no recursion, over a
partition's core, its parts > 1 kept in one list, and its count of ones:
each successor lowers the core's last part by one and refills with as
many copies as the freed weight allows.  It is deliberately capped (see
ENUMERATION_CEILING): p(45) is 89,134 partitions, made in 0.03 s, but
the count grows subexponentially and silently accepting much larger
weights would hang the caller: past the ceiling enumerate_partitions
raises EnumerationLimitError before anything is enumerated.
"""

from __future__ import annotations

from operator import index
from typing import Iterator, Sequence

from .errors import EnumerationLimitError

__all__ = [
    "ENUMERATION_CEILING",
    "MexSpec",
    "enumerate_partitions",
    "mex",
    "p_direct",
    "rank",
    "crank",
]

ENUMERATION_CEILING = 45


class MexSpec:
    """Parameters (A, a) of the minimal-excludant statistic mex_{A,a}.

    mex_{A,a} of a partition is the smallest member of the arithmetic
    progression a, a+A, a+2A, ... that does not occur among the parts;
    p_direct counts the partitions whose mex is congruent to a mod 2A.
    Immutable, equal and hashed by (A, a); the fields are plain slots,
    since mex reads them once per partition.
    """

    __slots__ = ("A", "a")

    def __init__(self, A: int, a: int):
        # index() takes ints and bools only: a float or a str is a TypeError
        A, a = index(A), index(a)
        if A < 1:
            raise ValueError("modulus A must be a positive integer")
        if not 1 <= a <= A:
            raise ValueError(f"need 1 <= a <= A, got a={a}, A={A}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, *value):
        raise AttributeError(f"MexSpec is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return (self.A, self.a) == (other.A, other.a) if type(other) is MexSpec else NotImplemented

    def __hash__(self) -> int:
        return hash((self.A, self.a))

    def __repr__(self) -> str:
        return f"MexSpec(A={self.A!r}, a={self.a!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not slot assignment
        return MexSpec, (self.A, self.a)

    def counts(self, parts: Sequence[int]) -> bool:
        """True when mex_{A,a}(parts) is congruent to a mod 2A."""
        return (mex(parts, self) - self.a) % (2 * self.A) == 0


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of n exactly once.

    Order: decreasing-first-part lexicographic, e.g. for n = 4:
    (4), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1).  n = 0 yields only the
    empty partition.  A negative n is a ValueError, and one past
    ENUMERATION_CEILING an EnumerationLimitError, raised at the call,
    before any generator exists.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > ENUMERATION_CEILING:
        raise EnumerationLimitError(
            f"enumeration of p({n}) partitions exceeds the ceiling n <= {ENUMERATION_CEILING}"
        )
    return _descending_partitions(n)


def _descending_partitions(n: int) -> Iterator[tuple[int, ...]]:
    # A partition is its core, its parts > 1 in order, plus a count of ones.
    # The successor lowers the core's last part by one to v.  If v is 1 the
    # ones grow by two; otherwise the freed unit and the ones refill the core
    # with as many more copies of v as fit, and what is left, below v, is one
    # more part if it is > 1 and the one remaining one if it is 1.
    core, ones = ([n], 0) if n > 1 else ([], n)
    yield (n,) if n else ()
    while core:
        v = core.pop() - 1
        if v == 1:
            ones += 2
        else:
            q, r = divmod(ones + 1, v)
            core += [v] * (q + 1)
            if r > 1:
                core.append(r)
            ones = 1 if r == 1 else 0
        yield tuple(core) + (1,) * ones


def mex(parts: Sequence[int], spec: MexSpec) -> int:
    """Smallest element of {a, a+A, a+2A, ...} that is not a part."""
    present = set(parts)
    candidate = spec.a
    while candidate in present:
        candidate += spec.A
    return candidate


def p_direct(spec: MexSpec, n: int) -> int:
    """Count partitions of n whose mex_{A,a} is congruent to a mod 2A.

    Pure enumeration; this is the ground truth the generating-function
    coefficients are checked against.
    """
    return sum(1 for parts in enumerate_partitions(n) if spec.counts(parts))


def rank(parts: Sequence[int]) -> int:
    """Dyson rank: largest part minus number of parts."""
    if not parts:
        raise ValueError("rank of the empty partition is undefined")
    return parts[0] - len(parts)


def crank(parts: Sequence[int]) -> int:
    """Andrews-Garvan crank.

    With w the number of 1s: the largest part when w = 0, otherwise
    (number of parts greater than w) - w.  Like rank, this relies on the
    parts being weakly decreasing: the largest part is parts[0], and the
    parts greater than w form a prefix, so the count stops at the first
    part <= w.
    """
    if not parts:
        raise ValueError("crank of the empty partition is undefined")
    ones = parts.count(1)
    if ones == 0:
        return parts[0]
    bigger = 0
    for p in parts:
        if p <= ones:
            break
        bigger += 1
    return bigger - ones
