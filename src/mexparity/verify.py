"""Machine verification of the parity results and congruence scanning.

Each checker sweeps an explicit finite range and returns a
VerificationReport carrying the range and, on failure, the first
counterexample, the smallest failing index in the first family (in the
checker's stated order) that fails; it passes exactly when it holds
none.  The families are the module's constants.  A sweep over indices
below an exclusive bound needs bound >= 2, so that index 1 is in range;
a smaller bound is a ValueError, never a vacuous pass.  A bound above
series.MOD2_ORDER_CEILING raises OrderLimitError, as does an identity
order above IDENTITY_CEILING (10^4), and a scan modulus above
SCAN_MODULUS_CEILING (10^6) or a crank/rank bound above
CRANK_RANK_CEILING (45) a LimitError, before anything is built.  Every
family is read as slices of the parity series' digit string, q^0 first.
Nothing here proves anything: a passing report means "no counterexample
below the stated bound", full stop.  The scanner makes that explicit by
emitting CongruenceClaim records that are refuted (with a witness),
verified-to-bound, or unchecked when the window held no index of the
class.

Index 0 is excluded from every congruence sweep: the weight-0 count is 1
(the empty partition always qualifies), so its coefficient is odd for
trivial reasons and the parity statements all start at n = 1.
"""

from __future__ import annotations

from itertools import accumulate, takewhile, zip_longest
from math import isqrt
from typing import Iterable, NamedTuple

from .errors import LimitError, OrderLimitError
from .genfun import acore_mod2_series, dissection_identity_check, ptt_mod2_series
from .series import (
    checked_mod2_order,
    euler_pentagonal,
    jacobi_cube,
    nonzero_indices,
    theta_psi,
)

__all__ = [
    "THEOREM6_RESIDUES",
    "SUITES",
    "VerificationReport",
    "CongruenceClaim",
    "legendre_nonresidue",
    "qnr_residues",
    "verify_characterization",
    "verify_crank_rank",
    "verify_odd_progression",
    "verify_qnr_families",
    "verify_power4_families",
    "verify_theorem6",
    "verify_tcore_congruences",
    "verify_series_identities",
    "verify_dissection_identities",
    "scan_congruences",
    "run_suite",
]

# Residue classes j mod 2t where the mex-partition counts (and the t-core
# counts, which transfer through the dissection identity) are even for
# every n.  These are the seven proved families the suite re-checks.
THEOREM6_RESIDUES: dict[int, tuple[int, ...]] = {
    5: (2, 6),
    7: (7, 9, 13),
    11: (2, 8, 12, 14, 16),
    13: (2, 10, 16, 18, 20, 22),
    17: (11, 15, 17, 19, 25, 27, 29, 33),
    19: (2, 8, 10, 20, 24, 28, 30, 32, 34),
    23: (11, 15, 21, 23, 29, 31, 35, 39, 41, 43, 45),
}

# the corollary families and run_suite's clamp for the dissection order: each
# is named in a range text, so in the digests
QNR_PRIMES = (5, 7, 11, 13, 17)
POWER4_MAX_M = 6
DISSECTION_TS = (5, 7)
DISSECTION_ORDER = 500
# largest order verify_series_identities accepts, and run_suite's clamp for
# it: its range text, "0 <= n < 10000", is in the digests, and it keeps
# `verify --suite all` fast (the three rebuilt products take 0.19 s at 10^4,
# 1.06 s at 3*10^4 and 3.85 s at 6*10^4 on a 2-vCPU VM, so minutes at 10^6)
IDENTITY_CEILING = 10**4
# largest bound verify_crank_rank accepts, and run_suite's clamp for it: its
# range text, "1 <= n <= 45", is in the digests
CRANK_RANK_CEILING = 45
# largest modulus scan_congruences accepts: it builds one claim per class,
# about 0.9 KiB each, so 10^6 classes take about 0.9 GiB
SCAN_MODULUS_CEILING = 10**6

SUITES = ("all", "p11", "p33", "crank-rank", "theorem6", "corollaries", "identities")


class VerificationReport(NamedTuple):
    """Outcome of one finite verification sweep.

    passed is derived: True exactly when no counterexample is recorded;
    detail carries human-readable context (which prime, which residue, ...).
    """

    theorem_id: str
    range: str
    counterexample: int | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    # the record's keys in order: the fields, with the derived flag after the range
    COLUMNS = ("theorem_id", "range", "passed", "counterexample", "detail")

    def to_record(self) -> dict:
        return {c: getattr(self, c) for c in self.COLUMNS}


class _Claim(NamedTuple):
    t: int
    modulus: int
    residue: int
    checked_bound: int
    witness: int | None


class CongruenceClaim(_Claim):
    """One residue class of a parity scan.

    Asserts "the count at modulus*n + residue is even for 1 <= index <
    bound"; refuted claims carry the first witness n (in progression
    coordinates, i.e. the odd coefficient sits at modulus*witness +
    residue).  Verified claims are evidence up to the bound, never proofs.
    A class whose window held no index >= 1 (checked_bound < 0, or < 1 for
    residue 0, whose index 0 is excluded) is unchecked and not verified.
    """

    __slots__ = ()

    def __new__(cls, t, modulus, residue, checked_bound, witness=None):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not 0 <= residue < modulus:
            raise ValueError("residue must lie in [0, modulus)")
        if witness is not None and witness < 0:
            raise ValueError("witness must be non-negative")
        return super().__new__(cls, t, modulus, residue, checked_bound, witness)

    @property
    def verified(self) -> bool:
        return self.status == "verified-to-bound"

    @property
    def status(self) -> str:
        if self.witness is not None:
            return "refuted"
        if self.checked_bound < (1 if self.residue == 0 else 0):
            return "unchecked"
        return "verified-to-bound"

    # the record's keys in order: the fields, with the derived status
    # before the witness
    COLUMNS = ("t", "modulus", "residue", "checked_bound", "status", "witness")

    def to_record(self) -> dict:
        return {c: getattr(self, c) for c in self.COLUMNS}


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def legendre_nonresidue(x: int, p: int) -> bool:
    """True iff x is a quadratic non-residue modulo the prime p >= 5.

    Euler's criterion via modular exponentiation; x = 0 mod p is neither
    a residue nor a non-residue and returns False.
    """
    if p < 5 or any(p % f == 0 for f in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return pow(x, (p - 1) // 2, p) == p - 1


def qnr_residues(which: str, p: int) -> tuple[int, ...]:
    """Residues r in [1, p) whose shifted value is a non-residue mod p.

    For the t = 1 family the shifted value is 12r+1, for t = 3 it is
    3r+1; these are exactly the progressions pn + r the corollary checks
    cover.
    """
    shift = _characterization(which)[1]
    legendre_nonresidue(0, p)  # rejects p unless a prime >= 5: once, not once per r
    return tuple(r for r in range(1, p) if pow(shift * r + 1, (p - 1) // 2, p) == p - 1)


# which -> (t, shift): ptt_mod2_series(t) is odd at n iff shift*n + 1 is a square
_CHARACTERIZATIONS = {"p11": (1, 12), "p33": (3, 3)}


def _characterization(which: str) -> tuple[int, int]:
    if which not in _CHARACTERIZATIONS:
        raise ValueError(f"which must be 'p11' or 'p33', got {which!r}")
    return _CHARACTERIZATIONS[which]


# ---------------------------------------------------------------------------
# theorem sweeps
# ---------------------------------------------------------------------------


def _checked_bound(bound: int) -> int:
    # every sweep's bound, checked before anything of its size is allocated
    if bound < 2:
        raise ValueError("bound must be >= 2 so that at least index 1 is checked")
    return checked_mod2_order(bound)


def _class_witness(digits: str, modulus: int, r: int) -> int | None:
    # first n with an odd coefficient at index modulus*n + r >= 1, read from
    # the digit string of a Mod2 series: class r is its slice [r::modulus]
    n = digits[r::modulus].find("1", 0 if r else 1)
    return n if n >= 0 else None


def _sweep(theorem_id: str, rng: str, families: Iterable) -> VerificationReport:
    # families yields (digit string, modulus, residues, note) in check order;
    # a failure names the smallest odd index >= 1 of the first family that has one
    for digits, modulus, residues, note in families:
        witnesses = ((_class_witness(digits, modulus, r), r) for r in residues)
        n = min((modulus * w + r for w, r in witnesses if w is not None), default=None)
        if n is not None:
            where = f"{modulus}n + {n % modulus}{note}"
            return VerificationReport(theorem_id, rng, n, f"odd count at index {n} = {where}")
    return VerificationReport(theorem_id, rng)


def verify_characterization(which: str, bound: int) -> VerificationReport:
    """Compare the parity series against its closed-form predicate.

    For t = 1 the coefficient of q^n is odd iff 12n+1 is a perfect
    square; for t = 3 iff 3n+1 is.  Checked for every 1 <= n < bound by
    merging the increasing odd indices n >= 1 of the parity series with
    the increasing indices (r^2 - 1)/shift, r^2 = 1 mod shift, and
    stopping at the first difference, so no index set is held even when
    the series is wrong and dense; a failure names the smallest index in
    one list but not both.
    """
    t, shift = _characterization(which)
    _checked_bound(bound)
    theorem_id, rng = f"{which}-characterization", f"1 <= n < {bound}"
    roots = range(2, isqrt(shift * (bound - 1) + 1) + 1)
    predicted = ((r * r - 1) // shift for r in roots if r * r % shift == 1)
    odd = (n for n in nonzero_indices(ptt_mod2_series(t, bound)) if n)
    # the first pair that differs holds the smallest mismatch: the smaller
    # of the two (every index is below bound, the stand-in for "none left")
    for n, p in zip_longest(odd, predicted, fillvalue=bound):
        if n != p:
            m = min(n, p)
            detail = f"parity {int(m == n)} but predicate says {m == p}"
            return VerificationReport(theorem_id, rng, m, detail)
    return VerificationReport(theorem_id, rng)


def _add_part(counts: list[int], m: int) -> list[int]:
    # the counts of partitions, now also allowed parts m, in place: times
    # 1/(1 - q^m)
    for n in range(m, len(counts)):
        counts[n] += counts[n - m]
    return counts


def _drop_part(counts: list[int], m: int) -> list[int]:
    # the inverse of _add_part, in place: times (1 - q^m), so the counts of
    # partitions with parts m allowed become those with no part m
    for n in range(len(counts) - 1, m - 1, -1):
        counts[n] -= counts[n - m]
    return counts


def _add_shifted(total: list[int], counts: list[int], shift: int, times: int = 1) -> None:
    # total[n] += times * counts[n - shift] for every n >= shift, in place
    total[shift:] = [t + times * c for t, c in zip(total[shift:], counts)]


def _crank_rank_tallies(bound: int) -> list[tuple[int, int, int, int]]:
    # Entry n, 1 <= n <= bound, counts the partitions of n with crank >= 0,
    # mex_{1,1} odd, rank >= -1 and mex_{3,3} an odd multiple of 3 (entry 0
    # is all zeros), each from its definition; at_most[j] counts the
    # partitions into parts <= j, by weight.
    size = bound + 1
    empty = [1] + [0] * bound
    at_most = list(accumulate(range(1, size), lambda c, j: _add_part(c[:], j), initial=empty))
    p = at_most[-1]
    # mex_{s,s} = s*m: parts s, ..., s(m - 1) occur and s*m does not; less
    # one copy of each, a partition of n - s*m(m - 1)/2 with no part s*m
    mex11, mex33 = [0] * size, [0] * size
    for counts, step in ((mex11, 1), (mex33, 3)):
        for m in range(1, isqrt(2 * bound) + 2, 2):
            _add_shifted(counts, _drop_part(p[:], step * m), step * m * (m - 1) // 2)
    # crank >= 0: with no ones, every partition (its crank is its largest
    # part); with w >= 1 ones, those with j >= w parts > w.  Less w + 1
    # each, those j parts are a partition into at most j parts, counted as
    # its conjugate into parts <= j; the other parts lie in [2, w], `small`
    crank, small = _drop_part(p[:], 1), empty[:]
    for w in range(1, isqrt(bound) + 1):
        big = [0] * size
        for j in range(w, bound // (w + 1) + 1):
            _add_shifted(big, at_most[j], j * (w + 1))
        for x, a in enumerate(small):
            _add_shifted(crank, big, x + w, a)
        _add_part(small, w + 1)
    # rank >= -1 matches rank <= 1 by conjugation: k parts, the largest
    # <= k + 1; less its first column, a partition of n - k into at most k
    # parts <= k, counted by `box`, the coefficients of [2k choose k]_q =
    # [2k-2 choose k-1]_q (1 - q^(2k-1)) (1 - q^(2k)) / (1 - q^k)^2
    rank, box = [0] * size, empty[:]
    for k in range(1, size):
        _drop_part(_drop_part(box, 2 * k - 1), 2 * k)
        _add_part(_add_part(box, k), k)
        _add_shifted(rank, box, k)
    return [(0, 0, 0, 0)] + list(zip(crank, mex11, rank, mex33))[1:]


def verify_crank_rank(bound: int) -> VerificationReport:
    """Check the two enumeration equivalences by counting.

    For every 1 <= n <= bound: the mex count for (1,1) equals the number
    of partitions of n with crank >= 0, and the mex count for (3,3)
    equals the number with rank >= -1.  Each count comes from its
    statistic's definition through lists of partition counts by weight,
    with no generating function and no partition listed.  A bound past
    CRANK_RANK_CEILING raises LimitError before any table is built.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > CRANK_RANK_CEILING:
        raise LimitError(f"crank/rank bound {bound} exceeds the ceiling {CRANK_RANK_CEILING}")
    rng = f"1 <= n <= {bound}"
    tallies = _crank_rank_tallies(bound)
    for n in range(1, bound + 1):
        crank_count, mex11_count, rank_count, mex33_count = tallies[n]
        if mex11_count != crank_count:
            return VerificationReport("crank-rank-equivalence", rng, n, "crank side mismatch")
        if mex33_count != rank_count:
            return VerificationReport("crank-rank-equivalence", rng, n, "rank side mismatch")
    return VerificationReport("crank-rank-equivalence", rng)


def verify_odd_progression(bound: int) -> VerificationReport:
    """Every odd-index coefficient of the t = 1 parity series is even."""
    digits = ptt_mod2_series(1, _checked_bound(bound)).digits
    return _sweep("p11-odd-progression", f"odd n < {bound}", [(digits, 2, (1,), "")])


def verify_qnr_families(which: str, bound: int) -> VerificationReport:
    """Quadratic non-residue progressions have all-even counts.

    For each prime p in QNR_PRIMES and each residue r picked out by
    qnr_residues, every index pn + r below the bound must carry an even
    coefficient.
    """
    digits = ptt_mod2_series(_characterization(which)[0], _checked_bound(bound)).digits
    families = ((digits, p, qnr_residues(which, p), "") for p in QNR_PRIMES)
    rng = f"p in {list(QNR_PRIMES)}, indices < {bound}"
    return _sweep(f"{which}-qnr-families", rng, families)


def verify_power4_families(bound: int) -> VerificationReport:
    """The three power-of-4 progression families for t = 3 are all even.

    For each 0 <= m <= POWER4_MAX_M the progressions
    4^(m+1) n + (7*4^m - 1)/3, 4^(m+1) n + (10*4^m - 1)/3 and
    2*4^(m+1) n + (13*4^m - 1)/3 must have even coefficients at every
    index below the bound.  The families stop at the first m whose
    smallest residue, (7*4^m - 1)/3, is >= bound: from there on no family
    has an index below it.
    """
    digits = ptt_mod2_series(3, _checked_bound(bound)).digits
    families = (
        (digits, modulus, ((k * 4**m - 1) // 3,), f" (m={m})")
        for m in takewhile(lambda m: (7 * 4**m - 1) // 3 < bound, range(POWER4_MAX_M + 1))
        for modulus, k in ((4 ** (m + 1), 7), (4 ** (m + 1), 10), (2 * 4 ** (m + 1), 13))
    )
    return _sweep("p33-power4-families", f"0 <= m <= {POWER4_MAX_M}, indices < {bound}", families)


def _residue_families(theorem_id: str, series_of, bound: int) -> VerificationReport:
    # the THEOREM6_RESIDUES classes mod 2t of series_of(t, bound), t ascending
    _checked_bound(bound)
    families = (
        (series_of(t, bound).digits, 2 * t, THEOREM6_RESIDUES[t], f" (t={t})")
        for t in sorted(THEOREM6_RESIDUES)
    )
    rng = f"t in {sorted(THEOREM6_RESIDUES)}, indices < {bound}"
    return _sweep(theorem_id, rng, families)


def verify_theorem6(bound: int) -> VerificationReport:
    """Re-check the seven proved residue families on the parity series."""
    return _residue_families("theorem6-progressions", ptt_mod2_series, bound)


def verify_tcore_congruences(bound: int) -> VerificationReport:
    """The same residue families hold for the t-core counting series.

    These are the inputs the dissection identity transfers; checking them
    directly on the t-core side is independent of the mex series.
    """
    return _residue_families("tcore-progressions", acore_mod2_series, bound)


def _divisor_sums(order: int) -> list[int]:
    # sigma(n) at index n < order, the series S = -q (q;q)'/(q;q): factor
    # 1 - q^m adds m at every multiple of m (about order ln order updates)
    s = [0] * order
    for m in range(1, order):
        s[m::m] = [v + m for v in s[m::m]]
    return s


def _log_product(s: list[int], a: int, b: int) -> list[int]:
    # P = (q;q)^a (q^2;q^2)^b to the order of the divisor sums s, from P_0 = 1
    # and L = q P'/P = -a S(q) - 2b S(q^2): n P_n = conv_n for conv = L * P,
    # which reads only P below n as L_0 = 0.  One slice pass per nonzero P_n,
    # about order^1.5 updates for a lacunary P; the division is exact.
    log_derivative = [-a * v for v in s]
    log_derivative[::2] = [v - 2 * b * w for v, w in zip(log_derivative[::2], s)]
    p, conv = [0] * len(s), [0] * len(s)
    for n in range(len(s)):
        p[n] = c = conv[n] // n if n else 1
        if c:
            conv[n:] = [v + c * w for v, w in zip(conv[n:], log_derivative)]
    return p


def _identity_report(theorem_id: str, order: int, closed, product) -> VerificationReport:
    n = next((i for i, (c, p) in enumerate(zip(closed, product)) if c != p), None)
    detail = "" if n is None else f"coefficients differ at q^{n}: {closed[n]} vs {product[n]}"
    return VerificationReport(theorem_id, f"0 <= n < {order}", n, detail)


def verify_series_identities(order: int) -> list[VerificationReport]:
    """Classical expansions vs the Euler products, over the integers.

    The pentagonal-number sum against (q;q), the signed (2n+1)-weighted
    triangular sum against (q;q)^3, and the triangular indicator psi
    against (q^2;q^2)^2 / (q;q); each coefficientwise through `order`, and
    a failure's detail gives the closed form's coefficient, then the
    product's.  Each product is rebuilt from its logarithmic derivative,
    summed factor by factor from the (1 - q^m) independently of every
    closed form, in about order^1.5 coefficient updates.
    An order below 1 raises ValueError and one above IDENTITY_CEILING
    OrderLimitError, before anything is built.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > IDENTITY_CEILING:
        raise OrderLimitError(f"identity order {order} exceeds the ceiling {IDENTITY_CEILING}")
    s = _divisor_sums(order)
    euler, cube, psi = (_log_product(s, a, b) for a, b in ((1, 0), (3, 0), (-1, 2)))
    return [
        _identity_report("euler-pentagonal-identity", order, euler_pentagonal(order).coeffs, euler),
        _identity_report("jacobi-cube-identity", order, jacobi_cube(order).coeffs, cube),
        _identity_report("theta-psi-identity", order, theta_psi(order).coeffs, psi),
    ]


def verify_dissection_identities(order: int) -> VerificationReport:
    """Run dissection_identity_check once per t in DISSECTION_TS, t
    ascending; a failure names the smallest failing residue r < 2t of the
    first failing t."""
    rng = f"t in {list(DISSECTION_TS)}, r < 2t, order {order}"
    for t in DISSECTION_TS:
        failing = dissection_identity_check(t, order)
        if failing:
            r = failing[0]
            return VerificationReport("dissection-identity", rng, r, f"residue {r} fails for t={t}")
    return VerificationReport("dissection-identity", rng)


def scan_congruences(t: int, modulus: int, bound: int) -> list[CongruenceClaim]:
    """Empirical parity scan over all residue classes mod `modulus`.

    Returns one claim per residue j: refuted with the first witness n
    such that the coefficient at modulus*n + j is odd (index 0 excluded),
    unchecked when no index >= 1 of the class lies inside the window, or
    verified-to-bound otherwise.  checked_bound is the largest n whose
    index was inside the window (negative when there is none).  Class j
    is the slice [j::modulus] of the series' digit string, formed once.
    A modulus above SCAN_MODULUS_CEILING raises LimitError before
    anything is built.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if modulus > SCAN_MODULUS_CEILING:
        raise LimitError(f"scan modulus {modulus} exceeds the ceiling {SCAN_MODULUS_CEILING}")
    digits = ptt_mod2_series(t, _checked_bound(bound)).digits
    return [
        CongruenceClaim(t, modulus, j, (bound - 1 - j) // modulus, _class_witness(digits, modulus, j))
        for j in range(modulus)
    ]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def run_suite(name: str, bound: int) -> list[VerificationReport]:
    """Run one named verification suite at the given bound.

    Three sweeps are clamped so that a single large bound remains a
    one-knob interface: crank-rank to CRANK_RANK_CEILING (n <= 45),
    the integer series identities to order IDENTITY_CEILING (10^4) and
    the dissection identity to order DISSECTION_ORDER (500).  Each
    report's range shows the clamped value.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    _checked_bound(bound)
    reports: list[VerificationReport] = []
    if name in ("all", "p11"):
        reports.append(verify_characterization("p11", bound))
    if name in ("all", "p33"):
        reports.append(verify_characterization("p33", bound))
    if name in ("all", "crank-rank"):
        reports.append(verify_crank_rank(min(bound, CRANK_RANK_CEILING)))
    if name in ("all", "theorem6"):
        reports.append(verify_theorem6(bound))
        reports.append(verify_tcore_congruences(bound))
    if name in ("all", "corollaries", "p11"):
        reports.append(verify_odd_progression(bound))
        reports.append(verify_qnr_families("p11", bound))
    if name in ("all", "corollaries", "p33"):
        reports.append(verify_power4_families(bound))
        reports.append(verify_qnr_families("p33", bound))
    if name in ("all", "identities"):
        reports.extend(verify_series_identities(min(bound, IDENTITY_CEILING)))
        reports.append(verify_dissection_identities(min(bound, DISSECTION_ORDER)))
    return reports
