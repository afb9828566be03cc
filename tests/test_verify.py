import copy
import inspect
import pickle
import tracemalloc
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from mexparity import genfun, series, verify
from mexparity.errors import LimitError, OrderLimitError
from mexparity.genfun import acore_mod2_series, ptt_mod2_series, ptt_series
from mexparity.partitions import (
    MexSpec,
    crank,
    p_direct,
)
from mexparity.series import (
    MOD2_ORDER_CEILING,
    TruncatedSeries,
    euler_pentagonal,
    jacobi_cube,
    theta_psi,
)
from mexparity.verify import (
    CongruenceClaim,
    SUITES,
    THEOREM6_RESIDUES,
    VerificationReport,
    legendre_nonresidue,
    qnr_residues,
    run_suite,
    scan_congruences,
    verify_characterization,
    verify_crank_rank,
    verify_dissection_identities,
    verify_odd_progression,
    verify_power4_families,
    verify_qnr_families,
    verify_series_identities,
    verify_tcore_congruences,
    verify_theorem6,
)
from oracles import (
    crank_rank_tallies_by_partition,
    euler_product_by_factors,
    gf2_series,
    literal_euler_product,
    log_product_by_rows,
    partition_counts,
    pent_type_by_search,
    product_form,
    schoolbook_mul,
    square_3n1_by_search,
)

CHECKERS = {
    "p11": lambda bound: verify_characterization("p11", bound),
    "p33": lambda bound: verify_characterization("p33", bound),
    "odd-progression": verify_odd_progression,
    "qnr": lambda bound: verify_qnr_families("p11", bound),
    "power4": verify_power4_families,
    "theorem6": verify_theorem6,
    "tcore": verify_tcore_congruences,
}


def planted(odd_by_t):
    """Stand-in for a parity series function: odd exactly at the listed
    indices of odd_by_t[t], even everywhere for other t."""

    def series(t, order):
        odd = odd_by_t.get(t, ())
        return TruncatedSeries(sum(1 << n for n in odd if n < order), order)

    return series


@lru_cache(maxsize=None)
def factor_oracle(step):
    """The factor-by-factor product at order 300, the largest order drawn;
    its prefix is the same product truncated at any lower order."""
    return tuple(euler_product_by_factors(step, 300))


def first_index(modulus, residue):
    """The smallest index n >= 1 with n = residue mod modulus."""
    return residue % modulus or modulus


def catalog_families():
    """(name, modulus, residue) of every progression the catalog's family
    reports cover, from the paper's formulas: the odd indices, the power-of-4
    families for m <= 6, the p11 and p33 QNR families for primes 5 <= p <= 17
    (the r in [1, p) with 12r + 1, resp. 3r + 1, a non-residue by Euler's
    criterion), and the Theorem 6 classes mod 2t."""
    families = [("odd", 2, 1)]
    for m in range(7):
        for modulus, k in ((4 ** (m + 1), 7), (4 ** (m + 1), 10), (2 * 4 ** (m + 1), 13)):
            families.append((f"power4 m={m} k={k}", modulus, (k * 4**m - 1) // 3))
    for which, shift in (("p11", 12), ("p33", 3)):
        for p in (5, 7, 11, 13, 17):
            residues = [r for r in range(1, p) if pow(shift * r + 1, (p - 1) // 2, p) == p - 1]
            assert len(residues) == (p - 1) // 2
            families.extend((f"{which} p={p}", p, r) for r in residues)
    for t, residues in THEOREM6_RESIDUES.items():
        families.extend((f"theorem6 t={t}", 2 * t, r) for r in residues)
    return families


class TestPredicates:
    # the characterizations' predicates, read off the parity series: the
    # coefficient of q^n is odd iff n is of pentagonal type (t = 1) or 3n+1
    # is a square (t = 3)
    def test_pent_type_examples(self):
        s = ptt_mod2_series(1, 71).coeffs
        assert s[2] == 1
        assert s[1] == 0
        assert s[70] == 1  # 12*70 + 1 = 29^2

    @given(st.integers(1, 3000))
    def test_pent_type_matches_search(self, n):
        assert ptt_mod2_series(1, 3001).coeffs[n] == pent_type_by_search(n)

    def test_square_3n1_examples(self):
        s = ptt_mod2_series(3, 17).coeffs
        assert s[5] == 1
        assert s[2] == 0
        assert s[16] == 1  # 3*16 + 1 = 7^2


class TestLegendre:
    def test_examples(self):
        assert legendre_nonresidue(3, 5)
        assert not legendre_nonresidue(4, 5)
        assert not legendre_nonresidue(25, 5)  # multiple of p: neither kind

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre_nonresidue(2, 6)
        with pytest.raises(ValueError):
            legendre_nonresidue(2, 3)

    @pytest.mark.parametrize("p", [9, 15, 21, 25, 35, 49, 121, 143, 169])
    def test_rejects_odd_composites(self, p):
        with pytest.raises(ValueError, match="prime"):
            legendre_nonresidue(2, p)

    def test_accepts_exactly_the_primes_below_200(self):
        sieve = [True] * 200
        for f in range(2, 15):
            sieve[f * f :: f] = [False] * len(sieve[f * f :: f])
        for p in range(5, 200):
            if sieve[p]:
                legendre_nonresidue(2, p)
            else:
                with pytest.raises(ValueError):
                    legendre_nonresidue(2, p)

    @given(st.sampled_from([5, 7, 11, 13, 17, 19]), st.integers(0, 400))
    def test_matches_exhaustive_squares(self, p, x):
        squares = {(y * y) % p for y in range(p)}
        assert legendre_nonresidue(x, p) == (x % p != 0 and x % p not in squares)

    def test_qnr_residues_test_primality_once(self, monkeypatch):
        # trial division runs isqrt once per primality test: once for the
        # 1,008 residues of p = 1009, not once per residue
        calls = []

        def counting_isqrt(n):
            calls.append(n)
            return isqrt(n)

        monkeypatch.setattr(verify, "isqrt", counting_isqrt)
        for which, shift in (("p11", 12), ("p33", 3)):
            calls.clear()
            residues = qnr_residues(which, 1009)
            assert residues == tuple(r for r in range(1, 1009) if pow(shift * r + 1, 504, 1009) == 1008)
            assert calls == [1009], len(calls)

    def test_qualifying_residues(self):
        assert qnr_residues("p11", 5) == (1, 3)
        assert qnr_residues("p33", 5) == (2, 4)
        nonres7 = {3, 5, 6}
        assert qnr_residues("p33", 7) == tuple(
            r for r in range(1, 7) if (3 * r + 1) % 7 in nonres7
        )


class TestReportTypes:
    def test_report_invariant(self):
        # a report passes exactly when it records no counterexample, whatever
        # its detail: the flag is read off the counterexample, not stored
        failed, passed = VerificationReport("x", "n < 5", 3), VerificationReport("x", "n < 5")
        assert (failed.passed, passed.passed) == (False, True)
        assert not VerificationReport("x", "n < 5", 0).passed
        assert VerificationReport("x", "n < 5", detail="d").passed
        assert VerificationReport._fields == ("theorem_id", "range", "counterexample", "detail")
        for report in (failed, passed):
            for twin in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
                assert twin == report and twin.passed == report.passed
            assert list(report.to_record()) == list(VerificationReport.COLUMNS)

    def test_reports_are_immutable_records(self):
        report = VerificationReport(theorem_id="x", range="n < 5", counterexample=3, detail="d")
        assert report == VerificationReport("x", "n < 5", 3, "d")
        assert pickle.loads(pickle.dumps(report)) == report
        assert list(report.to_record().items()) == [
            ("theorem_id", "x"), ("range", "n < 5"), ("passed", False),
            ("counterexample", 3), ("detail", "d")]
        claim = CongruenceClaim(t=5, modulus=10, residue=3, checked_bound=9, witness=0)
        assert list(claim.to_record().items()) == [
            ("t", 5), ("modulus", 10), ("residue", 3), ("checked_bound", 9),
            ("status", "refuted"), ("witness", 0)]
        for value, field in [(report, "passed"), (claim, "witness")]:
            with pytest.raises(AttributeError):
                setattr(value, field, None)

    def test_claim_validation(self):
        with pytest.raises(ValueError):
            CongruenceClaim(1, 0, 0, 10)
        with pytest.raises(ValueError):
            CongruenceClaim(1, 4, 4, 10)
        claim = CongruenceClaim(5, 10, 2, 99)
        assert claim.verified and claim.status == "verified-to-bound"
        refuted = CongruenceClaim(5, 10, 0, 99, witness=0)
        assert not refuted.verified and refuted.status == "refuted"


class TestCharacterizations:
    def test_p11_small_window(self):
        report = verify_characterization("p11", 5)
        assert report.passed
        s = ptt_mod2_series(1, 5).coeffs
        assert [n for n in range(1, 5) if s[n]] == [2, 4]

    def test_both_at_moderate_bound(self):
        assert verify_characterization("p11", 3000).passed
        assert verify_characterization("p33", 3000).passed

    def test_predicates_match_enumeration_parity(self):
        for n in range(1, 36):
            assert p_direct(MexSpec(1, 1), n) % 2 == pent_type_by_search(n)
            assert p_direct(MexSpec(3, 3), n) % 2 == square_3n1_by_search(n)

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            verify_characterization("p55", 10)


@lru_cache(maxsize=None)
def tallies_by_partition(n):
    # the four counts at weight n through the public crank, rank and mex
    return crank_rank_tallies_by_partition(n)


class TestCrankRank:
    def test_small_bound_passes(self):
        report = verify_crank_rank(14)
        assert report.passed
        assert report.counterexample is None

    def test_n1_edge(self):
        # no partition of 1 qualifies on either side: (1,) has crank -1 and
        # mex_{1,1} = 2
        assert p_direct(MexSpec(1, 1), 1) == 0
        assert verify_crank_rank(1).passed
        assert verify_crank_rank(2).passed

    def test_tallies_equal_the_per_weight_route(self):
        # the table the CLI reads, compared at every weight with enumeration
        tallies = verify._crank_rank_tallies(verify.CRANK_RANK_CEILING)
        assert tallies[0] == (0, 0, 0, 0)
        for n in range(1, verify.CRANK_RANK_CEILING + 1):
            assert tallies[n] == tallies_by_partition(n), n

    @pytest.mark.parametrize("bound", range(1, verify.CRANK_RANK_CEILING + 1))
    def test_tallies_to_each_bound_are_the_ceiling_rows(self, bound):
        # a smaller bound builds the same rows, none more and none cut short
        # at the end, so each row equals the per-weight route above
        tallies = verify._crank_rank_tallies(bound)
        assert len(tallies) == bound + 1
        assert tallies == verify._crank_rank_tallies(verify.CRANK_RANK_CEILING)[: bound + 1]
        assert tallies[bound] == tallies_by_partition(bound)

    def test_counts_past_the_enumeration_range(self):
        # the tables take any bound, the ceiling is verify_crank_rank's: to
        # n = 200 both equivalences hold, and the mex columns are the
        # coefficients of the generating functions
        tallies = verify._crank_rank_tallies(200)
        crank_count, mex11_count, rank_count, mex33_count = map(list, zip(*tallies))
        assert crank_count == mex11_count
        assert rank_count == mex33_count
        assert mex11_count[1:] == list(ptt_series(1, 201)[1:])
        assert mex33_count[1:] == list(ptt_series(3, 201)[1:])

    def test_ceiling_enforced(self):
        # a huge bound must fail at the ceiling, before any table
        for bound in (46, 10**15):
            with pytest.raises(LimitError, match=f"crank/rank bound {bound} exceeds the ceiling 45"):
                verify_crank_rank(bound)

    def test_ceiling_is_checked_before_any_table(self, monkeypatch):
        def no_build(bound):
            raise AssertionError("a table was built past the ceiling")

        monkeypatch.setattr(verify, "_crank_rank_tallies", no_build)
        with pytest.raises(LimitError) as raised:
            verify_crank_rank(verify.CRANK_RANK_CEILING + 1)
        assert str(raised.value) == "crank/rank bound 46 exceeds the ceiling 45"

    @staticmethod
    def plant(monkeypatch, stat, wrong):
        # tally `stat` (0 crank >= 0, 2 rank >= -1) at weight n replaced by
        # wrong(n, count), in what verify_crank_rank reads
        real = verify._crank_rank_tallies

        def planted(bound):
            return [t[:stat] + (wrong(n, t[stat]),) + t[stat + 1 :] for n, t in enumerate(real(bound))]

        monkeypatch.setattr(verify, "_crank_rank_tallies", planted)

    def test_crank_side_failure_is_reported(self, monkeypatch):
        # no crank >= 0 anywhere, while p_{1,1}(1) = 0 and p_{1,1}(2) = 1
        self.plant(monkeypatch, 0, lambda n, count: 0)
        report = verify_crank_rank(10)
        assert (report.passed, report.counterexample) == (False, 2)
        assert report.detail == "crank side mismatch"

    def test_rank_side_failure_is_reported(self, monkeypatch):
        # no rank >= -1 anywhere, while p_{3,3}(1) = 1
        self.plant(monkeypatch, 2, lambda n, count: 0)
        report = verify_crank_rank(10)
        assert (report.passed, report.counterexample) == (False, 1)
        assert report.detail == "rank side mismatch"

    @pytest.mark.parametrize("planted", [(2, 2), (3, 1)])
    def test_one_failing_partition_is_reported(self, monkeypatch, planted):
        # a partition of 4 with crank >= 0, left out of the crank count,
        # must unbalance n = 4 alone
        assert crank(planted) >= 0
        self.plant(monkeypatch, 0, lambda n, count: count - (n == sum(planted)))
        report = verify_crank_rank(10)
        assert (report.passed, report.counterexample) == (False, 4)
        assert report.detail == "crank side mismatch"


class TestProgressionFamilies:
    def test_odd_progression(self):
        assert verify_odd_progression(4000).passed

    def test_qnr_families(self):
        assert verify_qnr_families("p11", 4000).passed
        assert verify_qnr_families("p33", 4000).passed

    def test_power4_families(self):
        assert verify_power4_families(4000).passed

    def test_checkers_take_no_family_argument(self):
        # the families are the module's constants, not parameters
        signatures = {
            verify_qnr_families: ["which", "bound"],
            verify_power4_families: ["bound"],
            verify_dissection_identities: ["order"],
        }
        for checker, params in signatures.items():
            assert list(inspect.signature(checker).parameters) == params, checker.__name__

    def test_families_beyond_the_defaults_hold(self):
        # evidence at 10^5 for the larger families a larger bound would add,
        # read as slices of the digit strings: m = 7 is the largest m with an
        # index below 10^5, (7 * 4^7 - 1) / 3 = 38229, and every prime
        # 5 <= p < 200 for both QNR corollaries; no residue is 0, so index 0
        # is never read
        assert (7 * 4**7 - 1) // 3 < 10**5 < (7 * 4**8 - 1) // 3
        digits = ptt_mod2_series(3, 10**5).digits
        for modulus, k in ((4**8, 7), (4**8, 10), (2 * 4**8, 13)):
            r = (k * 4**7 - 1) // 3
            assert r < 10**5 and "1" not in digits[r::modulus], (modulus, r)
        primes = tuple(p for p in range(5, 200) if all(p % f for f in range(2, isqrt(p) + 1)))
        assert len(primes) == 44
        for which, t in (("p11", 1), ("p33", 3)):
            digits = ptt_mod2_series(t, 10**5).digits
            for p in primes:
                for r in qnr_residues(which, p):
                    assert "1" not in digits[r::p], (which, p, r)

    def test_power4_offsets_are_integral(self):
        for m in range(8):
            assert (7 * 4**m - 1) % 3 == 0
            assert (10 * 4**m - 1) % 3 == 0
            assert (13 * 4**m - 1) % 3 == 0

    @pytest.mark.parametrize("bound", [10**5, 10**6])
    def test_every_catalog_family_has_an_index_below_the_bound(self, bound):
        # the benchmark's catalog runs at 10^5 and CI's at 10^6; a family with
        # no index n >= 1 below the bound would pass without being checked
        assert verify.POWER4_MAX_M == 6
        assert verify.QNR_PRIMES == (5, 7, 11, 13, 17)
        unreached = [f for f in catalog_families() if first_index(*f[1:]) >= bound]
        assert unreached == []

    def test_every_power4_family_is_reached_from_17750(self):
        firsts = {f: first_index(*f[1:]) for f in catalog_families() if f[0].startswith("power4")}
        assert len(firsts) == 21
        last = max(firsts, key=firsts.get)
        assert last == ("power4 m=6 k=13", 2 * 4**7, 17749)
        assert max(firsts.values()) + 1 == 17750

    def test_theorem6_small(self):
        assert verify_theorem6(2500).passed

    def test_theorem6_spot_value(self):
        # t=7, residue 9: the n=9 coefficient must be even
        s = ptt_mod2_series(7, 20)
        assert s.digits[9] == "0"
        assert p_direct(MexSpec(7, 7), 9) % 2 == 0

    def test_tcore_congruences_small(self):
        assert verify_tcore_congruences(2500).passed


class TestSweepContract:
    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_bound_below_two_is_rejected(self, name):
        # the window 1 <= n < 1 checks nothing and must not pass
        with pytest.raises(ValueError):
            CHECKERS[name](1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: CongruenceClaim(5, 10, 2, 9, witness=-1),
            lambda: verify_crank_rank(0),
        ],
        ids=["negative-witness", "crank-rank-bound-0"],
    )
    def test_out_of_range_arguments_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    def test_characterization_reports_lowest_mismatch(self, monkeypatch):
        # predicate for t = 1 below 100: n in {2, 4, 10, 14, 24, ...}
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({1: {0, 2, 3, 4, 10}}))
        report = verify_characterization("p11", 100)
        assert (report.counterexample, report.detail) == (3, "parity 1 but predicate says False")
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({1: {0, 2, 4, 10}}))
        report = verify_characterization("p11", 100)
        assert (report.counterexample, report.detail) == (14, "parity 0 but predicate says True")

    def test_characterization_memory_on_a_dense_wrong_series(self, monkeypatch):
        # odd at two of every three indices: a set of its 666,667 odd indices
        # took about 53 MB; the merge stops at the first mismatch, index 3,
        # and holds little beyond the 1 MB digit string
        order = 10**6
        dense = gf2_series("101" * (order // 3) + "1")
        monkeypatch.setattr(verify, "ptt_mod2_series", lambda t, bound: dense)
        tracemalloc.start()
        try:
            report = verify_characterization("p11", order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.counterexample, report.detail) == (3, "parity 1 but predicate says False")
        assert peak < 4_000_000

    @pytest.mark.parametrize("which, t, shift", [("p11", 1, 12), ("p33", 3, 3)])
    def test_characterization_reaches_the_top_of_the_window(self, monkeypatch, which, t, shift):
        # every bound up to 300 passes, so each predicted index (2, 4, 10, ...
        # for p11; 1, 5, 8, ... for p33) is checked when it is bound - 1, and
        # a parity flipped at bound - 1 is reported there
        for bound in range(2, 301):
            assert verify_characterization(which, bound).passed, bound
        for bound in range(2, 301):
            odd = {n for n in range(bound) if isqrt(shift * n + 1) ** 2 == shift * n + 1}
            top = bound - 1
            monkeypatch.setattr(verify, "ptt_mod2_series", planted({t: odd ^ {top}}))
            report = verify_characterization(which, bound)
            want = f"parity {int(top not in odd)} but predicate says {top in odd}"
            assert (report.counterexample, report.detail) == (top, want)

    def test_odd_progression_reports_smallest_odd_index(self, monkeypatch):
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({1: {0, 2, 9, 5}}))
        report = verify_odd_progression(100)
        assert (report.counterexample, report.detail) == (5, "odd count at index 5 = 2n + 1")

    def test_qnr_reports_smallest_index_of_first_failing_prime(self, monkeypatch):
        # p11 non-residue classes: 1, 3 mod 5 and 1, 5, 6 mod 7; 5 is smaller
        # but lies only in a class mod 7, and 5 is checked first
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({1: {0, 2, 5, 13, 11}}))
        report = verify_qnr_families("p11", 100)
        assert (report.counterexample, report.detail) == (11, "odd count at index 11 = 5n + 1")

    def test_power4_reports_smallest_index_of_first_failing_family(self, monkeypatch):
        # families in order: 4n+2, 4n+3, 8n+4, then 16n+9, 16n+13, 32n+17;
        # 13 lies in a later family than 25 = 16 + 9
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({3: {0, 1, 13, 25, 41}}))
        report = verify_power4_families(100)
        assert report.counterexample == 25
        assert report.detail == "odd count at index 25 = 16n + 9 (m=1)"

    def test_class_with_modulus_above_the_bound_is_still_checked(self, monkeypatch):
        # 128n + 69 (m=2) has its modulus above the bound 100 but residue 69
        # below it; the m=3 classes mod 256 start at 149 and hold no index
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({3: {0, 69}}))
        report = verify_power4_families(100)
        assert report.counterexample == 69
        assert report.detail == "odd count at index 69 = 128n + 69 (m=2)"
        assert verify_power4_families(69).passed

    def test_class_mask_is_no_wider_than_the_series(self):
        # the m = 12 moduli are 4^13 and 2 * 4^13: a class mask that many
        # bits wide is 16 MB, and building it peaked at about 43 MB; a class
        # read as a slice of the digit string is never longer than the series
        digits = ptt_mod2_series(3, 1000).digits
        m = 12
        families = [
            (digits, modulus, ((k * 4**m - 1) // 3,), f" (m={m})")
            for modulus, k in ((4 ** (m + 1), 7), (4 ** (m + 1), 10), (2 * 4 ** (m + 1), 13))
        ]
        tracemalloc.start()
        try:
            assert verify._sweep("p33-power4-families", "m = 12, indices < 1000", families).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("bound, built", [(1000, 15), (10**5, 21)])
    def test_power4_families_stop_at_the_bound(self, monkeypatch, bound, built):
        # the m <= 4 families have an index below 1000, (7 * 4^5 - 1) / 3 =
        # 2389 does not; at 10^5 all 3 * (POWER4_MAX_M + 1) = 21 are built
        sweep, received = verify._sweep, []

        def counting(theorem_id, rng, families):
            families = list(families)
            received.extend(families)
            return sweep(theorem_id, rng, families)

        monkeypatch.setattr(verify, "_sweep", counting)
        report = verify_power4_families(bound)
        assert report.passed and report.range == f"0 <= m <= 6, indices < {bound}"
        assert len(received) == built

    def test_theorem6_reports_first_counterexample(self, monkeypatch):
        # t = 5 lists residues (2, 6) mod 10: 12 = 10 + 2 comes first in the
        # list, 6 = 0 + 6 is the first counterexample
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({5: {0, 6, 12}}))
        report = verify_theorem6(100)
        assert (report.counterexample, report.detail) == (6, "odd count at index 6 = 10n + 6 (t=5)")

    def test_witness_at_the_last_index_is_found(self, monkeypatch):
        # the class read must reach index bound - 1: 96 = 9 * 10 + 6
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({5: {0, 96}}))
        report = verify_theorem6(97)
        assert (report.counterexample, report.detail) == (96, "odd count at index 96 = 10n + 6 (t=5)")

    @given(st.data(), st.integers(1, 600))
    def test_first_odd_is_the_smallest_odd_index_in_the_classes(self, data, order):
        # _sweep over one family against an oracle that reads coefficient by
        # coefficient; the modulus is drawn from 1..40 or above the order,
        # where no class repeats
        s = TruncatedSeries(data.draw(st.integers(0, 2**order - 1)), order)
        modulus = data.draw(st.one_of(st.integers(1, 40), st.integers(order + 1, 2 * order + 1)))
        residues = data.draw(st.sets(st.integers(0, modulus - 1), min_size=1))
        want = next(
            (n for n in range(1, order) if n % modulus in residues and s.bits >> n & 1), None
        )
        report = verify._sweep("family", "indices < order", [(s.digits, modulus, sorted(residues), "")])
        assert report.counterexample == want

    def test_tcore_reports_first_counterexample(self, monkeypatch):
        monkeypatch.setattr(verify, "acore_mod2_series", planted({7: {0, 23, 13}}))
        report = verify_tcore_congruences(100)
        assert report.counterexample == 13
        assert report.detail == "odd count at index 13 = 14n + 13 (t=7)"


def rebuilt_product(a, b, order):
    """(q;q)^a (q^2;q^2)^b through q^(order-1), as the identity suite
    rebuilds it from the divisor sums."""
    return verify._log_product(verify._divisor_sums(order), a, b)


@lru_cache(maxsize=None)
def literal_products():
    """(q;q), (q;q)^3 and (q^2;q^2)^2 / (q;q) at order 300, from the
    largest-factor-first literal product and the partition counts, the
    coefficients of 1/(q;q); prefixes are the products at any lower order."""
    euler = literal_euler_product(300)
    euler2 = [0] * 300
    euler2[::2] = euler[:150]
    euler2_squared = schoolbook_mul(euler2, euler2, 300)
    return (
        euler,
        schoolbook_mul(euler, schoolbook_mul(euler, euler, 300), 300),
        schoolbook_mul(euler2_squared, partition_counts(300), 300),
    )


IDENTITY_FORMS = {
    euler_pentagonal: "euler-pentagonal-identity",
    jacobi_cube: "jacobi-cube-identity",
    theta_psi: "theta-psi-identity",
}

# (order, index, delta): one coefficient below the order bumped by delta,
# with index 0 and order - 1 drawn as well as any index between
BUMPS = st.integers(1, 300).flatmap(
    lambda order: st.tuples(
        st.just(order),
        st.sampled_from([0, order - 1]) | st.integers(0, order - 1),
        st.sampled_from([-2, -1, 1, 2]),
    )
)


class TestIdentitySuites:
    @pytest.fixture
    def no_build(self, monkeypatch):
        def fail(order):
            raise AssertionError("the divisor sums were built for a rejected order")

        monkeypatch.setattr(verify, "_divisor_sums", fail)

    def test_order_past_the_ceiling_raises_before_building(self, no_build):
        with pytest.raises(OrderLimitError, match=f"ceiling {verify.IDENTITY_CEILING}"):
            verify_series_identities(verify.IDENTITY_CEILING + 1)

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_raises_before_building(self, no_build, order):
        with pytest.raises(ValueError, match="order must be >= 1"):
            verify_series_identities(order)

    def test_series_identities(self):
        reports = verify_series_identities(500)
        assert [r.theorem_id for r in reports] == [
            "euler-pentagonal-identity",
            "jacobi-cube-identity",
            "theta-psi-identity",
        ]
        assert all(r.passed for r in reports)

    @given(st.integers(1, 300))
    def test_rebuilt_product_matches_factor_oracle(self, order):
        assert tuple(rebuilt_product(1, 0, order)) == factor_oracle(1)[:order]
        assert tuple(literal_euler_product(order)) == factor_oracle(1)[:order]

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1000])
    def test_products_at_window_edges_and_above_the_drawn_range(self, order):
        # the literal product's factor m updates q^m and [2m + 1, order): 9 to
        # 12 put the lowest window edges at and just past the top of the series
        want = euler_product_by_factors(1, order)
        assert literal_euler_product(order) == want
        assert rebuilt_product(1, 0, order) == want
        assert verify._divisor_sums(order)[1:] == [
            sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, order)
        ]

    def test_rebuilt_product_uses_no_closed_form(self, monkeypatch):
        def closed_form(*args):
            raise AssertionError("the rebuilt product reached a closed form")

        for name in ("euler_product", "euler_pentagonal", "jacobi_cube", "theta_psi", "_from_terms"):
            monkeypatch.setattr(series, name, closed_form)
        for name in ("euler_pentagonal", "jacobi_cube", "theta_psi"):
            monkeypatch.setattr(verify, name, closed_form)
        assert tuple(rebuilt_product(1, 0, 200)) == factor_oracle(1)[:200]
        assert tuple(rebuilt_product(0, 1, 200)) == factor_oracle(2)[:200]

    @given(
        st.integers(1, 300) | st.sampled_from([63, 64, 65, 127, 128, 129]),
        st.integers(-4, 4),
        st.integers(-4, 4),
    )
    def test_packed_slots_match_the_running_array(self, order, a, b):
        # orders 63 to 65 and 127 to 129 end the slots just before, on and
        # just after the edge of a block of 64; from order 64 on, some dense
        # products (a < 0) outgrow 64-bit slots, and at 300 some outgrow 128
        s = verify._divisor_sums(order)
        assert verify._log_product(s, a, b) == log_product_by_rows(s, a, b)

    def test_suite_products_at_the_ceiling_match_the_running_array(self):
        s = verify._divisor_sums(verify.IDENTITY_CEILING)
        for a, b in ((1, 0), (3, 0), (-1, 2)):
            assert verify._log_product(s, a, b) == log_product_by_rows(s, a, b)

    def test_widened_slots_give_the_partition_counts(self):
        # 1/(q;q): p(n) passes 2^63 at n = 406, past what a 64-bit slot holds
        assert partition_counts(600)[406] > 2**63 > partition_counts(600)[405]
        assert rebuilt_product(-1, 0, 600) == partition_counts(600)

    @given(st.integers(1, 300))
    def test_dilated_product_matches_step2_oracle(self, order):
        assert tuple(rebuilt_product(0, 1, order)) == factor_oracle(2)[:order]

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 8, 33, 64])
    def test_dilated_products_at_small_orders(self, order):
        euler2 = euler_product_by_factors(2, order)
        assert rebuilt_product(0, 1, order) == euler2
        assert rebuilt_product(0, 2, order) == schoolbook_mul(euler2, euler2, order)
        # psi's product (q^2;q^2)^2 / (q;q)
        assert rebuilt_product(-1, 2, order) == product_form(2, 2, order)
        assert factor_oracle(1)[:order] == tuple(euler_product_by_factors(1, order))

    @given(st.sampled_from(list(IDENTITY_FORMS)), BUMPS)
    def test_reports_match_the_literal_product(self, closed_form, bump):
        # a bumped closed form fails where, and with the values that, its
        # literal product shows: psi against (q^2;q^2)^2 / (q;q)
        order, index, delta = bump

        def bumped(n):
            c = list(closed_form(n))
            c[index] += delta
            return tuple(c)

        closed = bumped(order)
        product = dict(zip(IDENTITY_FORMS, literal_products()))[closed_form]
        n = next(i for i in range(order) if closed[i] != product[i])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, closed_form.__name__, bumped)
            reports = {r.theorem_id: r for r in verify_series_identities(order)}
        failed = reports.pop(IDENTITY_FORMS[closed_form])
        assert (failed.passed, failed.range) == (False, f"0 <= n < {order}")
        assert failed.counterexample == n
        assert failed.detail == f"coefficients differ at q^{n}: {closed[n]} vs {product[n]}"
        assert all(r.passed for r in reports.values())

    @pytest.mark.parametrize(
        "closed_form, theorem_id, index, want",
        [
            (euler_pentagonal, "euler-pentagonal-identity", 15, -1),
            (jacobi_cube, "jacobi-cube-identity", 15, -11),
            # psi + q^16 reads 1 against the product's 0: 16 is not triangular
            (theta_psi, "theta-psi-identity", 16, 0),
        ],
    )
    def test_planted_error_is_reported(self, monkeypatch, closed_form, theorem_id, index, want):
        def wrong(order):
            c = list(closed_form(order))
            c[index] += 1
            return tuple(c)

        monkeypatch.setattr(verify, closed_form.__name__, wrong)
        reports = {r.theorem_id: r for r in verify_series_identities(40)}
        failed = reports.pop(theorem_id)
        assert not failed.passed
        assert failed.counterexample == index
        assert failed.detail == f"coefficients differ at q^{index}: {want + 1} vs {want}"
        assert all(r.passed for r in reports.values())

    def test_product_missing_a_factor_fails(self, monkeypatch):
        divisor_sums = verify._divisor_sums

        def without_factor_7(order):
            s = divisor_sums(order)
            s[7::7] = [v - 7 for v in s[7::7]]
            return s

        monkeypatch.setattr(verify, "_divisor_sums", without_factor_7)
        report = verify_series_identities(40)[0]
        assert report.theorem_id == "euler-pentagonal-identity"
        assert not report.passed
        assert report.counterexample == 7
        assert report.detail == "coefficients differ at q^7: 1 vs 2"

    def test_dissection_identities(self):
        assert verify_dissection_identities(40).passed


class TestScanner:
    def test_rediscovers_t5_classes(self):
        claims = scan_congruences(5, 10, 4000)
        verified = {c.residue for c in claims if c.verified}
        assert {2, 6} <= verified
        assert len(claims) == 10

    def test_t1_modulus2(self):
        claims = scan_congruences(1, 2, 4000)
        by_residue = {c.residue: c for c in claims}
        assert by_residue[1].verified
        assert not by_residue[0].verified

    def test_t3_modulus4(self):
        claims = scan_congruences(3, 4, 4000)
        verified = {c.residue for c in claims if c.verified}
        assert {2, 3} <= verified

    def test_single_class_refuted_with_first_witness(self):
        claims = scan_congruences(1, 1, 100)
        assert len(claims) == 1
        claim = claims[0]
        assert claim.status == "refuted"
        assert claim.witness == 2  # count at weight 2 is the first odd one
        assert claim.checked_bound == 99

    def test_classes_without_a_checked_index_are_unchecked(self):
        # limit 3 reaches indices 1 and 2 only; residue 0 holds just the
        # excluded index 0 and residues 3..9 hold no index at all
        claims = scan_congruences(5, 10, 3)
        unchecked = {c.residue for c in claims if c.status == "unchecked"}
        assert unchecked == {0, 3, 4, 5, 6, 7, 8, 9}
        assert not any(c.verified for c in claims if c.residue in unchecked)
        assert {c.residue: c.checked_bound for c in claims}[0] == 0

    def test_refuted_witnesses_reproduce_under_enumeration(self):
        for claims, t in ((scan_congruences(3, 5, 2000), 3), (scan_congruences(1, 4, 2000), 1)):
            spec = MexSpec(t, t)
            for claim in claims:
                if claim.witness is None:
                    continue
                index = claim.modulus * claim.witness + claim.residue
                if index <= 30:
                    assert p_direct(spec, index) % 2 == 1

    def test_planted_witnesses_at_both_ends_of_the_window(self, monkeypatch):
        # 96 = 9 * 10 + 6 is index bound - 1, the last one in the window; the
        # odd index 0 of class 0 is excluded, so class 0 stays verified
        monkeypatch.setattr(verify, "ptt_mod2_series", planted({5: {0, 96}}))
        claims = scan_congruences(5, 10, 97)
        assert [(c.residue, c.witness) for c in claims if c.status == "refuted"] == [(6, 9)]
        assert claims[0].status == "verified-to-bound"

    def test_verified_set_contains_known_residues(self):
        for t, residues in THEOREM6_RESIDUES.items():
            claims = scan_congruences(t, 2 * t, 1500)
            refuted = {c.residue for c in claims if not c.verified}
            assert not refuted & set(residues)

    def test_verified_set_is_exactly_the_known_residues(self):
        for t, residues in THEOREM6_RESIDUES.items():
            claims = scan_congruences(t, 2 * t, 10**5)
            verified = tuple(c.residue for c in claims if c.status == "verified-to-bound")
            assert verified == residues

    def test_verified_classes_of_every_odd_t_up_to_63(self):
        # evidence up to the bound, not a theorem: at 10^5 the mod-2t scan of
        # every odd t <= 63 leaves all-even classes only at the seven proved
        # t, at t = 1 (the odd progression) and at t = 25, which no theorem
        # covers and THEOREM6_RESIDUES leaves out.  For t >= 3 the t-core
        # series, built without the mex series, leaves the same classes:
        # t = 25's included, independent evidence for them
        expected = {**THEOREM6_RESIDUES, 1: (1,), 25: (9, 19, 29, 39, 49)}
        for t in range(1, 64, 2):
            claims = scan_congruences(t, 2 * t, 10**5)
            verified = tuple(c.residue for c in claims if c.status == "verified-to-bound")
            assert verified == expected.get(t, ()), t
            if t >= 3:
                odd = {n % (2 * t) for n in series.nonzero_indices(acore_mod2_series(t, 10**5)) if n}
                assert tuple(r for r in range(2 * t) if r not in odd) == expected.get(t, ()), t

    @given(st.sampled_from(range(1, 24, 2)), st.integers(1, 40), st.integers(2, 600))
    def test_matches_direct_walk(self, t, modulus, bound):
        coeffs = ptt_mod2_series(t, bound).coeffs
        claims = scan_congruences(t, modulus, bound)
        assert [c.residue for c in claims] == list(range(modulus))
        for claim in claims:
            j = claim.residue
            window = range(j, bound, modulus)
            odd = [n for n in window if n >= 1 and coeffs[n]]
            first = None if claim.witness is None else modulus * claim.witness + j
            assert first == (odd[0] if odd else None)
            assert claim.checked_bound == len(window) - 1
            if odd:
                assert claim.status == "refuted"
            elif any(n >= 1 for n in window):
                assert claim.status == "verified-to-bound"
            else:
                assert claim.status == "unchecked"

    def test_modulus_ceiling(self, monkeypatch):
        # checked against the module constant: a patched ceiling of 10 takes
        # 10 classes and refuses 11 before building anything
        assert verify.SCAN_MODULUS_CEILING == 10**6
        monkeypatch.setattr(verify, "SCAN_MODULUS_CEILING", 10)
        assert len(scan_congruences(1, 10, 100)) == 10

        def no_build(t, order):
            raise AssertionError("a series was built past the modulus ceiling")

        monkeypatch.setattr(verify, "ptt_mod2_series", no_build)
        with pytest.raises(LimitError, match="exceeds the ceiling 10$"):
            scan_congruences(1, 11, 100)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            scan_congruences(2, 4, 100)
        with pytest.raises(ValueError):
            scan_congruences(1, 0, 100)
        with pytest.raises(ValueError):
            scan_congruences(1, 4, 1)


class TestMod2OrderCeiling:
    @pytest.fixture
    def no_build(self, monkeypatch):
        def fail(*args):
            raise AssertionError("something was built past the ceiling")

        for name in (
            "nonzero_indices",
            "ptt_mod2_series",
            "acore_mod2_series",
            "_crank_rank_tallies",
            "_divisor_sums",
            "dissection_identity_check",
        ):
            monkeypatch.setattr(verify, name, fail)

    @pytest.mark.parametrize("name", sorted(CHECKERS))
    def test_checkers_raise_before_building(self, no_build, name):
        with pytest.raises(OrderLimitError, match=str(MOD2_ORDER_CEILING)):
            CHECKERS[name](MOD2_ORDER_CEILING + 1)

    def test_scan_raises_before_building(self, no_build):
        with pytest.raises(OrderLimitError):
            scan_congruences(9, 18, MOD2_ORDER_CEILING + 1)

    def test_scan_modulus_past_its_ceiling_raises_before_building(self, no_build):
        with pytest.raises(LimitError, match=f"ceiling {verify.SCAN_MODULUS_CEILING}"):
            scan_congruences(9, verify.SCAN_MODULUS_CEILING + 1, 100)

    @pytest.mark.parametrize("name", SUITES)
    def test_every_suite_raises_before_building(self, no_build, name):
        # even the suites that clamp their order check the requested bound
        with pytest.raises(OrderLimitError):
            run_suite(name, MOD2_ORDER_CEILING + 1)

    def test_the_ceiling_itself_is_accepted(self):
        assert verify._checked_bound(MOD2_ORDER_CEILING) == MOD2_ORDER_CEILING


class TestCacheWorkingSet:
    # (hits, misses) of partition_parity and ptt_mod2_series over one suite
    # at bound 40, the same as at 10^5; the cache sizes are set from these
    COUNTS = {
        "all": ((17, 3), (4, 11)),
        "p11": ((0, 1), (2, 1)),
        "p33": ((0, 1), (2, 1)),
        "crank-rank": ((0, 0), (0, 0)),
        "theorem6": ((13, 1), (0, 7)),
        "corollaries": ((1, 1), (2, 2)),
        "identities": ((2, 2), (0, 2)),
    }

    @pytest.mark.parametrize("name", SUITES)
    def test_hits_and_misses(self, name):
        caches = (series.partition_parity, genfun.ptt_mod2_series)
        for cache in caches:
            cache.cache_clear()
        run_suite(name, 40)
        got = tuple((c.cache_info().hits, c.cache_info().misses) for c in caches)
        assert got == self.COUNTS[name]

    def test_euler_product_is_not_cached(self):
        assert not hasattr(series.euler_product, "cache_info")


class TestSuiteRunner:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus", 100)

    def test_crank_rank_bound_is_clamped(self):
        reports = run_suite("crank-rank", 5000)
        assert len(reports) == 1
        assert reports[0].passed
        assert reports[0].range == "1 <= n <= 45"

    def test_identity_order_is_clamped(self, monkeypatch):
        orders = []

        def identities(order):
            orders.append(order)
            return [VerificationReport("identity", f"0 <= n < {order}")]

        monkeypatch.setattr(verify, "verify_series_identities", identities)
        monkeypatch.setattr(verify, "verify_dissection_identities", lambda order: identities(order)[0])
        reports = run_suite("identities", 100_000)
        assert orders == [10**4, 500]
        assert reports[0].range == "0 <= n < 10000"
        orders.clear()
        run_suite("identities", 5000)
        assert orders == [5000, 500]

    def test_dissection_order_is_the_module_constant(self, monkeypatch):
        # the clamp is read from DISSECTION_ORDER when the suite runs
        monkeypatch.setattr(verify, "verify_series_identities", lambda order: [])
        assert run_suite("identities", 10**4)[-1].range == "t in [5, 7], r < 2t, order 500"
        monkeypatch.setattr(verify, "DISSECTION_ORDER", 60)
        assert run_suite("identities", 10**4)[-1].range == "t in [5, 7], r < 2t, order 60"

    def test_all_suite_composition(self):
        reports = run_suite("all", 300)
        ids = [r.theorem_id for r in reports]
        assert ids == [
            "p11-characterization",
            "p33-characterization",
            "crank-rank-equivalence",
            "theorem6-progressions",
            "tcore-progressions",
            "p11-odd-progression",
            "p11-qnr-families",
            "p33-power4-families",
            "p33-qnr-families",
            "euler-pentagonal-identity",
            "jacobi-cube-identity",
            "theta-psi-identity",
            "dissection-identity",
        ]
        assert all(r.passed for r in reports)

    def test_every_named_suite_runs(self):
        for name in SUITES:
            if name == "all":
                continue
            reports = run_suite(name, 120)
            assert reports and all(r.passed for r in reports)
