import tracemalloc

import pytest
from hypothesis import given, strategies as st

from mexparity import genfun, series
from mexparity.errors import LimitError, OrderLimitError
from mexparity.genfun import (
    INT_ORDER_CEILING,
    acore_mod2_series,
    dissection_identity_check,
    ptt_mod2_series,
    ptt_series,
)
from mexparity.partitions import MexSpec, p_direct
from mexparity.series import (
    MOD2,
    MOD2_ORDER_CEILING,
    TruncatedSeries,
    alternating_triangular,
    euler_product,
    partition_parity,
    series_div,
    series_mul,
)
from mexparity.verify import verify_dissection_identities
from oracles import a_t_direct, product_form, product_form_mod2


class TestPttSeries:
    def test_t1_prefix(self):
        assert ptt_series(1, 5).coeffs == (1, 0, 1, 2, 3)

    def test_t3_prefix(self):
        assert ptt_series(3, 6).coeffs == (1, 1, 2, 2, 4, 5)

    def test_t5_constant_term(self):
        assert ptt_series(5, 1).coeff(0) == 1

    def test_t3_progression_values_are_even(self):
        # indices hit by the 4n+2, 8n+4 and 5n+r non-residue families;
        # values frozen from the enumeration oracle
        s = ptt_series(3, 13)
        assert [s.coeff(n) for n in (2, 4, 6, 7, 12)] == [2, 4, 8, 10, 50]

    @pytest.mark.parametrize("t", [2, 4, 0, -3])
    def test_even_or_nonpositive_t_rejected(self, t):
        with pytest.raises(ValueError):
            ptt_series(t, 10)

    @pytest.mark.parametrize("t", [1, 3, 5, 7])
    def test_matches_enumeration(self, t):
        series = ptt_series(t, 21)
        spec = MexSpec(t, t)
        for n in range(21):
            assert series.coeff(n) == p_direct(spec, n)


class TestIntOrderCeiling:
    def test_ceiling_is_the_cli_cap(self):
        assert INT_ORDER_CEILING == 10**4
        assert issubclass(OrderLimitError, LimitError)
        assert issubclass(LimitError, ValueError)

    @pytest.mark.parametrize("make, t", [(ptt_series, 3)])
    def test_past_the_ceiling_raises_before_building(self, monkeypatch, make, t):
        def no_build(*args):
            raise AssertionError("a series was built past the ceiling")

        monkeypatch.setattr(genfun, "euler_product", no_build)
        with pytest.raises(OrderLimitError):
            make(t, INT_ORDER_CEILING + 1)

    def test_at_the_ceiling_still_builds(self):
        s = ptt_series(3, INT_ORDER_CEILING)
        assert s.order == INT_ORDER_CEILING
        assert s.coeffs[:6] == (1, 1, 2, 2, 4, 5)

    @pytest.mark.parametrize("t", [1, 3])
    def test_times_euler_at_the_ceiling_gives_the_numerator(self, t):
        # the product kernel shares no code with the quotient kernel
        n = INT_ORDER_CEILING
        assert series_mul(ptt_series(t, n), euler_product(1, 1, n)) == alternating_triangular(t, n)

    def test_tcore_at_the_ceiling_agrees_with_mod2_route(self):
        # the integer t-core quotient (q^2;q^2)^2 / (q;q), reduced mod 2
        n = INT_ORDER_CEILING
        quotient = series_div(euler_product(2, 2, n), euler_product(1, 1, n))
        assert tuple(c % 2 for c in quotient.coeffs) == acore_mod2_series(2, n).coeffs


class TestMod2OrderCeiling:
    @pytest.mark.parametrize(
        "make, t", [(ptt_mod2_series, 3), (acore_mod2_series, 5), (dissection_identity_check, 7)]
    )
    def test_past_the_ceiling_raises_before_building(self, monkeypatch, make, t):
        def no_build(*args):
            raise AssertionError("a series was built past the ceiling")

        monkeypatch.setattr(genfun, "euler_product", no_build)
        monkeypatch.setattr(genfun, "alternating_triangular", no_build)
        # partition_parity is the check, and it would build R with these two
        monkeypatch.setattr(series, "alternating_triangular", no_build)
        monkeypatch.setattr(series, "_gf2_mul", no_build)
        with pytest.raises(OrderLimitError, match="ceiling 100000000"):
            make(t, MOD2_ORDER_CEILING + 1)


class TestRetention:
    def test_acore_builds_retain_less_than_one_series(self):
        # only R is memoized at this order: no sparse Euler factor, a full
        # N-bit mask each, outlives the build that used it
        order = 200_003
        partition_parity(order)
        tracemalloc.start()
        try:
            for t in (3, 5, 7, 11, 13, 17, 19, 23, 25):
                acore_mod2_series(t, order)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < order // 8


class TestPttMod2Series:
    def test_t1_lacunary_positions(self):
        s = ptt_mod2_series(1, 13)
        assert [n for n in range(13) if s.coeff(n)] == [0, 2, 4, 10]

    def test_t3_lacunary_positions(self):
        s = ptt_mod2_series(3, 10)
        assert [n for n in range(10) if s.coeff(n)] == [0, 1, 5, 8]

    @pytest.mark.parametrize("t", [1, 3, 5, 7, 11])
    def test_constant_term_is_one(self, t):
        assert ptt_mod2_series(t, 4).coeff(0) == 1

    def test_even_t_rejected(self):
        with pytest.raises(ValueError):
            ptt_mod2_series(2, 10)

    @pytest.mark.parametrize("t", [1, 3, 5, 7])
    def test_agrees_with_integer_route(self, t):
        assert tuple(c % 2 for c in ptt_series(t, 2000).coeffs) == ptt_mod2_series(t, 2000).coeffs


class TestMod2ProductForms:
    # the GF(2) builders multiply R = 1/(q;q) by psi(q^t) and by one sparse
    # factor per set bit of t; the literal products they stand for are
    # (q^t;q^t)^3 / (q;q) (Jacobi) and (q^t;q^t)^t / (q;q)
    @given(st.sampled_from(range(1, 26, 2)), st.integers(1, 300))
    def test_ptt_mod2_matches_cube_product(self, t, order):
        assert list(ptt_mod2_series(t, order).coeffs) == product_form_mod2(t, 3, order)

    @given(st.integers(2, 25), st.integers(1, 300))
    def test_acore_mod2_matches_power_product(self, t, order):
        assert list(acore_mod2_series(t, order).coeffs) == product_form_mod2(t, t, order)


class TestAcoreSeries:
    # the t-core counts are built mod 2 only; the integer counts they reduce
    # are the hook-length oracle and the literal product (q^t;q^t)^t / (q;q)
    @given(st.integers(2, 25), st.integers(1, 300))
    def test_matches_power_product(self, t, order):
        # the t-core quotient, one series_div of the sparse-built numerator,
        # against the product multiplied out literally, over the integers
        quotient = series_div(euler_product(t, t, order), euler_product(1, 1, order))
        assert list(quotient.coeffs) == product_form(t, t, order)

    def test_t3_prefix(self):
        # the 3-core counts 1, 1, 2, 0
        assert acore_mod2_series(3, 4).coeffs == (1, 1, 0, 0)

    def test_t5_prefix_counts_all_partitions(self):
        # below 5 every partition is a 5-core: 1, 1, 2, 3, 5
        assert acore_mod2_series(5, 5).coeffs == (1, 1, 0, 1, 1)

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            acore_mod2_series(1, 5)

    @pytest.mark.parametrize("t", [3, 5, 7])
    def test_matches_hook_length_oracle(self, t):
        series = acore_mod2_series(t, 16)
        for n in range(16):
            assert series.coeff(n) == a_t_direct(t, n) % 2

    def test_even_t_supported(self):
        series = acore_mod2_series(2, 12)
        for n in range(12):
            assert series.coeff(n) == a_t_direct(2, n) % 2

    @pytest.mark.parametrize("t", [3, 5, 7, 11])
    def test_mod2_route_agrees(self, t):
        assert list(acore_mod2_series(t, 400).coeffs) == product_form_mod2(t, t, 400)

    def test_t3_parity_equals_mex_parity(self):
        assert ptt_mod2_series(3, 300) == acore_mod2_series(3, 300)


class TestDissectionIdentity:
    def test_t3_is_trivially_true(self):
        assert dissection_identity_check(3, 40) == ()

    def test_t5_known_case(self):
        assert dissection_identity_check(5, 200) == ()

    def test_t7_known_case(self):
        assert dissection_identity_check(7, 200) == ()

    def test_all_residues_small_order(self):
        for t in (5, 7):
            assert dissection_identity_check(t, 60) == ()

    def test_rejects_even_t_and_t1(self):
        with pytest.raises(ValueError):
            dissection_identity_check(4, 10)
        with pytest.raises(ValueError):
            dissection_identity_check(1, 10)


def _plant_tcore_bit(monkeypatch, planted_t, *indices):
    # the t-core parity series of planted_t with its coefficients at
    # `indices` flipped, so exactly their residue classes of the identity break
    original = genfun.acore_mod2_series

    def planted(t, order):
        s = original(t, order)
        if t != planted_t:
            return s
        c = list(s.coeffs)
        for index in indices:
            c[index] ^= 1
        return TruncatedSeries(c, MOD2)

    monkeypatch.setattr(genfun, "acore_mod2_series", planted)


class TestDissectionPlantedBit:
    ORDER = 30

    @pytest.mark.parametrize("t, r, n", [(3, 2, 0), (5, 0, 0), (5, 9, 29), (7, 4, 11), (7, 13, 29)])
    def test_check_fails_in_exactly_the_planted_class(self, monkeypatch, t, r, n):
        _plant_tcore_bit(monkeypatch, t, 2 * t * n + r)
        assert dissection_identity_check(t, self.ORDER) == (r,)

    def test_two_classes_fail_and_the_smallest_residue_is_reported(self, monkeypatch):
        # residue 8 fails at a lower index than residue 6: the check lists
        # both in increasing order and the report names the smaller residue
        _plant_tcore_bit(monkeypatch, 7, 14 * 20 + 8, 14 * 25 + 6)
        assert dissection_identity_check(7, self.ORDER) == (6, 8)
        report = verify_dissection_identities((7,), self.ORDER)
        assert (report.counterexample, report.detail) == (6, "residue 6 fails for t=7")

    @pytest.mark.parametrize("t, r", [(5, 6), (7, 9)])
    def test_sweep_reports_the_planted_class(self, monkeypatch, t, r):
        _plant_tcore_bit(monkeypatch, t, 2 * t * 17 + r)
        report = verify_dissection_identities((5, 7), self.ORDER)
        assert not report.passed
        assert report.counterexample == r
        assert report.detail == f"residue {r} fails for t={t}"
