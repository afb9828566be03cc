import copy
import inspect
import pickle

import pytest
from hypothesis import given, strategies as st

import mexparity
from mexparity import genfun, series, verify
from mexparity.errors import OrderLimitError
from mexparity.series import (
    INTEGERS,
    MOD2,
    MOD2_ORDER_CEILING,
    TruncatedSeries,
    alternating_triangular,
    checked_mod2_order,
    dissect,
    euler_pentagonal,
    euler_product,
    jacobi_cube,
    nonzero_indices,
    partition_parity,
    series_div,
    series_mul,
    series_recip,
    theta_psi,
)
from oracles import (
    back_substitution,
    euler_product_by_factors,
    gf2_newton_recip,
    gf2_schoolbook_mul,
    gf2_series,
    partition_counts,
    schoolbook_mul,
    schoolbook_power,
)

int_series = st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=40).map(tuple)
mod2_series = st.text("01", min_size=1, max_size=80).map(gf2_series)


class TestConstruction:
    # an integer series is a plain tuple; TruncatedSeries is the GF(2)
    # NamedTuple (bits, order), and its one public constructor checks both
    def test_order_matches_length(self):
        s = TruncatedSeries(0b110, 3)
        assert s.order == 3
        assert s.coeffs == (0, 1, 1)
        assert gf2_series("011") == s

    def test_empty_rejected(self):
        for order in (0, -1):
            with pytest.raises(ValueError, match="order must be >= 1"):
                TruncatedSeries(0, order)

    def test_mod2_coefficients_validated(self):
        # no bit at or past the order, and no negative bitmask
        for bits, order in [(0b100, 2), (2**70, 70), (-1, 3), (-(2**70), 80)]:
            with pytest.raises(ValueError, match=rf"0 <= bits < 2\*\*{order}"):
                TruncatedSeries(bits, order)
        assert TruncatedSeries(0b11, 2).digits == "11"

    # the domain whose constructor is checked: an integer series is a tuple
    # the library builds, with no constructor of its own
    @pytest.mark.parametrize("domain", [MOD2])
    @pytest.mark.parametrize("coeffs", [[0.5, 1.7], [1.9, 0.2], [1.0, 0.0], ["1", "0"], [1, "0"]])
    def test_non_integer_coefficients_rejected(self, domain, coeffs):
        # no silent truncation of floats, no parsing of strings, in either field
        assert TruncatedSeries.domain is domain
        with pytest.raises(TypeError):
            TruncatedSeries(*coeffs)
        with pytest.raises(TypeError):
            TruncatedSeries(1, coeffs[1])

    @pytest.mark.parametrize(
        "build",
        [
            lambda domain: euler_product(1, 5, domain=domain),
            lambda domain: alternating_triangular(1, 5, domain),
        ],
        ids=["euler_product", "alternating_triangular"],
    )
    @pytest.mark.parametrize("domain", ["mod2", None])
    def test_a_domain_that_is_not_a_domain_is_rejected(self, build, domain):
        # the builders test `is MOD2`, so a look-alike would otherwise build
        # an integer series
        with pytest.raises(TypeError, match="domain must be a Domain"):
            build(domain)

    @pytest.mark.parametrize("domain", [INTEGERS, MOD2])
    def test_ints_and_bools_build(self, domain):
        # the domain picks the representation: a tuple of ints, or a
        # TruncatedSeries whose two fields are ints
        s = euler_product(1, 3, domain=domain)
        assert s == ((1, -1, -1) if domain is INTEGERS else TruncatedSeries(0b111, 3))
        assert type(TruncatedSeries(True, True).bits) is int
        assert TruncatedSeries(True, 3).coeffs == TruncatedSeries(1, 3).coeffs == (1, 0, 0)
        assert TruncatedSeries(2**70, 71).digits == "0" * 70 + "1"

    def test_coeff_outside_window_is_an_error(self):
        s = gf2_series("101")
        with pytest.raises(IndexError):
            s.digits[3]
        with pytest.raises(IndexError):
            s.coeffs[3]
        with pytest.raises(IndexError):
            euler_pentagonal(3)[3]

    def test_immutable(self):
        s = gf2_series("1")
        for field in ("bits", "order", "domain"):
            with pytest.raises(AttributeError):
                setattr(s, field, 5)

    @pytest.mark.parametrize("slot", ["order", "domain", "bits"])
    def test_slots_cannot_be_deleted(self, slot):
        # the series is memoized: a deleted field would break every later call
        s = genfun.ptt_mod2_series(1, 50)
        with pytest.raises(AttributeError):
            delattr(s, slot)
        assert genfun.ptt_mod2_series(1, 50).digits.startswith("10101")

    @pytest.mark.parametrize("other", [1, [1], (1,), "1", None])
    def test_never_equal_to_a_non_series(self, other):
        # a NamedTuple compares as a tuple: a tuple of another length is
        # unequal, and anything that is no tuple is left to the other side
        s = gf2_series("1")
        assert s.__eq__(other) is (False if isinstance(other, tuple) else NotImplemented)
        assert s != other

    def test_equals_the_plain_tuple_of_its_fields(self):
        # which is also an integer series: nothing in the package compares the
        # two representations
        assert TruncatedSeries(1, 1) == (1, 1) and hash(TruncatedSeries(1, 1)) == hash((1, 1))
        assert len(TruncatedSeries(1, 1)) == 2
        assert TruncatedSeries(1, 1) != TruncatedSeries(1, 2)

    @pytest.mark.parametrize("s", [TruncatedSeries(2**70 + 5, 71), gf2_series("10110")])
    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copy_and_pickle_keep_the_value(self, s, clone):
        twin = clone(s)
        assert type(twin) is TruncatedSeries
        assert twin == s and hash(twin) == hash(s)
        assert twin.domain is s.domain is MOD2 and twin.coeffs == s.coeffs

    def test_bits_view_only_for_mod2(self):
        assert gf2_series("101").bits == 0b101
        with pytest.raises(AttributeError):
            euler_pentagonal(3).bits
        with pytest.raises(AttributeError):
            euler_pentagonal(3).digits


class TestRepresentation:
    # one representation per domain: a plain tuple of ints over the
    # integers, a TruncatedSeries over GF(2)
    @pytest.mark.parametrize(
        "build, want",
        [
            (lambda: euler_pentagonal(6), (1, -1, -1, 0, 0, 1)),
            (lambda: jacobi_cube(4), (1, -3, 0, 5)),
            (lambda: theta_psi(4), (1, 1, 0, 1)),
            (lambda: euler_product(2, 5), (1, 0, -1, 0, -1)),
            (lambda: alternating_triangular(1, 4), (1, -1, 0, 1)),
            (lambda: genfun.ptt_series(3, 6), (1, 1, 2, 2, 4, 5)),
            (lambda: series_div((1, 0, 0, 0), (1, -1, 0, 0)), (1, 1, 1, 1)),
            (lambda: series_recip((1, 1, 0)), (1, -1, 1)),
        ],
        ids=["euler_pentagonal", "jacobi_cube", "theta_psi", "euler_product",
             "alternating_triangular", "ptt_series", "series_div", "series_recip"],
    )
    def test_integer_series_are_plain_tuples(self, build, want):
        s = build()
        assert type(s) is tuple and all(type(c) is int for c in s)
        assert s == want

    @pytest.mark.parametrize(
        "build",
        [
            lambda: partition_parity(300),
            lambda: genfun.ptt_mod2_series(5, 301),
            lambda: genfun.acore_mod2_series(7, 299),
            # both have a term at exponent 105, the first one past the order
            lambda: euler_product(3, 105, domain=MOD2),
            lambda: alternating_triangular(5, 105, MOD2),
            lambda: dissect(partition_parity(300), 7, 3),
            lambda: series_mul(gf2_series("1" * 90), euler_product(1, 80, domain=MOD2)),
        ],
        ids=["partition_parity", "ptt_mod2_series", "acore_mod2_series", "euler_product",
             "alternating_triangular", "dissect", "series_mul"],
    )
    def test_built_series_pass_the_public_constructor(self, build):
        # the builders skip the constructor's checks through _make, so what
        # they build is checked here: no bit at or past the order
        s = build()
        assert type(s) is TruncatedSeries
        assert TruncatedSeries(*s) == s
        assert s.bits.bit_length() <= s.order


class TestMul:
    # series_mul is GF(2)-only; over the integers the one operation is the
    # quotient series_div
    def test_difference_of_squares(self):
        # (1 + q)(1 - q) = 1 - q^2, and -1 = 1 mod 2
        a = gf2_series("110")
        assert series_mul(a, a).digits == "101"

    def test_identity(self):
        s = gf2_series("11011")
        assert series_mul(s, TruncatedSeries(1, 5)) == s

    def test_hand_expansion(self):
        # (1 + q + q^2)(1 + q) = 1 + 2q + 2q^2 + q^3
        assert series_mul(gf2_series("1110"), gf2_series("1100")).digits == "1001"

    def test_domain_mismatch(self):
        # a TruncatedSeries is itself a tuple, so the check names the class
        with pytest.raises(ValueError, match="got tuple \\* TruncatedSeries"):
            series_mul((1, 1), gf2_series("11"))
        with pytest.raises(ValueError, match="got TruncatedSeries \\* tuple"):
            series_mul(gf2_series("11"), (1, 1))

    def test_integers_rejected(self):
        with pytest.raises(ValueError, match="series_div"):
            series_mul((1, 1), (1, -1))

    def test_order_is_min(self):
        assert series_mul(gf2_series("1" * 7), gf2_series("1" * 4)).order == 4

    @given(mod2_series, mod2_series)
    def test_mod2_matches_schoolbook(self, a, b):
        order = min(a.order, b.order)
        assert series_mul(a, b).bits == gf2_schoolbook_mul(a.bits, b.bits, order)


class TestRecip:
    def test_partition_numbers(self):
        got = series_recip(euler_product(1, 11))
        assert got == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
        assert list(got) == partition_counts(11)

    def test_recip_of_one(self):
        assert series_recip((1, 0, 0, 0, 0, 0)) == (1, 0, 0, 0, 0, 0)

    def test_geometric(self):
        assert series_recip((1, -1, 0, 0)) == (1, 1, 1, 1)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            series_recip((2, 1))

    @pytest.mark.parametrize("coeffs", [[1, 1, 0], [0, 1], [1]])
    def test_mod2_rejected(self, coeffs):
        # over GF(2) the one reciprocal is partition_parity
        with pytest.raises(ValueError, match="integer-only"):
            series_recip(gf2_series("".join(map(str, coeffs))))

    def test_negative_unit(self):
        a = (-1, 2, 5, -3)
        assert schoolbook_mul(a, series_recip(a), 4) == [1, 0, 0, 0]

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=30), st.sampled_from([1, -1]))
    def test_roundtrip(self, tail, unit):
        a = (unit, *tail)
        assert schoolbook_mul(a, series_recip(a), len(a)) == [1] + [0] * len(tail)


class TestDiv:
    def test_partition_numbers_times_numerator(self):
        # (1 - q) / (q;q) counts partitions with no part 1: p(n) - p(n-1)
        got = series_div((1, -1) + (0,) * 9, euler_product(1, 11))
        assert got == (1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12)

    def test_order_is_min(self):
        assert len(series_div((1,) * 7, (1,) * 4)) == 4
        assert len(series_div((1,) * 3, (1,) * 9)) == 3

    def test_recip_is_division_of_one(self):
        a = tuple(schoolbook_power(euler_product_by_factors(2, 40), 3, 40))
        assert series_recip(a) == series_div((1,) + (0,) * 39, a)

    def test_domain_mismatch(self):
        # a TruncatedSeries is itself a tuple, (bits, order): it is rejected,
        # not divided as the integer series bits + order*q
        with pytest.raises(ValueError, match="integer-only, got tuple / TruncatedSeries"):
            series_div((1, 1), gf2_series("11"))
        with pytest.raises(ValueError, match="integer-only, got TruncatedSeries / tuple"):
            series_div(gf2_series("11"), (1, 1))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="constant term must be"):
            series_div((1, 1), (2, 1))

    @pytest.mark.parametrize("den", [[1, 1, 0], [0, 1, 1], [1, 0, 0]])
    def test_mod2_rejected(self, den):
        with pytest.raises(ValueError, match="integer-only"):
            series_div(gf2_series("101"), gf2_series("".join(map(str, den))))

    @given(st.data(), st.integers(1, 200), st.sampled_from([1, -1]))
    def test_times_denominator_gives_numerator(self, data, order, unit):
        num = data.draw(st.lists(st.integers(-99, 99), min_size=order, max_size=order))
        tail = data.draw(st.lists(st.integers(-9, 9), min_size=order - 1, max_size=order - 1))
        den = [unit] + tail
        got = series_div(tuple(num), tuple(den))
        assert schoolbook_mul(got, den, order) == num

    @given(st.data(), st.integers(1, 4 * series._BLOCK + 3), st.sampled_from([1, -1]))
    def test_blocks_match_the_reference(self, data, order, unit):
        # sparse divisors with terms at the block edges and strictly inside a
        # later block, where a far term overlaps the block being solved in part
        b = series._BLOCK
        edges = [b - 1, b, b + 1] + [j * b + i for j in (1, 2, 3) for i in (1, b // 2, b - 1)]
        exponent = st.one_of(st.sampled_from(edges), st.integers(1, 4 * b + 2))
        exponents = data.draw(st.sets(exponent, max_size=12))
        den = [unit] + [0] * (4 * b + 2)
        for k in exponents:
            den[k] = data.draw(st.integers(-5, 5).filter(bool))
        num = data.draw(st.lists(st.integers(-99, 99), min_size=order, max_size=order))
        got = series_div(tuple(num), tuple(den))
        assert got == tuple(back_substitution(num, den, order))

    @pytest.mark.parametrize("order", [63, 64, 65, 129, 700])
    def test_recip_of_euler_is_partition_counts(self, order):
        assert series_recip(euler_product(1, order)) == tuple(partition_counts(order))


class TestEulerProduct:
    def test_step1_is_pentagonal_sequence(self):
        got = euler_product(1, 13)
        assert got == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

    def test_step2_first_factor(self):
        assert euler_product(2, 3) == (1, 0, -1)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            euler_product(0, 5)

    def test_has_no_power_parameter(self):
        # a GF(2) power is one sparse factor per set bit of the exponent,
        # formed in genfun (test_powers_consistent_with_mul); over the
        # integers the package forms no power
        assert list(inspect.signature(euler_product).parameters) == ["step", "order", "domain"]

    def test_domain_is_keyword_only(self):
        # perfbench/tracer.py's _euler_domain reads the domain from args[3] or
        # else from kwargs["domain"], so a positional third argument would
        # count every GF(2) call as an integer one
        with pytest.raises(TypeError):
            euler_product(1, 5, MOD2)
        assert euler_product(1, 5, domain=MOD2).digits == "11100"

    @pytest.mark.parametrize("power", [2, 3, 4])
    def test_powers_consistent_with_mul(self, power):
        base = euler_product(1, 50, domain=MOD2)
        expected = base
        for _ in range(power - 1):
            expected = series_mul(expected, base)
        assert genfun._times_euler_power_mod2(TruncatedSeries(1, 50), 1, power) == expected

    @pytest.mark.parametrize("order", [1, 2, 9, 64, 200])
    @pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
    def test_matches_factor_by_factor_product(self, step, order):
        want = euler_product_by_factors(step, order)
        assert list(euler_product(step, order)) == want
        assert list(euler_product(step, order, domain=MOD2).coeffs) == [c & 1 for c in want]

    @given(st.integers(1, 300))
    def test_mod2_domain_agrees_with_reduction(self, order):
        for step in range(1, 6):
            reduced = tuple(c % 2 for c in euler_product(step, order))
            assert euler_product(step, order, domain=MOD2).coeffs == reduced, step


class TestPartitionParity:
    # R = 1/(q;q) mod 2 from R(q) = psi(q) * R(q^4), against a Newton
    # reciprocal, the partition numbers and one product with (q;q)

    def test_matches_newton_reciprocal_at_every_small_order(self):
        euler = sum(c % 2 << i for i, c in enumerate(euler_product_by_factors(1, 300)))
        for order in range(1, 301):
            want = gf2_newton_recip(euler & ((1 << order) - 1), order)
            assert partition_parity(order).bits == want, order

    def test_matches_newton_reciprocal_at_1e5(self):
        order = 10**5
        want = gf2_newton_recip(euler_product(1, order, domain=MOD2).bits, order)
        assert partition_parity(order).bits == want

    @pytest.mark.parametrize("order", sorted({4**k + d for k in range(7) for d in (-1, 0, 1)} - {0}))
    def test_times_euler_product_is_one(self, order):
        r = partition_parity(order)
        assert r.order == order and r.domain is MOD2
        assert series_mul(r, euler_product(1, order, domain=MOD2)) == TruncatedSeries(1, order)

    def test_digits_are_partition_numbers_mod_2(self):
        parities = "".join(str(p & 1) for p in partition_counts(500))
        for order in range(1, 501):
            assert partition_parity(order).digits == parities[:order], order

    def test_memoized(self):
        assert partition_parity(77) is partition_parity(77)

    @pytest.mark.parametrize("order", [0, -4])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError):
            partition_parity(order)


class TestMod2OrderCeiling:
    def test_one_ceiling_object_for_every_module(self):
        assert MOD2_ORDER_CEILING == 10**8
        assert mexparity.MOD2_ORDER_CEILING is MOD2_ORDER_CEILING
        assert not hasattr(genfun, "MOD2_ORDER_CEILING")
        assert not hasattr(verify, "MOD2_ORDER_CEILING")

    def test_checked_mod2_order(self):
        assert checked_mod2_order(MOD2_ORDER_CEILING) == MOD2_ORDER_CEILING
        with pytest.raises(
            OrderLimitError, match=r"^mod-2 series order 100000001 exceeds the ceiling 100000000$"
        ):
            checked_mod2_order(MOD2_ORDER_CEILING + 1)

    @pytest.fixture
    def no_build(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a GF(2) series was built past the ceiling")

        for name in ("_bits_of", "_gf2_mul", "alternating_triangular"):
            monkeypatch.setattr(series, name, fail)

    def test_partition_parity_raises_before_building(self, no_build):
        with pytest.raises(OrderLimitError, match="ceiling 100000000"):
            partition_parity(MOD2_ORDER_CEILING + 1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: euler_product(1, n, domain=MOD2),
            lambda n: alternating_triangular(1, n, MOD2),
            lambda n: series._from_terms((), n, MOD2),
            lambda n: TruncatedSeries(1, n),
        ],
    )
    def test_sparse_constructors_raise_before_building(self, no_build, make):
        with pytest.raises(OrderLimitError, match="ceiling 100000000"):
            make(MOD2_ORDER_CEILING + 1)

    def test_the_constructor_checks_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(series, "MOD2_ORDER_CEILING", 4)
        with pytest.raises(OrderLimitError, match="exceeds the ceiling 4"):
            TruncatedSeries(0b10001, 5)
        assert TruncatedSeries(0b1001, 4).digits == "1001"

    def test_the_ceiling_itself_is_accepted(self):
        assert TruncatedSeries(1, MOD2_ORDER_CEILING).order == MOD2_ORDER_CEILING


class TestNamedSeries:
    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError, match="order must be >= 1"):
            euler_pentagonal(order)

    def test_pentagonal_small(self):
        assert euler_pentagonal(8) == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_pentagonal_spot_values(self):
        s = euler_pentagonal(16)
        assert len(s) == 16
        assert s[12] == -1
        assert s[3] == 0
        assert s[15] == -1

    @pytest.mark.parametrize("order", [1, 2, 5, 26, 77, 200])
    def test_pentagonal_equals_product(self, order):
        assert list(euler_pentagonal(order)) == euler_product_by_factors(1, order)

    def test_jacobi_small(self):
        assert jacobi_cube(7) == (1, -3, 0, 5, 0, 0, -7)

    def test_jacobi_spot_values(self):
        s = jacobi_cube(11)
        assert s[10] == 9
        assert s[2] == 0

    @pytest.mark.parametrize("order", [1, 3, 10, 64, 200])
    def test_jacobi_equals_cubed_product(self, order):
        cube = schoolbook_power(euler_product_by_factors(1, order), 3, order)
        assert list(jacobi_cube(order)) == cube

    def test_alternating_triangular_t1(self):
        assert alternating_triangular(1, 8) == (1, -1, 0, 1, 0, 0, -1, 0)

    def test_alternating_triangular_t3(self):
        s = alternating_triangular(3, 10)
        assert s == (1, 0, 0, -1, 0, 0, 0, 0, 0, 1)
        assert alternating_triangular(3, 10, MOD2).digits == "1001000001"

    def test_alternating_triangular_constant_term(self):
        assert alternating_triangular(1, 1) == (1,)
        assert alternating_triangular(1, 1, MOD2) == TruncatedSeries(1, 1)

    def test_alternating_triangular_rejects_bad_t(self):
        with pytest.raises(ValueError):
            alternating_triangular(0, 5)

    def test_theta_psi_small(self):
        s = theta_psi(11)
        assert [n for n in range(11) if s[n]] == [0, 1, 3, 6, 10]
        assert set(s) == {0, 1}

    def test_theta_psi_spot_values(self):
        s = theta_psi(16)
        assert s[15] == 1
        assert s[2] == 0

    @pytest.mark.parametrize("order", [1, 4, 30, 150])
    def test_theta_psi_product_form(self, order):
        # (q^2;q^2)^2 / (q;q), both multiplied out one factor at a time
        square = schoolbook_power(euler_product_by_factors(2, order), 2, order)
        quotient = back_substitution(square, euler_product_by_factors(1, order), order)
        assert list(theta_psi(order)) == quotient

    def test_jacobi_and_psi_agree_mod2(self):
        assert [c % 2 for c in jacobi_cube(300)] == [c % 2 for c in theta_psi(300)]


class TestDissect:
    # a GF(2) slice, read from the digit string
    def test_even_odd_split(self):
        s = gf2_series("1101011")
        assert dissect(s, 2, 0).digits == "1001"
        assert dissect(s, 2, 1).digits == "111"

    def test_identity_dissection(self):
        s = gf2_series("1001")
        assert dissect(s, 1, 0) == s

    def test_bad_residue(self):
        with pytest.raises(ValueError, match="residue"):
            dissect(gf2_series("111"), 2, 2)

    def test_bad_modulus(self):
        with pytest.raises(ValueError, match="modulus"):
            dissect(gf2_series("111"), 0, 0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="no exact coefficients"):
            dissect(gf2_series("1"), 3, 2)

    def test_mod2_dissection(self):
        s = gf2_series("1011011")
        assert dissect(s, 2, 0).coeffs == (1, 1, 0, 1)
        assert dissect(s, 3, 1).coeffs == (0, 0)

    @given(mod2_series, st.integers(1, 12), st.data())
    def test_matches_coefficient_slice(self, s, modulus, data):
        residue = data.draw(st.integers(0, min(modulus, s.order) - 1))
        got = dissect(s, modulus, residue)
        assert type(got) is TruncatedSeries
        assert got.digits == s.digits[residue::modulus]

    @given(mod2_series, st.integers(1, 5))
    def test_interleaving_reconstructs(self, s, modulus):
        pieces = [dissect(s, modulus, r) for r in range(min(modulus, s.order))]
        rebuilt = [None] * s.order
        for r, piece in enumerate(pieces):
            for i, c in enumerate(piece.coeffs):
                rebuilt[modulus * i + r] = c
        assert tuple(rebuilt) == s.coeffs


def reduced_mod2(s):
    """The GF(2) series of an integer series' coefficients mod 2."""
    return gf2_series("".join(str(c % 2) for c in s))


class TestReduceMod2:
    # reduction mod 2 of the coefficients ties the two domains together
    def test_partition_parity_matches_oracle(self):
        parity = [c % 2 for c in series_recip(euler_product(1, 200))]
        assert parity == [p & 1 for p in partition_counts(200)]
        assert reduced_mod2(series_recip(euler_product(1, 200))) == partition_parity(200)

    @given(int_series, int_series)
    def test_commutes_with_mul(self, a, b):
        product = schoolbook_mul(a, b, min(len(a), len(b)))
        assert reduced_mod2(product) == series_mul(reduced_mod2(a), reduced_mod2(b))


class TestFreshmansDream:
    @given(mod2_series)
    def test_square_is_dilation(self, s):
        sq = series_mul(s, s).digits
        for n in range(s.order):
            if n % 2 == 0:
                assert sq[n] == s.digits[n // 2]
            else:
                assert sq[n] == "0"

    def test_euler_square_is_dilated_euler(self):
        euler = euler_product(1, 240, domain=MOD2)
        assert series_mul(euler, euler) == euler_product(2, 240, domain=MOD2)


@pytest.mark.parametrize("order", [1, 7, 8, 9, 600])
@given(data=st.data())
def test_mod2_views_equal_the_coefficient_walk(order, data):
    for bits in (0, 2**order - 1, data.draw(st.integers(0, 2**order - 1))):
        s = TruncatedSeries(bits, order)
        walk = [bits >> n & 1 for n in range(order)]
        assert s.coeffs == tuple(walk)
        assert s.digits == "".join(map(str, walk))
        assert list(nonzero_indices(s)) == [n for n in range(order) if walk[n]]


def test_nonzero_indices_both_domains():
    # GF(2) only: an integer series is a plain tuple, read by index
    m = gf2_series("01011")
    assert list(nonzero_indices(m)) == [1, 3, 4]
    assert list(nonzero_indices(TruncatedSeries(0, 3))) == []
    with pytest.raises(AttributeError):
        nonzero_indices((0, 5, 0, -2, 0))
