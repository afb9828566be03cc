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
    partition_counts,
    schoolbook_mul,
    schoolbook_power,
)

int_series = st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=40).map(
    lambda cs: TruncatedSeries(cs)
)
mod2_series = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=80).map(
    lambda cs: TruncatedSeries(cs, MOD2)
)


class TestConstruction:
    def test_order_matches_length(self):
        s = TruncatedSeries([1, 2, 3])
        assert s.order == 3
        assert s.coeffs == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            TruncatedSeries([])

    def test_mod2_coefficients_validated(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 2], MOD2)

    @pytest.mark.parametrize("domain", [INTEGERS, MOD2])
    @pytest.mark.parametrize("coeffs", [[0.5, 1.7], [1.9, 0.2], [1.0, 0.0], ["1", "0"], [1, "0"]])
    def test_non_integer_coefficients_rejected(self, domain, coeffs):
        # no silent truncation of floats, no parsing of strings
        with pytest.raises(TypeError):
            TruncatedSeries(coeffs, domain)

    @pytest.mark.parametrize(
        "build",
        [
            lambda domain: TruncatedSeries([1, 0], domain),
            lambda domain: TruncatedSeries.one(3, domain),
            lambda domain: euler_product(1, 5, domain=domain),
            lambda domain: alternating_triangular(1, 5, domain),
        ],
        ids=["constructor", "one", "euler_product", "alternating_triangular"],
    )
    @pytest.mark.parametrize("domain", ["mod2", None])
    def test_a_domain_that_is_not_a_domain_is_rejected(self, build, domain):
        # every domain branch tests `is MOD2`, so a look-alike would otherwise
        # build an integer series, or one whose repr fails
        with pytest.raises(TypeError, match="domain must be a Domain"):
            build(domain)

    @pytest.mark.parametrize("domain", [INTEGERS, MOD2])
    def test_ints_and_bools_build(self, domain):
        assert TruncatedSeries([1, 0, 1], domain).coeffs == (1, 0, 1)
        assert TruncatedSeries([True, False, True], domain).coeffs == (1, 0, 1)
        assert TruncatedSeries([-3, 2**70]).coeffs == (-3, 2**70)

    def test_coeff_outside_window_is_an_error(self):
        s = TruncatedSeries([1, 2, 3])
        with pytest.raises(IndexError):
            s.coeff(3)
        with pytest.raises(IndexError):
            s.coeff(-1)

    def test_immutable(self):
        s = TruncatedSeries([1])
        with pytest.raises(AttributeError):
            s.order = 5

    @pytest.mark.parametrize("slot", ["order", "domain", "_data"])
    def test_slots_cannot_be_deleted(self, slot):
        # the series is memoized: a deleted slot would break every later call
        s = genfun.ptt_mod2_series(1, 50)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(s, slot)
        assert genfun.ptt_mod2_series(1, 50).digits.startswith("10101")

    @pytest.mark.parametrize("other", [1, [1], (1,), "1", None])
    def test_never_equal_to_a_non_series(self, other):
        for s in (TruncatedSeries([1]), TruncatedSeries([1], MOD2)):
            assert s.__eq__(other) is NotImplemented
            assert s != other

    @pytest.mark.parametrize(
        "s", [TruncatedSeries([1, -2, 0, 2**70]), TruncatedSeries([1, 0, 1, 1, 0], MOD2)]
    )
    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))]
    )
    def test_copy_and_pickle_keep_the_value(self, s, clone):
        twin = clone(s)
        assert twin == s and hash(twin) == hash(s)
        assert twin.domain is s.domain and twin.coeffs == s.coeffs

    def test_bits_view_only_for_mod2(self):
        assert TruncatedSeries([1, 0, 1], MOD2).bits == 0b101
        with pytest.raises(ValueError):
            TruncatedSeries([1, 0, 1]).bits
        with pytest.raises(ValueError):
            TruncatedSeries([1, 0, 1]).digits

    @pytest.mark.parametrize(
        "domain, order, text",
        [
            (INTEGERS, 1, "[1], order=1, domain=integers"),
            (INTEGERS, 8, "[1, -1, -1, 0, 0, 1, 0, 1], order=8, domain=integers"),
            (INTEGERS, 9, "[1, -1, -1, 0, 0, 1, 0, 1, ...], order=9, domain=integers"),
            (INTEGERS, 10**6, "[1, -1, -1, 0, 0, 1, 0, 1, ...], order=1000000, domain=integers"),
            (MOD2, 1, "[1], order=1, domain=mod2"),
            (MOD2, 8, "[1, 1, 1, 0, 0, 1, 0, 1], order=8, domain=mod2"),
            (MOD2, 9, "[1, 1, 1, 0, 0, 1, 0, 1, ...], order=9, domain=mod2"),
            (MOD2, 10**6, "[1, 1, 1, 0, 0, 1, 0, 1, ...], order=1000000, domain=mod2"),
        ],
    )
    def test_repr_shows_at_most_eight_coefficients(self, monkeypatch, domain, order, text):
        s = euler_product(1, order, domain=domain)
        # the head is read coefficient by coefficient, never as the whole tuple
        monkeypatch.setattr(TruncatedSeries, "coeffs", property(lambda self: pytest.fail("coeffs read")))
        assert repr(s) == f"TruncatedSeries({text})"


class TestMul:
    # series_mul is GF(2)-only; over the integers the one operation is the
    # quotient series_div
    def test_difference_of_squares(self):
        # (1 + q)(1 - q) = 1 - q^2, and -1 = 1 mod 2
        a = TruncatedSeries([1, 1, 0], MOD2)
        assert series_mul(a, a).coeffs == (1, 0, 1)

    def test_identity(self):
        s = TruncatedSeries([1, 1, 0, 1, 1], MOD2)
        assert series_mul(s, TruncatedSeries.one(5, MOD2)) == s

    def test_hand_expansion(self):
        # (1 + q + q^2)(1 + q) = 1 + 2q + 2q^2 + q^3
        a = TruncatedSeries([1, 1, 1, 0], MOD2)
        b = TruncatedSeries([1, 1, 0, 0], MOD2)
        assert series_mul(a, b).coeffs == (1, 0, 0, 1)

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            series_mul(TruncatedSeries([1, 1]), TruncatedSeries([1, 1], MOD2))
        with pytest.raises(ValueError):
            series_mul(TruncatedSeries([1, 1], MOD2), TruncatedSeries([1, 1]))

    def test_integers_rejected(self):
        with pytest.raises(ValueError, match="series_div"):
            series_mul(TruncatedSeries([1, 1]), TruncatedSeries([1, -1]))

    def test_order_is_min(self):
        a = TruncatedSeries([1] * 7, MOD2)
        b = TruncatedSeries([1] * 4, MOD2)
        assert series_mul(a, b).order == 4

    @given(mod2_series, mod2_series)
    def test_mod2_matches_schoolbook(self, a, b):
        order = min(a.order, b.order)
        assert series_mul(a, b).bits == gf2_schoolbook_mul(a.bits, b.bits, order)


class TestRecip:
    def test_partition_numbers(self):
        got = series_recip(euler_product(1, 11)).coeffs
        assert got == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
        assert list(got) == partition_counts(11)

    def test_recip_of_one(self):
        assert series_recip(TruncatedSeries.one(6)) == TruncatedSeries.one(6)

    def test_geometric(self):
        assert series_recip(TruncatedSeries([1, -1, 0, 0])).coeffs == (1, 1, 1, 1)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            series_recip(TruncatedSeries([2, 1]))

    @pytest.mark.parametrize("coeffs", [[1, 1, 0], [0, 1], [1]])
    def test_mod2_rejected(self, coeffs):
        # over GF(2) the one reciprocal is partition_parity
        with pytest.raises(ValueError, match="integer-only"):
            series_recip(TruncatedSeries(coeffs, MOD2))

    def test_negative_unit(self):
        a = TruncatedSeries([-1, 2, 5, -3])
        assert schoolbook_mul(a.coeffs, series_recip(a).coeffs, 4) == [1, 0, 0, 0]

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=30), st.sampled_from([1, -1]))
    def test_roundtrip(self, tail, unit):
        a = TruncatedSeries([unit] + tail)
        assert schoolbook_mul(a.coeffs, series_recip(a).coeffs, a.order) == [1] + [0] * len(tail)


class TestDiv:
    def test_partition_numbers_times_numerator(self):
        # (1 - q) / (q;q) counts partitions with no part 1: p(n) - p(n-1)
        got = series_div(TruncatedSeries([1, -1] + [0] * 9), euler_product(1, 11))
        assert got.coeffs == (1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12)

    def test_order_is_min(self):
        assert series_div(TruncatedSeries([1] * 7), TruncatedSeries([1] * 4)).order == 4
        assert series_div(TruncatedSeries([1] * 3), TruncatedSeries([1] * 9)).order == 3

    def test_recip_is_division_of_one(self):
        a = TruncatedSeries(schoolbook_power(euler_product_by_factors(2, 40), 3, 40))
        assert series_recip(a) == series_div(TruncatedSeries.one(40), a)

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            series_div(TruncatedSeries([1, 1]), TruncatedSeries([1, 1], MOD2))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            series_div(TruncatedSeries([1, 1]), TruncatedSeries([2, 1]))

    @pytest.mark.parametrize("den", [[1, 1, 0], [0, 1, 1], [1, 0, 0]])
    def test_mod2_rejected(self, den):
        with pytest.raises(ValueError, match="integer-only"):
            series_div(TruncatedSeries([1, 0, 1], MOD2), TruncatedSeries(den, MOD2))

    @given(st.data(), st.integers(1, 200), st.sampled_from([1, -1]))
    def test_times_denominator_gives_numerator(self, data, order, unit):
        num = data.draw(st.lists(st.integers(-99, 99), min_size=order, max_size=order))
        tail = data.draw(st.lists(st.integers(-9, 9), min_size=order - 1, max_size=order - 1))
        den = [unit] + tail
        got = series_div(TruncatedSeries(num), TruncatedSeries(den))
        assert schoolbook_mul(got.coeffs, den, order) == num

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
        got = series_div(TruncatedSeries(num), TruncatedSeries(den))
        assert got.coeffs == tuple(back_substitution(num, den, order))

    @pytest.mark.parametrize("order", [63, 64, 65, 129, 700])
    def test_recip_of_euler_is_partition_counts(self, order):
        assert series_recip(euler_product(1, order)).coeffs == tuple(partition_counts(order))


class TestEulerProduct:
    def test_step1_is_pentagonal_sequence(self):
        got = euler_product(1, 13).coeffs
        assert got == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

    def test_step2_first_factor(self):
        assert euler_product(2, 3).coeffs == (1, 0, -1)

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
        one = TruncatedSeries.one(50, MOD2)
        assert genfun._times_euler_power_mod2(one, 1, power) == expected

    @pytest.mark.parametrize("order", [1, 2, 9, 64, 200])
    @pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
    def test_matches_factor_by_factor_product(self, step, order):
        want = euler_product_by_factors(step, order)
        assert list(euler_product(step, order).coeffs) == want
        assert list(euler_product(step, order, domain=MOD2).coeffs) == [c & 1 for c in want]

    @given(st.integers(1, 300))
    def test_mod2_domain_agrees_with_reduction(self, order):
        for step in range(1, 6):
            reduced = tuple(c % 2 for c in euler_product(step, order).coeffs)
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
        assert series_mul(r, euler_product(1, order, domain=MOD2)) == TruncatedSeries.one(order, MOD2)

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
            lambda n: TruncatedSeries.one(n, MOD2),
        ],
    )
    def test_sparse_constructors_raise_before_building(self, no_build, make):
        with pytest.raises(OrderLimitError, match="ceiling 100000000"):
            make(MOD2_ORDER_CEILING + 1)

    def test_the_constructor_checks_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(series, "MOD2_ORDER_CEILING", 4)
        with pytest.raises(OrderLimitError, match="exceeds the ceiling 4"):
            TruncatedSeries([1, 0, 0, 0, 1], MOD2)
        assert TruncatedSeries([1, 0, 0, 1], MOD2).digits == "1001"

    def test_the_ceiling_itself_is_accepted(self):
        assert TruncatedSeries.one(MOD2_ORDER_CEILING, MOD2).order == MOD2_ORDER_CEILING


class TestNamedSeries:
    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError, match="order must be >= 1"):
            euler_pentagonal(order)

    def test_pentagonal_small(self):
        assert euler_pentagonal(8).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_pentagonal_spot_values(self):
        s = euler_pentagonal(16)
        assert s.coeff(12) == -1
        assert s.coeff(3) == 0
        assert s.coeff(15) == -1

    @pytest.mark.parametrize("order", [1, 2, 5, 26, 77, 200])
    def test_pentagonal_equals_product(self, order):
        assert list(euler_pentagonal(order).coeffs) == euler_product_by_factors(1, order)

    def test_jacobi_small(self):
        assert jacobi_cube(7).coeffs == (1, -3, 0, 5, 0, 0, -7)

    def test_jacobi_spot_values(self):
        s = jacobi_cube(11)
        assert s.coeff(10) == 9
        assert s.coeff(2) == 0

    @pytest.mark.parametrize("order", [1, 3, 10, 64, 200])
    def test_jacobi_equals_cubed_product(self, order):
        cube = schoolbook_power(euler_product_by_factors(1, order), 3, order)
        assert list(jacobi_cube(order).coeffs) == cube

    def test_alternating_triangular_t1(self):
        assert alternating_triangular(1, 8).coeffs == (1, -1, 0, 1, 0, 0, -1, 0)

    def test_alternating_triangular_t3(self):
        s = alternating_triangular(3, 10)
        assert s.coeffs == (1, 0, 0, -1, 0, 0, 0, 0, 0, 1)

    def test_alternating_triangular_constant_term(self):
        assert alternating_triangular(1, 1).coeff(0) == 1

    def test_alternating_triangular_rejects_bad_t(self):
        with pytest.raises(ValueError):
            alternating_triangular(0, 5)

    def test_theta_psi_small(self):
        s = theta_psi(11)
        assert [n for n in range(11) if s.coeff(n)] == [0, 1, 3, 6, 10]
        assert set(s.coeffs) == {0, 1}

    def test_theta_psi_spot_values(self):
        s = theta_psi(16)
        assert s.coeff(15) == 1
        assert s.coeff(2) == 0

    @pytest.mark.parametrize("order", [1, 4, 30, 150])
    def test_theta_psi_product_form(self, order):
        # (q^2;q^2)^2 / (q;q), both multiplied out one factor at a time
        square = schoolbook_power(euler_product_by_factors(2, order), 2, order)
        quotient = back_substitution(square, euler_product_by_factors(1, order), order)
        assert list(theta_psi(order).coeffs) == quotient

    def test_jacobi_and_psi_agree_mod2(self):
        assert [c % 2 for c in jacobi_cube(300).coeffs] == [c % 2 for c in theta_psi(300).coeffs]


class TestDissect:
    def test_even_odd_split(self):
        s = TruncatedSeries([1, 1, 2, 3, 5, 7, 11])
        assert dissect(s, 2, 0).coeffs == (1, 2, 5, 11)
        assert dissect(s, 2, 1).coeffs == (1, 3, 7)

    def test_identity_dissection(self):
        s = TruncatedSeries([4, -2, 0, 9])
        assert dissect(s, 1, 0) == s

    def test_bad_residue(self):
        with pytest.raises(ValueError):
            dissect(TruncatedSeries([1, 2, 3]), 2, 2)

    def test_bad_modulus(self):
        with pytest.raises(ValueError, match="modulus"):
            dissect(TruncatedSeries([1, 2, 3]), 0, 0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            dissect(TruncatedSeries([1]), 3, 2)

    def test_mod2_dissection(self):
        s = TruncatedSeries([1, 0, 1, 1, 0, 1, 1], MOD2)
        assert dissect(s, 2, 0).coeffs == (1, 1, 0, 1)
        assert dissect(s, 3, 1).coeffs == (0, 0)

    @given(st.one_of(int_series, mod2_series), st.integers(1, 12), st.data())
    def test_matches_coefficient_slice(self, s, modulus, data):
        residue = data.draw(st.integers(0, min(modulus, s.order) - 1))
        got = dissect(s, modulus, residue)
        assert got.domain is s.domain
        assert got.coeffs == s.coeffs[residue::modulus]

    @given(int_series, st.integers(1, 5))
    def test_interleaving_reconstructs(self, s, modulus):
        pieces = [dissect(s, modulus, r) for r in range(min(modulus, s.order))]
        rebuilt = [None] * s.order
        for r, piece in enumerate(pieces):
            for i, c in enumerate(piece.coeffs):
                rebuilt[modulus * i + r] = c
        assert tuple(rebuilt) == s.coeffs


def reduced_mod2(s):
    """The GF(2) series of an integer series' coefficients mod 2."""
    return TruncatedSeries([c % 2 for c in s.coeffs], MOD2)


class TestReduceMod2:
    # reduction mod 2 of the coefficients ties the two domains together
    def test_partition_parity_matches_oracle(self):
        parity = [c % 2 for c in series_recip(euler_product(1, 200)).coeffs]
        assert parity == [p & 1 for p in partition_counts(200)]

    @given(int_series, int_series)
    def test_commutes_with_mul(self, a, b):
        product = TruncatedSeries(schoolbook_mul(a.coeffs, b.coeffs, min(a.order, b.order)))
        assert reduced_mod2(product) == series_mul(reduced_mod2(a), reduced_mod2(b))


class TestFreshmansDream:
    @given(mod2_series)
    def test_square_is_dilation(self, s):
        sq = series_mul(s, s)
        for n in range(s.order):
            if n % 2 == 0:
                assert sq.coeff(n) == s.coeff(n // 2)
            else:
                assert sq.coeff(n) == 0

    def test_euler_square_is_dilated_euler(self):
        euler = euler_product(1, 240, domain=MOD2)
        assert series_mul(euler, euler) == euler_product(2, 240, domain=MOD2)


@pytest.mark.parametrize("order", [1, 7, 8, 9, 600])
@given(data=st.data())
def test_mod2_views_equal_the_coefficient_walk(order, data):
    for bits in (0, 2**order - 1, data.draw(st.integers(0, 2**order - 1))):
        s = TruncatedSeries._make(bits, order, MOD2)
        walk = [s.coeff(n) for n in range(order)]
        assert s.coeffs == tuple(walk)
        assert s.digits == "".join(map(str, walk))
        assert list(nonzero_indices(s)) == [n for n in range(order) if walk[n]]


def test_nonzero_indices_both_domains():
    s = TruncatedSeries([0, 5, 0, -2, 0])
    assert list(nonzero_indices(s)) == [1, 3]
    m = TruncatedSeries([0, 1, 0, 1, 1], MOD2)
    assert list(nonzero_indices(m)) == [1, 3, 4]
