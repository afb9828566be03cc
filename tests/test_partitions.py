import copy
import pickle
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from mexparity.errors import EnumerationLimitError, LimitError
from mexparity.partitions import (
    ENUMERATION_CEILING,
    MexSpec,
    crank,
    enumerate_partitions,
    mex,
    p_direct,
    rank,
)
from oracles import (
    a_t_direct,
    conjugate,
    crank_rank_tallies_by_partition,
    crank_unordered,
    hook_lengths,
    partition_counts,
    partitions_descending_reference,
    smallest_missing_in_progression,
)

partitions_of = st.integers(1, 18).flatmap(
    lambda n: st.sampled_from(list(enumerate_partitions(n)))
)


class TestEnumeration:
    def test_exact_order_for_4(self):
        assert list(enumerate_partitions(4)) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_matches_recursive_reference_in_order(self):
        for n in range(31):
            assert list(enumerate_partitions(n)) == list(partitions_descending_reference(n))

    def test_zero_yields_empty_partition(self):
        assert list(enumerate_partitions(0)) == [()]

    def test_exact_order_for_1_to_3(self):
        assert list(enumerate_partitions(1)) == [(1,)]
        assert list(enumerate_partitions(2)) == [(2,), (1, 1)]
        assert list(enumerate_partitions(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_count_of_10(self):
        assert sum(1 for _ in enumerate_partitions(10)) == 42

    def test_counts_match_dp_oracle(self):
        dp = partition_counts(ENUMERATION_CEILING + 1)
        for n in range(ENUMERATION_CEILING + 1):
            assert sum(1 for _ in enumerate_partitions(n)) == dp[n]

    def test_counts_match_series_route(self):
        from mexparity.series import euler_product, series_recip

        series = series_recip(euler_product(1, 22))
        for n in range(22):
            assert sum(1 for _ in enumerate_partitions(n)) == series[n]

    def test_yields_valid_partitions_without_repeats(self):
        seen = set()
        for parts in enumerate_partitions(12):
            assert sum(parts) == 12
            assert all(parts[i] >= parts[i + 1] >= 1 for i in range(len(parts) - 1))
            assert parts not in seen
            seen.add(parts)

    def test_ceiling(self):
        # the call itself raises, before any generator exists
        message = f"enumeration of p(46) partitions exceeds the ceiling n <= {ENUMERATION_CEILING}"
        with pytest.raises(EnumerationLimitError, match=re.escape(message)):
            enumerate_partitions(ENUMERATION_CEILING + 1)
        assert issubclass(EnumerationLimitError, LimitError)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="n must be non-negative"):
            enumerate_partitions(-1)


class TestMex:
    def test_examples(self):
        assert mex((2,), MexSpec(1, 1)) == 1
        assert mex((1, 1), MexSpec(1, 1)) == 2
        assert mex((3, 1), MexSpec(3, 3)) == 6

    def test_empty_partition(self):
        assert mex((), MexSpec(5, 5)) == 5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MexSpec(0, 0)
        with pytest.raises(ValueError):
            MexSpec(3, 4)
        with pytest.raises(ValueError):
            MexSpec(3, 0)

    @pytest.mark.parametrize("A, a", [(2.5, 1), (3, 1.0), (3.0, 3), ("3", 3), (3, None)])
    def test_spec_parameters_must_be_integers(self, A, a):
        # a float passes the range checks, and mex would then step through
        # candidates that no part can equal
        with pytest.raises(TypeError):
            MexSpec(A, a)

    def test_spec_is_an_immutable_value(self):
        spec = MexSpec(A=3, a=3)
        assert spec == MexSpec(3, 3) and hash(spec) == hash(MexSpec(3, 3))
        assert spec != MexSpec(3, 1) and spec != (3, 3)
        assert repr(spec) == "MexSpec(A=3, a=3)"
        assert copy.copy(spec) == pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(AttributeError):
            spec.A = 5
        with pytest.raises(AttributeError):
            del spec.a
        assert (spec.A, spec.a) == (3, 3)

    @given(partitions_of, st.integers(1, 6))
    def test_mex_is_first_gap_of_the_progression(self, parts, A):
        for a in range(1, A + 1):
            spec = MexSpec(A, a)
            m = mex(parts, spec)
            assert m == smallest_missing_in_progression(parts, a, A)
            assert m not in parts
            assert (m - a) % A == 0
            assert all(c in parts for c in range(a, m, A))


class TestPDirect:
    def test_examples(self):
        assert p_direct(MexSpec(1, 1), 2) == 1
        assert p_direct(MexSpec(1, 1), 4) == 3
        assert p_direct(MexSpec(3, 3), 1) == 1

    def test_weight_zero_always_counts_the_empty_partition(self):
        for t in (1, 3, 5, 7):
            assert p_direct(MexSpec(t, t), 0) == 1


class TestRankCrank:
    def test_rank_examples(self):
        assert rank((1,)) == 0
        assert rank((2, 1)) == 0
        assert rank((1, 1)) == -1

    def test_rank_empty_rejected(self):
        with pytest.raises(ValueError):
            rank(())

    def test_crank_examples(self):
        assert crank((2,)) == 2
        assert crank((1,)) == -1
        assert crank((1, 1)) == -2
        assert crank((3, 1)) == 0  # one 1, one part > 1

    def test_crank_empty_rejected(self):
        with pytest.raises(ValueError):
            crank(())

    def test_crank_matches_order_free_oracle(self):
        for n in range(2, 26):
            for parts in enumerate_partitions(n):
                assert crank(parts) == crank_unordered(parts), parts

    def test_crank_distribution_is_symmetric(self):
        # Andrews-Garvan: M(m, n) = M(-m, n) for n >= 2
        for n in range(2, 26):
            counts = Counter(crank(parts) for parts in enumerate_partitions(n))
            assert all(counts[m] == counts[-m] for m in counts), n

    def test_crank_equivalence_at_3(self):
        qualifying = [p for p in enumerate_partitions(3) if crank(p) >= 0]
        assert qualifying == [(3,), (2, 1)]
        assert len(qualifying) == p_direct(MexSpec(1, 1), 3)
        # the per-partition route that the counted tallies are checked against
        for n in range(1, 21):
            crank_count, mex11_count, _, _ = crank_rank_tallies_by_partition(n)
            assert mex11_count == p_direct(MexSpec(1, 1), n) == crank_count, n

    def test_rank_equivalence_at_2(self):
        qualifying = [p for p in enumerate_partitions(2) if rank(p) >= -1]
        assert len(qualifying) == 2 == p_direct(MexSpec(3, 3), 2)
        for n in range(1, 21):
            _, _, rank_count, mex33_count = crank_rank_tallies_by_partition(n)
            assert mex33_count == p_direct(MexSpec(3, 3), n) == rank_count, n

    @given(partitions_of)
    def test_rank_negates_under_conjugation(self, parts):
        assert rank(conjugate(parts)) == -rank(parts)

    @given(partitions_of)
    def test_conjugation_is_an_involution(self, parts):
        assert conjugate(conjugate(parts)) == parts

    def test_conjugate_of_the_empty_partition(self):
        assert conjugate(()) == ()


class TestHooks:
    def test_examples(self):
        assert hook_lengths((2,)) == (2, 1)
        assert hook_lengths((2, 1)) == (3, 1, 1)
        assert hook_lengths((1, 1, 1)) == (3, 2, 1)

    def test_empty_partition_has_no_hooks(self):
        assert hook_lengths(()) == ()

    @given(partitions_of)
    def test_one_hook_per_cell(self, parts):
        hooks = hook_lengths(parts)
        assert len(hooks) == sum(parts)
        assert all(h >= 1 for h in hooks)
        # the corner cell has the largest hook: first row plus first column
        assert max(hooks) == parts[0] + len(parts) - 1

    @given(partitions_of)
    def test_hooks_invariant_under_conjugation(self, parts):
        assert hook_lengths(parts) == hook_lengths(conjugate(parts))


class TestTCores:
    def test_examples(self):
        assert a_t_direct(3, 2) == 2
        assert a_t_direct(3, 3) == 0
        assert a_t_direct(3, 0) == 1

    def test_small_t_rejected(self):
        with pytest.raises(ValueError):
            a_t_direct(1, 4)

    def test_large_t_counts_everything(self):
        # no hook of length 9 fits inside 8 cells
        dp = partition_counts(9)
        for n in range(9):
            assert a_t_direct(9, n) == dp[n]
