"""Brute-force module: frozen enumeration values and counting identities."""

import pickle
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapperms import (
    ABSOLUTE,
    SIGNED,
    EnumerationCapError,
    ExceptionSpec,
    SequenceSpec,
    brute_count,
    count_with_exceptions,
    single_violation_at,
    violation_profile,
)
from gapperms.inclusion_exclusion import partition_sum

from boards import cut_board


def test_brute_count_examples():
    assert brute_count(SequenceSpec(4, 4, SIGNED), 3) == 6  # n <= r: all of 3!
    assert brute_count(SequenceSpec(1, 1, SIGNED), 3) == 3  # 132, 213, 321
    assert brute_count(SequenceSpec(2, 2, SIGNED), 4) == 18  # 24 - 4 - 4 + 2
    assert brute_count(SequenceSpec(1, 1, ABSOLUTE), 4) == 2  # 2413, 3142


def test_brute_count_empty_permutation():
    assert brute_count(SequenceSpec(1, 1, SIGNED), 0) == 1
    assert brute_count(SequenceSpec(3, 2, ABSOLUTE), 0) == 1


def test_violation_profile_examples():
    assert violation_profile(SequenceSpec(1, 1, SIGNED), 3) == [3, 2, 1]
    assert violation_profile(SequenceSpec(1, 1, SIGNED), 2) == [1, 1]
    assert violation_profile(SequenceSpec(1, 1, ABSOLUTE), 3) == [0, 4, 2]


def test_profile_sums_and_head():
    for r, s in [(1, 1), (1, 2), (2, 2), (2, 1), (3, 2), (1, 3), (3, 3)]:
        for mode in (SIGNED, ABSOLUTE):
            spec = SequenceSpec(r, s, mode)
            for n in range(0, 8):
                profile = violation_profile(spec, n)
                assert sum(profile) == factorial(n)
                assert profile[0] == brute_count(spec, n)
                if n >= 1 + r:
                    ones = sum(single_violation_at(spec, n, i) for i in range(1, n - r + 1))
                    assert ones == profile[1]
                if n >= max(r, s, 2):
                    # each of the n - r links meets a forbidden difference in
                    # (n - s)(n - 2)! permutations, twice as many for +-s
                    pairs = (n - r) * (n - s) * factorial(n - 2)
                    expected = 2 * pairs if mode == ABSOLUTE else pairs
                    assert sum(k * t for k, t in enumerate(profile)) == expected


@settings(max_examples=25, deadline=None)
@given(
    r=st.integers(1, 3),
    s=st.integers(1, 3),
    mode=st.sampled_from([SIGNED, ABSOLUTE]),
    n=st.integers(0, 6),
)
def test_profile_partitions_all_permutations(r, s, mode, n):
    profile = violation_profile(SequenceSpec(r, s, mode), n)
    assert sum(profile) == factorial(n)
    assert all(v >= 0 for v in profile)


def test_single_violation_examples():
    spec = SequenceSpec(1, 1, ABSOLUTE)
    assert single_violation_at(spec, 2, 1) == 2
    assert single_violation_at(spec, 3, 2) == 2
    assert single_violation_at(spec, 3, 1) == 2


def test_single_violation_rejects_bad_index():
    with pytest.raises(ValueError):
        single_violation_at(SequenceSpec(1, 1, SIGNED), 4, 4)
    with pytest.raises(ValueError):
        single_violation_at(SequenceSpec(2, 1, SIGNED), 4, 3)


def test_proposition_identity_signed():
    # one-violation count vs (n-1) * clean count, one shorter
    spec = SequenceSpec(1, 1, SIGNED)
    for n in range(2, 8):
        b_n = violation_profile(spec, n)[1]
        assert b_n == (n - 1) * brute_count(spec, n - 1)


def test_lemma_identities_absolute():
    spec = SequenceSpec(1, 1, ABSOLUTE)
    a = {n: brute_count(spec, n) for n in range(0, 8)}
    b = {n: violation_profile(spec, n)[1] for n in range(2, 8)}
    c = {n: single_violation_at(spec, n, n - 1) for n in range(2, 8)}
    for n in range(4, 8):
        assert b[n] == 2 * (n - 1) * a[n - 1] + 2 * b[n - 1] + b[n - 2]
    for n in range(3, 8):
        assert c[n] == 2 * a[n - 1] + c[n - 1]


def test_count_with_exceptions_examples():
    assert count_with_exceptions(ExceptionSpec(3)) == 3
    assert count_with_exceptions(ExceptionSpec(3, {1, 2})) == 6
    assert count_with_exceptions(ExceptionSpec(3, {2})) == 4
    assert count_with_exceptions(ExceptionSpec(3, {1}, {1})) == 5


def test_count_with_exceptions_no_waivers_matches_brute():
    for mode in (SIGNED, ABSOLUTE):
        for n in range(0, 7):
            assert count_with_exceptions(ExceptionSpec(n, mode=mode)) == brute_count(
                SequenceSpec(1, 1, mode), n
            )


def test_endpoint_rules_differ_where_expected():
    # A value waiver v lifts the links whose value pair is {v, v+1}.  With
    # the cut at 2 this counts the gap-2 diagonal at n = 3 and 4; a waiver on
    # the left value alone would give 12 at n = 4, and one on either value 6
    # at n = 3, and neither is the diagonal.
    ex = ExceptionSpec(4, {2}, {2}, ABSOLUTE)
    assert count_with_exceptions(ex) == 16 == brute_count(SequenceSpec(2, 2, ABSOLUTE), 4)
    ex3 = ExceptionSpec(3, {2}, {2}, ABSOLUTE)
    assert count_with_exceptions(ex3) == 4 == brute_count(SequenceSpec(2, 2, ABSOLUTE), 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 7), mode=st.sampled_from([SIGNED, ABSOLUTE]))
def test_many_waivers_match_cut_board_sum(data, n, mode):
    # a waived link is never chosen, so no position tile spans it; a waived
    # value pair {v, v+1} likewise cuts the value board after v
    positions = data.draw(st.frozensets(st.integers(1, n - 1)), label="positions")
    values = data.draw(st.frozensets(st.integers(1, n)), label="values")
    expected = partition_sum(cut_board(n, positions),
                             cut_board(n, {v for v in values if v < n}), n, mode)
    assert count_with_exceptions(ExceptionSpec(n, positions, values, mode)) == expected


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError, match="n=12 exceeds the enumeration cap 11"):
        brute_count(SequenceSpec(1, 1, SIGNED), 12)
    with pytest.raises(EnumerationCapError):
        violation_profile(SequenceSpec(1, 1, SIGNED), 12)
    with pytest.raises(EnumerationCapError):
        count_with_exceptions(ExceptionSpec(12))
    assert brute_count(SequenceSpec(1, 1, SIGNED), 8) == 16687


def test_brute_count_refuses_negative_n():
    with pytest.raises(ValueError, match="^n must be >= 0$") as caught:
        brute_count(SequenceSpec(1, 1, SIGNED), -1)
    assert not isinstance(caught.value, EnumerationCapError)


def test_spec_validation():
    bad_mode = "mode must be one of ('signed', 'absolute'), got 'weird'"
    for make, message in (
        (lambda: SequenceSpec(0, 1, SIGNED), "r and s must be >= 1, got r=0, s=1"),
        (lambda: SequenceSpec(r=2, s=0, mode=SIGNED), "r and s must be >= 1, got r=2, s=0"),
        (lambda: SequenceSpec(1, 1, "weird"), bad_mode),
        (lambda: ExceptionSpec(-1), "n must be >= 0"),
        (lambda: ExceptionSpec(3, mode="weird"), bad_mode),
        (lambda: ExceptionSpec(3, {3}), "positions must lie in 1..2"),  # out of 1..n-1
        (lambda: ExceptionSpec(3, values={4}), "values must lie in 1..3"),
    ):
        with pytest.raises(ValueError) as caught:
            make()
        assert str(caught.value) == message


def test_specs_are_immutable_records():
    spec = SequenceSpec(r=2, s=2, mode=SIGNED)
    assert spec == SequenceSpec(2, 2, SIGNED) != SequenceSpec(2, 2, ABSOLUTE)
    assert spec == (2, 2, SIGNED) and (spec.r, spec.s, spec.mode) == (2, 2, SIGNED)
    assert repr(spec) == "SequenceSpec(r=2, s=2, mode='signed')"
    assert hash(spec) == hash(SequenceSpec(2, 2, SIGNED)) and len({spec, spec}) == 1
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert type(pickle.loads(pickle.dumps(spec))) is SequenceSpec
    with pytest.raises(AttributeError):
        spec.r = 3
    ex = ExceptionSpec(4, positions=[1, 3], values=(2,))
    assert ex == ExceptionSpec(4, frozenset({3, 1}), frozenset({2}), SIGNED)
    assert type(ex.positions) is type(ex.values) is frozenset
    assert repr(ExceptionSpec(3, [1], mode=ABSOLUTE)) == (
        "ExceptionSpec(n=3, positions=frozenset({1}), values=frozenset(), mode='absolute')"
    )
    assert ExceptionSpec(0) == (0, frozenset(), frozenset(), SIGNED)
