"""The r = 1 specials: alternating sums, recurrences, the tile-weight table and
its summation."""

import time
from math import factorial

import pytest

from gapperms import (
    ABSOLUTE,
    SIGNED,
    SequenceSpec,
    brute_count,
    count,
    fast_r1,
    navarrete_recurrence,
    navarrete_sum,
    riordan_sequence,
    robbins,
)
from gapperms.closed_forms import _interval_weight_table

import boards


def test_navarrete_sum_examples():
    assert navarrete_sum(1, 4) == 11  # 24 - 3*6 + 3*2 - 1
    assert navarrete_sum(2, 2) == 2
    assert navarrete_sum(1, 3) == 3  # 6 - 2*2 + 1


def test_navarrete_sum_below_domain_is_factorial():
    for s in range(2, 6):
        for n in range(0, s):
            assert navarrete_sum(s, n) == factorial(n)


def test_navarrete_recurrence_examples():
    assert navarrete_recurrence(1, 4) == [1, 1, 3, 11]
    assert navarrete_recurrence(1, 1) == [1]
    assert navarrete_recurrence(3, 3) == [1, 2, 6]
    # n_max inside the factorial seed region, and just past it
    assert navarrete_recurrence(4, 2) == [1, 2]
    assert navarrete_recurrence(2, 6) == [1, 2, 4, 14, 64, 362]


def test_navarrete_recurrence_matches_sum():
    for s in range(1, 5):
        rec = navarrete_recurrence(s, 60)
        for n in range(1, 61):
            assert rec[n - 1] == navarrete_sum(s, n), (s, n)


def test_navarrete_matches_oracle_small():
    # s up to 8 covers every factorial seed of the recurrence within n <= 7
    for s in range(1, 9):
        rec = navarrete_recurrence(s, 7)
        for n in range(0, 8):
            want = brute_count(SequenceSpec(1, s, SIGNED), n)
            assert navarrete_sum(s, n) == want, (s, n)
            assert n == 0 or rec[n - 1] == want, (s, n)


def test_second_order_identity_for_s1():
    # a(n) = (n-1) a(n-1) + (n-2) a(n-2) identically
    a = navarrete_recurrence(1, 40)
    for n in range(3, 41):
        assert a[n - 1] == (n - 1) * a[n - 2] + (n - 2) * a[n - 3]


def test_riordan_examples():
    seq = riordan_sequence(5)
    assert seq[0] == 1
    assert seq[3] == 2
    assert seq[4] == 14  # 6*2 - 3*0 - 0*0 + 2*1


def test_robbins_examples():
    assert robbins(1) == 1
    assert robbins(3) == 0
    assert robbins(4) == 2  # 24 - 36 + 16 - 2, with the i=0 term read as n!


def test_interval_weights_aggregate_compositions():
    for absolute in (False, True):
        table = _interval_weight_table(12, absolute)
        for length in range(0, 13):
            want = [0] * (length + 1)
            for mono, ways in boards.interval_terms(length).items():
                m, runs = sum(mono), sum(mono[1:])
                want[m] += (-1) ** (length - m) * ways * (2 ** runs if absolute else 1)
            assert list(table[length]) == want, (length, absolute)


def test_interval_weights_match_the_profile_aggregation():
    for absolute in (False, True):
        table = _interval_weight_table(80, absolute)
        assert len(table) == 81
        for length in range(81):
            assert table[length] == boards.profile_weights(length, absolute)


def test_long_interval_weight_table_ends_in_one_run():
    w = _interval_weight_table(1500, True)[-1]
    assert (w[0], w[1], w[-1]) == (0, -2, 1)  # one run of all 1500 values, either way


def test_fast_r1_examples():
    assert fast_r1(2, ABSOLUTE, 3) == [1, 2, 2]  # values 1,3 never adjacent
    assert fast_r1(1, ABSOLUTE, 4)[-1] == 2
    assert fast_r1(1, SIGNED, 4)[-1] == navarrete_sum(1, 4)
    assert fast_r1(5, ABSOLUTE, 4) == [1, 2, 6, 24]  # s > n: nothing is forbidden
    with pytest.raises(ValueError):
        fast_r1(0, ABSOLUTE, 3)


@pytest.mark.parametrize("func, args, message", [
    (navarrete_sum, (0, 3), "s must be >= 1"),
    (navarrete_sum, (1, -1), "n must be >= 0"),
    (navarrete_recurrence, (0, 3), "s must be >= 1"),
    (navarrete_recurrence, (1, 0), "n_max must be >= 1"),
    (riordan_sequence, (0,), "n_max must be >= 1"),
    (robbins, (0,), "n must be >= 1"),
    (fast_r1, (0, ABSOLUTE, 3), "s must be >= 1"),
    (fast_r1, (1, ABSOLUTE, 0), "n_max must be >= 1"),
], ids=lambda value: getattr(value, "__name__", None))
def test_argument_checks(func, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        func(*args)


def test_fast_r1_matches_the_board_convolution():
    for s in range(1, 6):
        for mode in (SIGNED, ABSOLUTE):
            assert fast_r1(s, mode, 100) == boards.fast_r1(s, mode, 100), (s, mode)


def test_fast_r1_edge_sizes():
    for mode in (SIGNED, ABSOLUTE):
        for s, n_max in ((7, 5), (5, 5), (3, 1), (1, 1)):  # s > n_max, s = n_max, n_max = 1
            assert fast_r1(s, mode, n_max) == boards.fast_r1(s, mode, n_max), (s, n_max)
        for s in (6, 7):  # no two values of {1..n} differ by s >= n
            assert fast_r1(s, mode, 6) == [factorial(n) for n in range(1, 7)]
        # s = n - 1 forbids only 6 right after 1 (or beside it): 5! placements each
        assert fast_r1(5, mode, 6)[-1] == 720 - (120 if mode == SIGNED else 240)
        assert fast_r1(3, mode, 1) == [1]


def test_absolute_engines_agree_to_40():
    riordan = riordan_sequence(40)
    robb = [robbins(n) for n in range(1, 41)]
    fast = fast_r1(1, ABSOLUTE, 40)
    spec = SequenceSpec(1, 1, ABSOLUTE)
    partition_engine = [count(spec, n) for n in range(1, 41)]
    assert riordan == robb == fast == partition_engine


def test_fast_r1_signed_matches_navarrete_to_40():
    for s in range(1, 5):
        assert fast_r1(s, SIGNED, 40) == navarrete_recurrence(s, 40)


def test_fast_r1_absolute_matches_partition_engine():
    for s in (2, 3, 4):
        spec = SequenceSpec(1, s, ABSOLUTE)
        assert fast_r1(s, ABSOLUTE, 16) == [count(spec, n) for n in range(1, 17)]


def test_fast_r1_is_polynomial_time():
    start = time.perf_counter()
    terms = fast_r1(1, ABSOLUTE, 200)
    elapsed = time.perf_counter() - start
    assert len(terms) == 200
    assert terms[:4] == [1, 0, 0, 2]
    assert elapsed < 30.0  # n=200 in seconds, far beyond the partition engine
