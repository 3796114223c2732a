"""Partition-sum engine against the oracle and its printed fixture."""

from itertools import zip_longest
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapperms import ABSOLUTE, SIGNED, SequenceSpec, brute_count, count, sequence
from gapperms.inclusion_exclusion import partition_sum
from gapperms.tilings import _tiling_terms, coefficient, trim

from boards import cut_board, interval_terms

A44_FIRST_TEN = [1, 2, 6, 24, 114, 628, 4062, 30360, 255186, 2414292]


def partitions(n):
    """Independent frequency-notation partition generator."""

    def rec(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    for parts in rec(n, n):
        freqs = [0] * n
        for p in parts:
            freqs[p - 1] += 1
        while freqs and freqs[-1] == 0:
            freqs.pop()
        yield tuple(freqs)


def test_printed_fixture_a44():
    spec = SequenceSpec(4, 4, SIGNED)
    assert sequence(spec, 10) == A44_FIRST_TEN
    assert count(spec, 2) == 2


def test_hand_expanded_small_cases():
    assert count(SequenceSpec(1, 1, SIGNED), 3) == 3  # 6 - 2*2*1 + 1
    assert count(SequenceSpec(1, 1, ABSOLUTE), 3) == 0  # 6 - 8 + 2


def test_trivial_factorials_below_r():
    assert sequence(SequenceSpec(5, 3, SIGNED), 5) == [1, 2, 6, 24, 120]
    assert count(SequenceSpec(7, 2, ABSOLUTE), 6) == factorial(6)


def test_n_zero_counts_empty_permutation():
    assert count(SequenceSpec(2, 3, SIGNED), 0) == 1
    assert count(SequenceSpec(1, 1, ABSOLUTE), 0) == 1


def test_oracle_equivalence_small_grid():
    # acceptance runs the full {1,2,3}^2 x modes x n<=8 grid; keep a fast
    # representative slice here
    for r, s in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]:
        for mode in (SIGNED, ABSOLUTE):
            spec = SequenceSpec(r, s, mode)
            for n in range(0, 7):
                assert count(spec, n) == brute_count(spec, n), (r, s, mode, n)


def test_symmetry_in_r_and_s():
    for r, s in [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4)]:
        for mode in (SIGNED, ABSOLUTE):
            for n in range(0, 11):
                assert count(SequenceSpec(r, s, mode), n) == count(
                    SequenceSpec(s, r, mode), n
                )


def test_sum_over_all_partitions_matches_support_intersection():
    # absent coefficients are zero, so summing over every partition of n
    # (independent generator) must reproduce the engine's support-restricted sum;
    # from n = 18 on, partition_sum splits each key into two decoded halves
    for r, s, mode, n in [
        (2, 2, SIGNED, 9),
        (2, 3, ABSOLUTE, 8),
        (3, 3, SIGNED, 10),
        (1, 2, ABSOLUTE, 7),
        (2, 2, SIGNED, 18),
        (3, 3, ABSOLUTE, 23),
        (4, 4, SIGNED, 30),
        (2, 3, ABSOLUTE, 20),
        (3, 1, SIGNED, 26),
        (4, 2, ABSOLUTE, 29),
    ]:
        total = 0
        for freqs in partitions(n):
            ca = coefficient(r, n, freqs)
            if ca == 0:
                continue
            cb = coefficient(s, n, freqs)
            if cb == 0:
                continue
            m = sum(freqs)
            term = ca * cb
            for a in freqs:
                term *= factorial(a)
            if mode == ABSOLUTE:
                term *= 2 ** (m - (freqs[0] if freqs else 0))
            total += term if (n - m) % 2 == 0 else -term
        assert total == count(SequenceSpec(r, s, mode), n), (r, s, mode, n)
        for board in (_tiling_terms(r, n), _tiling_terms(s, n)):
            # one board passed twice skips the second lookup; a copy does not
            assert partition_sum(board, board, n, mode) == \
                partition_sum(board, dict(board), n, mode), (r, s, mode, n)


def test_all_singleton_term_is_positive():
    # the profile with n singletons has sign +1 and contributes n!
    for n in range(1, 6):
        assert coefficient(1, n, (n,)) == 1
        assert count(SequenceSpec(1, 1, SIGNED), n) <= factorial(n)


def test_sequence_wrapper():
    spec = SequenceSpec(2, 2, SIGNED)
    assert sequence(spec, 6) == [count(spec, n) for n in range(1, 7)]
    with pytest.raises(ValueError):
        sequence(spec, 0)
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        count(spec, -1)


def test_sequence_keeps_at_most_two_boards():
    # a board is sized by its n, so boards of earlier n are never read again
    sequence(SequenceSpec(2, 3, SIGNED), 12)
    assert _tiling_terms.cache_info().currsize <= 2


def tuple_cut_board(n, cuts):
    """cut_board with tuple keys: the interval enumerators of the pieces,
    multiplied by adding frequency vectors."""
    board, start = {(): 1}, 0
    for end in sorted(cuts) + [n]:
        product = {}
        for ma, ca in board.items():
            for mb, cb in interval_terms(end - start).items():
                key = trim(x + y for x, y in zip_longest(ma, mb, fillvalue=0))
                product[key] = product.get(key, 0) + ca * cb
        board, start = product, end
    return board


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, 16), mode=st.sampled_from([SIGNED, ABSOLUTE]))
def test_partition_sum_matches_tuple_keyed_sum(data, n, mode):
    cuts_a = {c for c in data.draw(st.frozensets(st.integers(1, 15)), label="cuts_a") if c < n}
    cuts_b = {c for c in data.draw(st.frozensets(st.integers(1, 15)), label="cuts_b") if c < n}
    pa, pb = tuple_cut_board(n, cuts_a), tuple_cut_board(n, cuts_b)
    expected = 0
    for freqs, ca in pa.items():
        term = ca * pb.get(freqs, 0) * (-1) ** (n - sum(freqs))
        for i, a in enumerate(freqs, start=1):
            term *= factorial(a) * (2 ** a if mode == ABSOLUTE and i > 1 else 1)
        expected += term
    assert partition_sum(cut_board(n, cuts_a), cut_board(n, cuts_b), n, mode) == expected


@pytest.mark.parametrize("mode", [SIGNED, ABSOLUTE])
def test_one_board_walk_matches_two_board_walk(mode):
    # r = s passes one dict twice, and partition_sum squares each slot of it;
    # a copy takes the two-board walk
    for gap in range(1, 5):
        for n in range(21):
            board = _tiling_terms(gap, n)
            assert partition_sum(board, board, n, mode) == \
                partition_sum(board, dict(board), n, mode), (gap, n)
