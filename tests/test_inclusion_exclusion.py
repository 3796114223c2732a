"""Partition-sum engine against the oracle and its printed fixture."""

import os
import threading
from itertools import product, zip_longest
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapperms import (ABSOLUTE, SIGNED, SequenceSpec, brute_count, count, inclusion_exclusion,
                      sequence)
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
    # a board is sized by its n, so boards of earlier n are never read again,
    # and count keeps none at all
    _tiling_terms.cache_clear()
    sequence(SequenceSpec(2, 3, SIGNED), 12)
    assert _tiling_terms.cache_info().currsize == 0


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
def test_one_board_walk_matches_two_board_walk(mode, monkeypatch):
    # r = s passes one dict twice, and partition_sum squares each slot of it;
    # a copy takes the two-board walk
    for gap in range(1, 5):
        for n in range(21):
            board = _tiling_terms(gap, n)
            assert partition_sum(board, board, n, mode) == \
                partition_sum(board, dict(board), n, mode), (gap, n)
    # count in k parts, summed here without forking, against the one-part sum
    # of the whole boards; r = s passes each part's one board twice
    monkeypatch.setattr(inclusion_exclusion, "_sum_parts",
                        lambda parts, part_sum: sum(map(part_sum, range(parts))))
    for k in (1, 2, 3):
        monkeypatch.setattr(inclusion_exclusion, "_part_count", lambda pairs: k)
        for n in range(21):
            for r, s in product(range(1, 5), repeat=2):
                whole = partition_sum(_tiling_terms(r, n), _tiling_terms(s, n), n, mode)
                assert count(SequenceSpec(r, s, mode), n) == whole, (r, s, n, k)


def test_part_count_follows_cpus_size_and_threads(monkeypatch):
    monkeypatch.setattr(inclusion_exclusion, "_cpus", lambda: 3)
    per_part = inclusion_exclusion._PAIRS_PER_PART
    assert inclusion_exclusion._part_count(2 * per_part - 1) == 1
    assert inclusion_exclusion._part_count(2 * per_part) == 2
    assert inclusion_exclusion._part_count(10 ** 9) == 3
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert inclusion_exclusion._part_count(10 ** 9) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "fork")
    assert inclusion_exclusion._part_count(10 ** 9) == 1


def forking(monkeypatch, cpus):
    """Force `cpus` parts on every count, and record each fork's pid."""
    monkeypatch.setattr(inclusion_exclusion, "_cpus", lambda: cpus)
    monkeypatch.setattr(inclusion_exclusion, "_PAIRS_PER_PART", 1)
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_count_reaps_its_workers(monkeypatch):
    expected = [count(SequenceSpec(3, 2, mode), 20) for mode in (SIGNED, ABSOLUTE)]
    forks = forking(monkeypatch, 3)
    assert [count(SequenceSpec(3, 2, mode), 20) for mode in (SIGNED, ABSOLUTE)] == expected
    assert len(forks) == 4
    assert_no_child_left()


@pytest.mark.parametrize("in_worker", [True, False])
def test_failed_part_raises_and_reaps(monkeypatch, capfd, in_worker):
    forks = forking(monkeypatch, 2)
    parent, original = os.getpid(), inclusion_exclusion.partition_sum

    def failing(*args):
        if (os.getpid() != parent) == in_worker:
            raise MemoryError("part lost")
        return original(*args)

    monkeypatch.setattr(inclusion_exclusion, "partition_sum", failing)
    with pytest.raises(ChildProcessError if in_worker else MemoryError):
        count(SequenceSpec(4, 4, ABSOLUTE), 20)
    assert len(forks) == 1
    assert_no_child_left()
    assert ("part lost" in capfd.readouterr().err) == in_worker


def test_one_cpu_counts_in_process(monkeypatch):
    monkeypatch.setattr(inclusion_exclusion, "_cpus", lambda: 1)
    monkeypatch.setattr(inclusion_exclusion, "_PAIRS_PER_PART", 1)
    monkeypatch.setattr(os, "fork", None)  # a call would raise TypeError
    assert count(SequenceSpec(4, 4, SIGNED), 10) == A44_FIRST_TEN[-1]
