"""Tiling enumerators: printed fixtures, cross-checks, aggregation identities."""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapperms import (
    ABSOLUTE,
    coefficient,
    fast22,
    fast_r1,
    format_polynomial,
    tiling_polynomial,
)
from gapperms.tilings import (
    _fields,
    _interval_factor,
    _multiply,
    _operands,
    _product,
    _tiling_terms,
    pack,
    partition_weight,
    run_profile,
    tiling_polynomial_direct,
    trim,
    unpack,
)

from boards import interval_terms

F35 = {(5,): 1, (3, 1): 2, (1, 2): 1}
F37 = {
    (7,): 1,
    (5, 1): 4,
    (4, 0, 1): 1,
    (3, 2): 5,
    (2, 1, 1): 2,
    (1, 3): 2,
    (0, 2, 1): 1,
}


def brute_tilings(r, n):
    """Independent oracle: recursively place the tile covering the smallest
    uncovered cell.  Yields each tiling as a tuple of tile sizes."""

    def rec(covered):
        if len(covered) == n:
            yield ()
            return
        p = min(set(range(1, n + 1)) - covered)
        size = 1
        while p + (size - 1) * r <= n:
            cells = {p + k * r for k in range(size)}
            if cells & covered:
                break
            for rest in rec(covered | cells):
                yield (size,) + rest
            size += 1

    return list(rec(set()))


def profile_of(sizes, n):
    freqs = [0] * n
    for size in sizes:
        freqs[size - 1] += 1
    return trim(freqs)


def test_printed_fixtures():
    assert tiling_polynomial(3, 5).terms == F35
    assert tiling_polynomial(3, 7).terms == F37


def test_small_boards():
    assert tiling_polynomial(1, 0).terms == {(): 1}
    assert tiling_polynomial(1, 2).terms == {(2,): 1, (0, 1): 1}


def test_matches_brute_enumeration():
    for r in (1, 2, 3, 4):
        for n in range(0, 9):
            expected = {}
            for sizes in brute_tilings(r, n):
                key = profile_of(sizes, n)
                expected[key] = expected.get(key, 0) + 1
            assert tiling_polynomial(r, n).terms == expected, (r, n)


@pytest.mark.parametrize("r,n", [(1, 30), (2, 24), (3, 15), (5, 12), (4, 10)])
def test_residue_factorization_matches_direct_scan(r, n):
    assert tiling_polynomial(r, n).terms == tiling_polynomial_direct(r, n).terms


@settings(max_examples=60, deadline=None)
@given(gap=st.integers(1, 5), n=st.integers(0, 24))
def test_slotted_enumerator_expands_to_direct_scan(gap, n):
    direct = tiling_polynomial_direct(gap, n).terms
    assert tiling_polynomial(gap, n).terms == direct
    # (n,) sits in slot 0; the all-2s monomial (0, n/2) in the top a_2 slot
    extremes = [(n,)] + ([(0, n // 2)] if n % 2 == 0 else [])
    for mono in list(direct) + extremes:
        assert coefficient(gap, n, mono) == direct.get(trim(mono), 0), mono


@pytest.mark.parametrize("gap,n", [(1, 0), (1, 1), (1, 24), (2, 2), (2, 33), (3, 45),
                                   (4, 52), (5, 7), (6, 60)])
def test_slots_never_carry(gap, n):
    slots = []
    for value in _tiling_terms(gap, n).values():
        while value:
            slots.append(value & ((1 << n + 1) - 1))
            value >>= n + 1
    # a carry out of a slot would lose 2^(n+1) - 1 from this total
    assert sum(slots) == 2 ** (n - min(gap, n))
    assert max(slots) < 2 ** (n + 1)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 2 ** 20), st.integers(-10 ** 6, 10 ** 6), max_size=12))
@example({})
@example({0: 1})
def test_square_matches_multiply(p):
    assert _multiply(p, p) == _multiply(p, dict(p))  # the square walk against the ordered one


def folded_board(gap, n):
    """The board as a left fold of _multiply over its residue classes in
    order: the reference for the squared halves of _operands and _product."""
    poly = {0: 1}
    for j in range(1, min(gap, n) + 1):
        poly = _multiply(poly, _interval_factor((n - j) // gap + 1, n))
    return poly


def test_board_matches_fold_over_classes():
    # and its k parts, by a_3 + a_4 mod k, split its keys between them
    for gap in range(1, 9):
        for n in range(31):
            board = _tiling_terms(gap, n)
            assert board == folded_board(gap, n), (gap, n)
            operands = _operands(gap, n, lambda size: _interval_factor(size, n))
            for k in (2, 3):
                merged = {}
                for part in range(k):
                    for key, value in _product(*operands, n, part, k).items():
                        a_3_a_4 = sum(unpack(key, n)[:2])
                        assert a_3_a_4 % k == part and key not in merged, (gap, n, k, key)
                        merged[key] = value
                assert merged == board, (gap, n, k)


def test_interval_tilings_are_compositions():
    for n in range(1, 16):
        assert sum(tiling_polynomial(1, n).terms.values()) == 2 ** (n - 1)
    # the closed form equals the composition DP, slotted; L = 0, 1, 2 have no
    # part >= 3, and the wider board n = 2L + 3 changes the field widths
    for length in range(0, 21):
        for n in (length, 2 * length + 3):
            want = {}
            for mono, count in interval_terms(length).items():
                key, shift = pack(mono[2:], n), sum(mono[1:2]) * (n + 1)
                want[key] = want.get(key, 0) + (count << shift)
            assert _interval_factor(length, n) == want, (length, n)


@settings(max_examples=40, deadline=None)
@given(r=st.integers(1, 8), n=st.integers(0, 14))
def test_every_monomial_partitions_n(r, n):
    poly = tiling_polynomial(r, n)
    for mono, count in poly.terms.items():
        assert partition_weight(mono) == n
        assert mono == trim(mono)
        assert count > 0


def test_coefficient_examples():
    assert coefficient(3, 5, (3, 1)) == 2
    assert coefficient(3, 5, (5,)) == 1
    assert coefficient(3, 5, (0, 1, 1)) == 0  # absent monomial
    assert coefficient(1, 4, (4, 0, 0, 0)) == 1  # trailing zeros tolerated


def test_coefficient_rejects_non_partition():
    with pytest.raises(ValueError):
        coefficient(3, 5, (2, 2))  # weighs 6, not 5
    with pytest.raises(ValueError):
        coefficient(2, 6, (1, 1))  # weighs 3, not 6


def test_coefficient_rejects_gap_below_one_before_caching():
    _tiling_terms.cache_clear()
    for r, n, freqs in ((0, 3, (3,)), (0, 0, ()), (-1, 2, (2,))):
        with pytest.raises(ValueError, match="gap must be >= 1"):
            coefficient(r, n, freqs)
    assert _tiling_terms.cache_info().currsize == 0


def test_coefficient_at_extreme_fields():
    for r in (1, 2, 3, 4):
        for n in (1, 2, 3, 4, 7, 8, 9, 15, 16):
            terms = tiling_polynomial(r, n).terms
            singletons, whole = (n,), (0,) * (n - 1) + (1,)
            assert coefficient(r, n, singletons) == terms.get(singletons, 0) == 1
            assert coefficient(r, n, whole) == terms.get(whole, 0), (r, n)
            with pytest.raises(ValueError):
                coefficient(r, n, (n, 1))
    # (3, -1) weighs 1, and a negative a_2 would borrow a_1's overflow
    with pytest.raises(ValueError):
        coefficient(1, 1, (3, -1))


def monomials_within(data, n, label):
    """A frequency vector of weight <= n, drawn as a list of part sizes."""
    parts, weight = [], 0
    for size in data.draw(st.lists(st.integers(1, max(n, 1)), max_size=n), label=label):
        if weight + size <= n:
            parts.append(size)
            weight += size
    return profile_of(parts, n), weight


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 80))
def test_pack_round_trip_and_addition(data, n):
    a, wa = monomials_within(data, n, "a")
    b, _ = monomials_within(data, n - wa, "b")
    high_a, high_b = a[2:], b[2:]  # a key packs (a_3, a_4, ...)
    assert unpack(pack(high_a, n), n) == high_a
    total = [x + y for x, y in zip(high_a + (0,) * n, high_b + (0,) * n)]
    assert unpack(pack(high_a, n) + pack(high_b, n), n) == trim(total)


@pytest.mark.parametrize("n", [2 ** k for k in range(7)] + [2 ** k - 1 for k in range(1, 7)])
def test_pack_fields_at_powers_of_two(n):
    fields = _fields(n)
    assert [i for i, _, _ in fields] == list(range(3, n + 1))  # a_1 and a_2 get no field
    widths = [mask.bit_length() for _, _, mask in fields]
    assert all(mask == (1 << width) - 1 for (_, _, mask), width in zip(fields, widths))
    assert [shift for _, shift, _ in fields] == [sum(widths[:j]) for j in range(len(widths))]
    for i in range(3, n + 1):
        most = (0,) * (i - 3) + (n // i,)  # the most parts of size i
        assert unpack(pack(most, n), n) == most
        assert pack(most, n) < 1 << sum(widths[:i - 2])  # below the next field
    if n < 3:
        assert pack((), n) == 0 and unpack(0, n) == ()
        return
    if n // 3 == 2 ** widths[0] - 1:
        assert pack((n // 3,), n) == (1 << widths[0]) - 1  # a_3 fills its field
    whole = (0,) * (n - 3) + (1,)
    assert pack(whole, n) == 1 << sum(widths[:-1])
    assert unpack(pack(whole, n), n) == whole


def test_run_profile_examples():
    assert run_profile(1, 3).counts == {(3, 0): 1, (2, 1): 2, (1, 1): 1}
    assert run_profile(2, 3).counts == {(3, 0): 1, (2, 1): 1}
    assert run_profile(1, 1).counts == {(1, 0): 1}


def test_run_profile_aggregates_tiling_polynomial():
    for s in (1, 2, 3):
        for n in range(0, 14):
            agg = {}
            for mono, count in tiling_polynomial(s, n).terms.items():
                key = (sum(mono), sum(mono[1:]))
                agg[key] = agg.get(key, 0) + count
            assert run_profile(s, n).counts == agg, (s, n)


def test_run_profile_invariants():
    for s in (1, 2, 4):
        for n in range(0, 12):
            counts = run_profile(s, n).counts
            assert sum(counts.values()) == sum(tiling_polynomial(s, n).terms.values())
            for (m, c), v in counts.items():
                assert 0 <= c <= m <= n
                assert v > 0
                if c == 0:
                    assert m == n


def test_weight_engines_keep_no_memory_between_calls():
    tracemalloc.start()
    try:
        fast_r1(1, ABSOLUTE, 300)
        fast22(120, ABSOLUTE)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 100_000, kept  # no weight table outlives the call that built it


def test_format_polynomial_golden():
    assert format_polynomial(tiling_polynomial(3, 5)) == (
        "1 * x1^5\n2 * x1^3 x2^1\n1 * x1^1 x2^2"
    )
    assert format_polynomial(tiling_polynomial(3, 7)) == "\n".join(
        [
            "1 * x1^7",
            "4 * x1^5 x2^1",
            "1 * x1^4 x3^1",
            "5 * x1^3 x2^2",
            "2 * x1^2 x2^1 x3^1",
            "2 * x1^1 x2^3",
            "1 * x2^2 x3^1",
        ]
    )
    assert format_polynomial(tiling_polynomial(1, 0)) == "1 * 1"


def test_gap_wider_than_board():
    # no multi-cell tile fits, so the only tiling is all singletons
    assert tiling_polynomial(10, 3).terms == {(3,): 1}
    assert tiling_polynomial(4, 4).terms == {(4,): 1}
    assert tiling_polynomial(4, 5).terms == {(5,): 1, (3, 1): 1}
    assert run_profile(5, 3).counts == {(3, 0): 1}


def test_argument_validation():
    with pytest.raises(ValueError):
        tiling_polynomial(0, 3)
    with pytest.raises(ValueError):
        tiling_polynomial(1, -1)
    with pytest.raises(ValueError):
        run_profile(0, 3)
