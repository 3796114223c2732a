"""The RIN exception-count engine and the gap-2 diagonal."""

from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapperms import (
    ABSOLUTE,
    SIGNED,
    ExceptionSpec,
    SequenceSpec,
    brute_count,
    count,
    count_with_exceptions,
    fast22,
    rin,
)
import gapperms.matsuo as matsuo
from gapperms.inclusion_exclusion import partition_sum
from gapperms.matsuo import _link
from gapperms.closed_forms import _interval_weight_table

from boards import cut_board


def rin_reference(n, a, b, mode):
    """Independent route: the partition-sum kernel over cut boards.
    Position tilings may not span the link at a (intervals of [1..a] then
    [a+1..n]); value tilings must cut after b."""
    return partition_sum(cut_board(n, {a}), cut_board(n, {b}), n, mode)


def link_reference(w, size, fact):
    """The link table by its defining sum, L(w)[i][k] = sum_j C(i+j, i) w[j] (j+k)!,
    as columns: out[k][i] = L(w)[i][k]."""
    return [[sum(comb(i + j, i) * wj * fact[j + k] for j, wj in enumerate(w))
             for i in range(size)] for k in range(size)]


def test_link_recurrence_matches_defining_sum():
    fact = [factorial(k) for k in range(2 * 12 + 31)]
    for absolute in (False, True):
        for length, w in enumerate(_interval_weight_table(30, absolute)):
            for size in range(13):
                assert _link(w, size, fact) == link_reference(w, size, fact), \
                    (length, absolute, size)


def link_pair_sum(outer, linked, fact):
    """sum_{i,k} p_i q_k L(f)[i][k] L(g)[k][i] for outer = (p, q), linked = (f, g)."""
    (p, q), (f, g) = outer, linked
    size = max(len(p), len(q))
    lf, lg = link_reference(f, size, fact), link_reference(g, size, fact)
    return sum(x * y * lf[k][i] * lg[i][k] for i, x in enumerate(p) for k, y in enumerate(q))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
                min_size=4, max_size=4))
def test_link_tables_trade_roles(vectors):
    # rin's duality: the outer weight pair and the tabulated pair may swap
    x, y, u, v = vectors
    fact = [factorial(k) for k in range(16)]
    assert link_pair_sum((x, y), (u, v), fact) == link_pair_sum((u, v), (x, y), fact)


def swaps(n, a, b):
    """Whether rin(n, a, b) swaps the two pairs of tile groups, for each t."""
    return [max(a, b) - t < max(t, n - a - b + t)
            for t in range(max(0, a + b - n), min(a, b) + 1)]


def test_rin_matches_split_board_sum_across_the_swap():
    # each call swaps at some t and not at others; with n != a + b the swapped
    # tables come from two different weight vectors
    for n, a, b in [(20, 10, 10), (21, 11, 11), (23, 11, 11), (19, 10, 10),
                    (22, 9, 12), (24, 13, 12), (25, 8, 12)]:
        assert set(swaps(n, a, b)) == {False, True}, (n, a, b)
        for mode in (SIGNED, ABSOLUTE):
            assert rin(n, a, b, mode) == rin_reference(n, a, b, mode), (n, a, b, mode)


@pytest.mark.parametrize("mode", [SIGNED, ABSOLUTE])
def test_rin_mirror_at_n_equal_to_a_plus_b(mode):
    # a = b = n/2: term t mirrors term a - t, so rin sums only t <= a/2
    for a in range(1, 15):
        assert rin(2 * a, a, a, mode) == rin_reference(2 * a, a, a, mode), a


def test_rin_computes_each_mirror_pair_once(monkeypatch):
    calls = []

    def counting_link(w, size, fact):
        calls.append(size)
        return _link(w, size, fact)

    monkeypatch.setattr(matsuo, "_link", counting_link)
    for a in range(1, 15):
        calls.clear()
        rin(2 * a, a, a, SIGNED)
        assert len(calls) == a // 2 + 1, a  # one shared table per t <= a/2
        if a > 1:
            calls.clear()
            rin(2 * a - 1, a, a, SIGNED)  # no mirror: every t, two tables when swapped
            assert len(calls) == sum(1 + swapped for swapped in swaps(2 * a - 1, a, a)), a


def test_rin_examples():
    assert rin(3, 2, 3, SIGNED) == 4
    assert rin(3, 1, 1, SIGNED) == 5
    assert rin(2, 1, 1, SIGNED) == 2


def test_rin_argument_checks():
    with pytest.raises(ValueError):
        rin(3, 0, 1, SIGNED)
    with pytest.raises(ValueError):
        rin(3, 3, 1, SIGNED)
    with pytest.raises(ValueError):
        rin(3, 1, 4, SIGNED)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        fast22(0, SIGNED)


def test_rin_matches_oracle_exhaustively():
    for n in range(2, 7):
        for mode in (SIGNED, ABSOLUTE):
            for a in range(1, n):
                for b in range(1, n + 1):
                    expected = count_with_exceptions(ExceptionSpec(n, {a}, {b}, mode))
                    assert rin(n, a, b, mode) == expected, (n, a, b, mode)


def test_rin_matches_split_board_sum_beyond_oracle_reach():
    for n in range(8, 11):
        for mode in (SIGNED, ABSOLUTE):
            for a in range(1, n, 2):
                for b in range(1, n + 1, 3):
                    assert rin(n, a, b, mode) == rin_reference(n, a, b, mode)
    for n, a, b, mode in [
        (18, 5, 11, SIGNED),
        (22, 11, 7, ABSOLUTE),
        (25, 13, 13, SIGNED),
        (20, 1, 20, ABSOLUTE),
        (21, 20, 1, SIGNED),
    ]:
        assert rin(n, a, b, mode) == rin_reference(n, a, b, mode)
    # lopsided waivers: the link tables read factorials up to max(a + b, 2n - a - b)
    for n, a, b in [(36, 1, 36), (36, 35, 1), (36, 3, 30), (40, 1, 2), (40, 39, 40)]:
        for mode in (SIGNED, ABSOLUTE):
            assert rin(n, a, b, mode) == rin_reference(n, a, b, mode), (n, a, b, mode)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 16),
       mode=st.sampled_from([SIGNED, ABSOLUTE]))
def test_rin_matches_split_board_sum_on_random_waivers(data, n, mode):
    a = data.draw(st.integers(1, n - 1), label="a")
    b = data.draw(st.integers(1, n), label="b")
    assert rin(n, a, b, mode) == rin_reference(n, a, b, mode)


def test_rin_never_below_unwaived_count():
    for n in range(2, 7):
        for mode in (SIGNED, ABSOLUTE):
            base = brute_count(SequenceSpec(1, 1, mode), n)
            for a in range(1, n):
                for b in range(1, n + 1):
                    assert rin(n, a, b, mode) >= base


def test_fast22_examples():
    assert fast22(4, SIGNED) == 18
    assert fast22(4, ABSOLUTE) == 16
    assert fast22(1, SIGNED) == 1


def test_fast22_matches_partition_engine():
    for mode in (SIGNED, ABSOLUTE):
        spec = SequenceSpec(2, 2, mode)
        # h = 15 at both parities of n; at n = 50 partition_sum cuts keys after part 5
        for n in [*range(1, 13), 29, 30, 50]:
            assert fast22(n, mode) == count(spec, n), (n, mode)


def test_fast22_matches_oracle():
    for mode in (SIGNED, ABSOLUTE):
        spec = SequenceSpec(2, 2, mode)
        for n in range(1, 9):
            assert fast22(n, mode) == brute_count(spec, n)
