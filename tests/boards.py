"""Reference boards shared by the oracle, RIN and tiling tests."""

from functools import lru_cache

from gapperms.tilings import _bump, _interval_factor, _multiply


@lru_cache(maxsize=None)
def interval_terms(length):
    """Compositions of `length` collected by part multiset, tuple-keyed:
    dynamic programming on the last part.  The reference for the closed
    form of tilings._interval_factor."""
    if length == 0:
        return {(): 1}
    out = {}
    for size in range(1, length + 1):
        for mono, count in interval_terms(length - size).items():
            key = _bump(mono, size)
            out[key] = out.get(key, 0) + count
    return out


def cut_board(n, cuts):
    """Slotted enumerator of the board {1..n} cut after every point of
    `cuts`: the product of the interval enumerators of its pieces."""
    board, start = {0: 1}, 0
    for end in sorted(cuts) + [n]:
        board, start = _multiply(board, _interval_factor(end - start, n)), end
    return board
