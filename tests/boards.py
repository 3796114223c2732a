"""Reference boards shared by the oracle and RIN tests."""

from gapperms.tilings import _interval_factor, _multiply


def cut_board(n, cuts):
    """Slotted enumerator of the board {1..n} cut after every point of
    `cuts`: the product of the interval enumerators of its pieces."""
    board, start = {0: 1}, 0
    for end in sorted(cuts) + [n]:
        board, start = _multiply(board, _interval_factor(end - start, n)), end
    return board
