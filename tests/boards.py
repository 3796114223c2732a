"""Reference boards shared by the oracle and RIN tests."""

from gapperms.tilings import _interval_terms, _multiply, pack


def cut_board(n, cuts):
    """Packed enumerator of the board {1..n} cut after every point of
    `cuts`: the product of the interval enumerators of its pieces."""
    board, start = {0: 1}, 0
    for end in sorted(cuts) + [n]:
        piece = {pack(m, n): c for m, c in _interval_terms(end - start).items()}
        board, start = _multiply(board, piece), end
    return board
