"""Reference boards shared by the oracle, RIN and tiling tests."""

from functools import lru_cache
from math import factorial

from gapperms.specs import ABSOLUTE
from gapperms.tilings import (_bump, _interval_factor, _interval_profile, _multiply, _operands,
                              _product)


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


@lru_cache(maxsize=None)
def profile_weights(length, absolute):
    """Signed tile weights of an interval, aggregated from the (m, c) counts
    of tilings._interval_profile: w[m] = (-1)^(length-m) sum_c g(m, c) 2^c
    (2^c only in absolute mode).  The reference for the weight recurrence of
    closed_forms._interval_weight_table."""
    w = [0] * (length + 1)
    for (m, c), g in _interval_profile(length).items():
        w[m] += g << c if absolute else g
    return tuple(x if (length - m) % 2 == 0 else -x for m, x in enumerate(w))


def fast_r1(s, mode, n_max):
    """closed_forms.fast_r1 by dict convolution: sum_m m! P[m], P the
    tilings._product of the profile_weights of the residue classes.
    The reference for the packed product."""
    absolute = mode == ABSOLUTE

    def weights(size):
        return dict(enumerate(profile_weights(size, absolute)))

    return [sum(factorial(m) * c for m, c in _product(*_operands(s, n, weights), n).items())
            for n in range(1, n_max + 1)]
