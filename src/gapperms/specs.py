"""Shared parameter records for the counting engines."""

from collections import namedtuple

SIGNED = "signed"
ABSOLUTE = "absolute"
MODES = (SIGNED, ABSOLUTE)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


class SequenceSpec(namedtuple("SequenceSpec", "r s mode")):
    """Which sequence: position gap r, value gap s, signed or absolute difference.

    Signed mode counts permutations with pi[i+r] - pi[i] != s for all i;
    absolute mode uses |pi[i+r] - pi[i]| != s.
    """

    __slots__ = ()

    def __new__(cls, r: int, s: int, mode: str):
        if r < 1 or s < 1:
            raise ValueError(f"r and s must be >= 1, got r={r}, s={s}")
        check_mode(mode)
        return super().__new__(cls, r, s, mode)


class ExceptionSpec(namedtuple("ExceptionSpec", "n positions values mode")):
    """Adjacency constraint with waivers: the (r=1, s=1) rule is lifted at any
    index in `positions`, and at any link whose value pair is {v, v+1} for
    some v in `values` (see oracle.count_with_exceptions).
    """

    __slots__ = ()

    def __new__(cls, n: int, positions=frozenset(), values=frozenset(), mode: str = SIGNED):
        positions, values = frozenset(positions), frozenset(values)
        if n < 0:
            raise ValueError("n must be >= 0")
        check_mode(mode)
        if any(i < 1 or i > n - 1 for i in positions):
            raise ValueError(f"positions must lie in 1..{n - 1}")
        if any(v < 1 or v > n for v in values):
            raise ValueError(f"values must lie in 1..{n}")
        return super().__new__(cls, n, positions, values, mode)
