"""Shared parameter records for the counting engines."""

from dataclasses import dataclass, field

SIGNED = "signed"
ABSOLUTE = "absolute"
MODES = (SIGNED, ABSOLUTE)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class SequenceSpec:
    """Which sequence: position gap r, value gap s, signed or absolute difference.

    Signed mode counts permutations with pi[i+r] - pi[i] != s for all i;
    absolute mode uses |pi[i+r] - pi[i]| != s.
    """

    r: int
    s: int
    mode: str

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError(f"r and s must be >= 1, got r={self.r}, s={self.s}")
        check_mode(self.mode)


@dataclass
class ExceptionSpec:
    """Adjacency constraint with waivers: the (r=1, s=1) rule is lifted at any
    index in `positions`, and at any link whose value pair is {v, v+1} for
    some v in `values` (see oracle.count_with_exceptions).
    """

    n: int
    positions: frozenset = field(default_factory=frozenset)
    values: frozenset = field(default_factory=frozenset)
    mode: str = SIGNED

    def __post_init__(self):
        self.positions = frozenset(self.positions)
        self.values = frozenset(self.values)
        if self.n < 0:
            raise ValueError("n must be >= 0")
        check_mode(self.mode)
        if any(i < 1 or i > self.n - 1 for i in self.positions):
            raise ValueError(f"positions must lie in 1..{self.n - 1}")
        if any(v < 1 or v > self.n for v in self.values):
            raise ValueError(f"values must lie in 1..{self.n}")
