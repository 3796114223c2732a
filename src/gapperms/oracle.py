"""Brute-force reference counts by exhaustive permutation enumeration.

Every faster engine in this package is validated against these functions.
They are deliberately plain: generate all n! permutations, test the
constraint, count.  Each refuses n > CAP with EnumerationCapError before
enumerating, so an accidental factorial blowup cannot hang a test run.
"""

from itertools import permutations

from .specs import ABSOLUTE, ExceptionSpec, SequenceSpec

CAP = 11


class EnumerationCapError(ValueError):
    """Raised when a brute-force call would enumerate more than CAP! permutations."""


def _check_cap(n: int):
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > CAP:
        raise EnumerationCapError(
            f"n={n} exceeds the enumeration cap {CAP} of the brute-force "
            f"oracle ({n}! permutations)"
        )


def _forbidden(spec: SequenceSpec) -> tuple:
    """The differences pi[i + r] - pi[i] that violate: s, and -s in absolute mode."""
    return (spec.s, -spec.s) if spec.mode == ABSOLUTE else (spec.s,)


def _violations(pi: tuple, r: int, bad: tuple) -> int:
    count = 0
    for i in range(len(pi) - r):
        if pi[i + r] - pi[i] in bad:
            count += 1
    return count


def brute_count(spec: SequenceSpec, n: int) -> int:
    """Number of permutations of {1..n} with no forbidden difference.

    n = 0 counts the empty permutation as 1.
    """
    _check_cap(n)
    r, bad = spec.r, _forbidden(spec)
    total = 0
    for pi in permutations(range(1, n + 1)):
        for i in range(n - r):
            if pi[i + r] - pi[i] in bad:
                break
        else:
            total += 1
    return total


def violation_profile(spec: SequenceSpec, n: int) -> list:
    """Entry k = number of permutations with exactly k violating indices.

    Entry 0 equals brute_count; the entries sum to n!.
    """
    _check_cap(n)
    profile, bad = [0] * (max(n - spec.r, 0) + 1), _forbidden(spec)
    for pi in permutations(range(1, n + 1)):
        profile[_violations(pi, spec.r, bad)] += 1
    return profile


def single_violation_at(spec: SequenceSpec, n: int, i: int) -> int:
    """Permutations with exactly one violation, located at index i."""
    _check_cap(n)
    if not 1 <= i <= n - spec.r:
        raise ValueError(f"i must lie in 1..{n - spec.r}, got {i}")
    r, bad = spec.r, _forbidden(spec)
    return sum(1 for pi in permutations(range(1, n + 1))
               if pi[i - 1 + r] - pi[i - 1] in bad and _violations(pi, r, bad) == 1)


def count_with_exceptions(ex: ExceptionSpec) -> int:
    """Permutations of {1..n} obeying the (r=1, s=1) rule except at waived links.

    A violating link i (between positions i and i+1) is waived when i is in
    ex.positions, or when min(pi[i], pi[i+1]) is in ex.values, i.e. when its
    value pair is {v, v+1} for some v in ex.values.  In signed mode a
    violating link ascends, so that is its left value.
    """
    _check_cap(ex.n)
    n, positions, values = ex.n, ex.positions, ex.values
    bad = _forbidden(SequenceSpec(1, 1, ex.mode))
    total = 0
    for pi in permutations(range(1, n + 1)):
        for i in range(1, n):
            if (pi[i] - pi[i - 1] in bad and i not in positions
                    and min(pi[i - 1], pi[i]) not in values):
                break
        else:
            total += 1
    return total
