"""The general engine: signed partition sums over pairs of tiling coefficients.

Choosing a set of forbidden differences to force induces two tilings, one of
the position board by gap-r tiles and one of the value board by gap-s tiles,
with matching size profiles.  Summing over the profile alpha (an integer
partition of n in frequency notation a_1, a_2, ...):

    count = sum_alpha  C(s)_alpha * C(r)_alpha * (-1)^(n - sum a_i)
            * a_1! a_2! ... [* 2^(a_2 + a_3 + ...) in absolute mode]

where C(g)_alpha counts gap-g tilings with profile alpha, the factorials
match same-size tiles between the two boards, and the power of two picks a
direction (ascending or descending) for each non-singleton value run.

Exact integers throughout; cost is driven by the number of partitions in
the common support of the two enumerators.
"""

from math import factorial

from .specs import ABSOLUTE, SequenceSpec
from .tilings import _tiling_terms


def partition_sum(pa: dict, pb: dict, n: int, mode: str) -> int:
    """The signed sum above over the monomials common to two tiling
    enumerators pa and pb of boards with n cells each."""
    if len(pb) < len(pa):
        pa, pb = pb, pa  # enumerate the sparser support, probe the other
    fact = [factorial(k) for k in range(n + 1)]
    absolute = mode == ABSOLUTE
    total = 0
    for mono, ca in pa.items():
        cb = pb.get(mono)
        if not cb:
            continue
        m = sum(mono)
        term = ca * cb
        for a in mono:
            term *= fact[a]
        if absolute:
            term <<= m - (mono[0] if mono else 0)
        total += term if (n - m) % 2 == 0 else -term
    return total


def count(spec: SequenceSpec, n: int) -> int:
    """Permutations of {1..n} with pi[i+r] - pi[i] != s for every i
    (absolute mode: |pi[i+r] - pi[i]| != s)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return partition_sum(_tiling_terms(spec.r, n), _tiling_terms(spec.s, n), n, spec.mode)


def sequence(spec: SequenceSpec, n_max: int) -> list:
    """Terms for n = 1..n_max; tiling caches are shared across the batch."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [count(spec, n) for n in range(1, n_max + 1)]
