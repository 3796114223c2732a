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
the common support of the two enumerators.  The enumerators arrive with
packed int keys (see tilings): the support is probed on the ints, and only
the common monomials are decoded, field by field from a_1 up to the largest
part, each a_i contributing a_i!, its share of the sign and its power of two.
"""

from math import factorial

from .specs import ABSOLUTE, SequenceSpec
from .tilings import _tiling_terms, _widths


def partition_sum(pa: dict, pb: dict, n: int, mode: str) -> int:
    """The signed sum above over the monomials common to two packed tiling
    enumerators pa and pb of boards with n cells each."""
    if len(pb) < len(pa):
        pa, pb = pb, pa  # enumerate the sparser support, probe the other
    absolute = mode == ABSOLUTE
    fields = []  # per part size i: field width, mask, weight[a_i]
    for i, width in enumerate(_widths(n), start=1):
        # a_i! [* 2^a_i for runs], signed: n - sum a_i = sum (i - 1) a_i
        weight = [factorial(a) << (a if absolute and i > 1 else 0) for a in range(n // i + 1)]
        if i % 2 == 0:
            weight[1::2] = [-w for w in weight[1::2]]
        fields.append((width, (1 << width) - 1, weight))
    total = 0
    for key, ca in pa.items():
        cb = pb.get(key)
        if not cb:
            continue
        term = ca * cb
        for width, mask, weight in fields:
            if not key:
                break
            term *= weight[key & mask]
            key >>= width
        total += term
    return total


def count(spec: SequenceSpec, n: int) -> int:
    """Permutations of {1..n} with pi[i+r] - pi[i] != s for every i
    (absolute mode: |pi[i+r] - pi[i]| != s)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return partition_sum(_tiling_terms(spec.r, n), _tiling_terms(spec.s, n), n, spec.mode)


def sequence(spec: SequenceSpec, n_max: int) -> list:
    """Terms for n = 1..n_max; the batch shares interval enumerators, not boards."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [count(spec, n) for n in range(1, n_max + 1)]
