"""The general engine: signed partition sums over pairs of tiling coefficients.

Choosing a set of forbidden differences to force induces two tilings, one of
the position board by gap-r tiles and one of the value board by gap-s tiles,
with matching size profiles.  Summing over the profile alpha (an integer
partition of n in frequency notation a_1, a_2, ...):

    count = sum_alpha  C(s)_alpha * C(r)_alpha * prod_i a_i! w_i^a_i

where C(g)_alpha counts gap-g tilings with profile alpha, the factorials
match same-size tiles between the two boards, and w_i, the weight of a
size-i tile, is its share (-1)^(i - 1) of the sign (-1)^(n - sum a_i),
doubled for i > 1 in absolute mode: either direction for a value run.

Exact integers throughout; cost is driven by the number of partitions in
the common support of the two enumerators.  The enumerators arrive slotted
(see tilings): a key packs the parts >= 3 of a group of monomials, and its
value holds their counts in slots of width n + 1, one per a_2, with a_1
implied.  The support is probed on the keys.  Each key splits at the field
boundary above part sizes i with i^2 <= n // 2, and each distinct half is
decoded once per call: a_i! w_i^a_i for each i >= 3, which multiply across
the halves, and the weight sum i a_i, which adds.  Then the slots of the
two values are walked in step against a table of a_1! w_1^a_1 a_2! w_2^a_2
for the weight of that group.  When both boards are one dict (r = s), the
second lookup is skipped and one value is walked, each slot squared.
"""

from math import factorial

from .specs import ABSOLUTE, SequenceSpec
from .tilings import _tiling_terms, _widths


def partition_sum(pa: dict, pb: dict, n: int, mode: str) -> int:
    """The signed sum above over the monomials common to two slotted tiling
    enumerators pa and pb of boards with n cells each."""
    if len(pb) < len(pa):
        pa, pb = pb, pa  # enumerate the sparser support, probe the other
    absolute = mode == ABSOLUTE

    def weights(i):
        # a_i! times the tile weight w_i raised to a_i
        tile = (-1) ** (i - 1) << (absolute and i > 1)
        return [factorial(a) * tile ** a for a in range(n // i + 1)]

    w_1, w_2 = weights(1), weights(2)
    # per weight w of the parts >= 3, slot a_2 -> w_1[a_1] * w_2[a_2]
    tables = [[w_1[n - w - 2 * a] * w_2[a] for a in range((n - w) // 2 + 1)]
              for w in range(n + 1)]
    fields = [(i, width, (1 << width) - 1, weights(i))
              for i, width in enumerate(_widths(n), start=3)]
    below = sum(i * i <= n // 2 for i, *_ in fields)  # the fields under the cut
    cut = sum(width for _, width, _, _ in fields[:below])
    low_mask = (1 << cut) - 1

    def decode(key, fields):
        # (prod of a_i! w_i^a_i, sum of i a_i) over the fields of half a key
        term, weight_sum = 1, 0
        for i, width, fmask, weight in fields:
            if not key:
                break
            a = key & fmask
            term *= weight[a]
            weight_sum += i * a
            key >>= width
        return term, weight_sum

    lows = {low: decode(low, fields[:below]) for low in {key & low_mask for key in pa}}
    highs = {high: decode(high, fields[below:]) for high in {key >> cut for key in pa}}
    slot, mask = n + 1, (1 << n + 1) - 1
    total = 0
    for key, va in pa.items():
        vb = va if pa is pb else pb.get(key)
        if not vb:
            continue
        (low_term, low_weight), (high_term, high_weight) = lows[key & low_mask], highs[key >> cut]
        acc = 0
        if pa is pb:  # one board: each slot count meets itself
            for w in tables[low_weight + high_weight]:
                if not va:
                    break
                acc += (va & mask) ** 2 * w
                va >>= slot
        else:
            for w in tables[low_weight + high_weight]:
                if not (va and vb):
                    break
                acc += (va & mask) * (vb & mask) * w
                va >>= slot
                vb >>= slot
        total += low_term * high_term * acc
    return total


def count(spec: SequenceSpec, n: int) -> int:
    """Permutations of {1..n} with pi[i+r] - pi[i] != s for every i
    (absolute mode: |pi[i+r] - pi[i]| != s)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return partition_sum(_tiling_terms(spec.r, n), _tiling_terms(spec.s, n), n, spec.mode)


def sequence(spec: SequenceSpec, n_max: int) -> list:
    """Terms for n = 1..n_max.  Boards are sized by n (slot width n + 1, field
    widths n // i), so none is shared across n; the cache keeps the last two."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [count(spec, n) for n in range(1, n_max + 1)]
