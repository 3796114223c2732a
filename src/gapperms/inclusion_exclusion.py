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
the common support of the two enumerators.  They arrive slotted, one key
per group of monomials and one slot per a_2, in the layout that tilings
describes and tilings._fields lists.  The support is probed on the keys.
Each key splits at the field boundary above part sizes i with
i^2 <= n // 2, and each distinct half is decoded once per call:
a_i! w_i^a_i for each i >= 3, which multiply across the halves, and the
weight sum i a_i, which adds.  Then the slots of the two values are walked
in step against a table of a_1! w_1^a_1 a_2! w_2^a_2 for the weight of
that group.  When both boards are one dict (r = s), the second lookup is
skipped and one value is walked, each slot squared.

A count splits into k parts that add up to it.  Part w keeps the keys whose
a_3 + a_4 is w mod k.  The fields of a key never carry into each other, so
the a_3 + a_4 of a product key is the sum of its factors', and part w of a
board is the product of the factors' residue classes that sum to w (see
tilings._product).  A monomial lies in one part, and in the same part on
both boards, so the partition sums of the parts add up to the whole.  k is
the number of CPUs the process may use, cut so that each part has at least
_PAIRS_PER_PART key pairs in the last board product; part 0 runs in this
process and each other part in a forked worker.  A count runs as one part,
in this process, when the cut leaves one, without os.fork, or while other
threads are live.
"""

import os
import sys
from math import factorial

from .specs import ABSOLUTE, SequenceSpec
from .tilings import _fields, _interval_factor, _operands, _product

# The fewest last-product key pairs per part.  A forked part costs about
# 2.5 ms more than the same part in-process (the fork, the worker's first
# page copies, reaping it).  On a 2-CPU x86-64 VM two parts broke even
# between about 7,000 and 18,000 pairs and won from about 19,000 (a serial
# count of about 10 ms).
_PAIRS_PER_PART = 10_000


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
    fields = [(i, shift, fmask, weights(i)) for i, shift, fmask in _fields(n)]
    below = sum(i * i <= n // 2 for i, *_ in fields)  # the fields under the cut
    cut = fields[below][1] if fields else 0  # the shift of the first field above it
    low_mask = (1 << cut) - 1

    def decode(key, fields):
        # (prod of a_i! w_i^a_i, sum of i a_i) over the fields of half a key
        term, weight_sum = 1, 0
        for i, shift, fmask, weight in fields:
            a = key >> shift
            if not a:
                break
            a &= fmask
            term *= weight[a]
            weight_sum += i * a
        return term, weight_sum

    lows = {low: decode(low, fields[:below]) for low in {key & low_mask for key in pa}}
    highs = {high: decode(high << cut, fields[below:]) for high in {key >> cut for key in pa}}
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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _part_count(pairs: int) -> int:
    """How many parts a count whose last board products take `pairs` key
    pairs runs in: one per usable CPU, each with at least _PAIRS_PER_PART
    pairs.  One without os.fork, or while other threads are live: a forked
    worker could inherit a lock that one of them holds."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return 1
    return max(1, min(_cpus(), pairs // _PAIRS_PER_PART))


def _sum_parts(parts: int, part_sum) -> int:
    """part_sum(0) + ... + part_sum(parts - 1): part 0 here, each other part
    in a forked worker that sends its int back over a pipe.  Every worker is
    reaped before this returns or raises, and a failed worker makes it raise."""
    workers = []
    try:
        for part in range(1, parts):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: exits here, never unwinding into the caller's code
                status = 1
                try:
                    value = part_sum(part)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(value.to_bytes(value.bit_length() // 8 + 1, "little",
                                                  signed=True))
                    status = 0
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(status)
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        total = part_sum(0)
        for _, pipe in workers:  # a failed worker sends nothing, read as 0
            total += int.from_bytes(pipe.read(), "little", signed=True)
    finally:
        failed = 0
        for pid, pipe in workers:
            pipe.close()
            failed += os.waitpid(pid, 0)[1] != 0
    if failed:
        raise ChildProcessError(f"{failed} of the {parts - 1} workers of a count failed")
    return total


def count(spec: SequenceSpec, n: int) -> int:
    """Permutations of {1..n} with pi[i+r] - pi[i] != s for every i
    (absolute mode: |pi[i+r] - pi[i]| != s)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    operands = {gap: _operands(gap, n, lambda size: _interval_factor(size, n))
                for gap in dict.fromkeys((spec.r, spec.s))}
    parts = _part_count(sum(len(p) * len(q) for p, q in operands.values()))

    def part_sum(part):
        boards = {gap: _product(p, q, n, part, parts) for gap, (p, q) in operands.items()}
        return partition_sum(boards[spec.r], boards[spec.s], n, spec.mode)

    return _sum_parts(parts, part_sum)


def sequence(spec: SequenceSpec, n_max: int) -> list:
    """Terms for n = 1..n_max.  Boards are sized by n (slot width n + 1, field
    widths n // i), so none is shared across n, and count keeps none."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [count(spec, n) for n in range(1, n_max + 1)]
