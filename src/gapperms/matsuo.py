"""Matsuo's interleaving bijection and the RIN exception-count engine.

The relabeling (1, 1+h, 2, 2+h, 3, ...) with h = floor((n+1)/2) turns the
"entries two apart never differ by two" constraint into an adjacent-entries
constraint with two artifacts: the position link at index h and the value
pair {h, h+1} become unconstrained.  Counting adjacency-avoiding
permutations with those two waivers therefore counts the gap-2 sequences,
in polynomial time per term.

rin(n, a, b, mode) counts permutations of {1..n} in which pi[i+1] - pi[i]
(or |pi[i+1] - pi[i]| in absolute mode) never equals 1, except that the
rule is waived at position link a and at the value pair {b, b+1}.  It runs
the inclusion-exclusion over chosen adjacent links directly: chosen links
chain into monotone value runs, so a choice is a tiling of the value line
{1..n} into intervals plus a left-to-right ordering of the tiles, where

  * a tile of size L carries sign (-1)^(L-1), doubled for L >= 2 in
    absolute mode (the run may ascend or descend);
  * no tile may contain both b and b+1 (that internal link is waived,
    hence never chosen);
  * some prefix of the ordering must total exactly a, so that no chosen
    link sits at position a;
  * orderings of the tiles before/after the position-a boundary contribute
    j! * k!.

The dynamic program scans the value line once, tracking (length, count) of
the before-boundary group and the count of the after-boundary group, with
alternating prefix accumulators absorbing the sum over tile lengths.  Cost
is O(n^4) per term with small constants.
"""

from dataclasses import dataclass

from .specs import ABSOLUTE, check_mode


@dataclass(frozen=True)
class MatsuoMap:
    """The interleaving relabeling of {1..n}: (1, 1+h, 2, 2+h, ...)."""

    n: int
    image: tuple


def matsuo_map(n: int) -> MatsuoMap:
    if n < 1:
        raise ValueError("n must be >= 1")
    h = (n + 1) // 2
    image = []
    for k in range(1, h + 1):
        image.append(k)
        if k + h <= n:
            image.append(k + h)
    return MatsuoMap(n, tuple(image))


def rin(n: int, a: int, b: int, mode: str) -> int:
    """Count permutations avoiding adjacent differences of 1 (signed or
    absolute) with the rule waived at position link a and value pair {b, b+1}.

    Equals oracle.count_with_exceptions on ({a}, {b}) with the default
    endpoint rule for the mode.
    """
    check_mode(mode)
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in 1..{n - 1}, got {a}")
    if not 1 <= b <= n:
        raise ValueError(f"b must lie in 1..{n}, got {b}")
    absolute = mode == ABSOLUTE

    # D[sigma][j] is a row over k: signed tile-sequence weight with value
    # prefix v laid down, sigma/j = length/count of before-boundary tiles,
    # k = count of after-boundary tiles.  accA/accB are the alternating
    # prefix sums over the last tile's length for the two append moves; a
    # tile may not span the cut after value b, so the accumulators restart
    # at v = b + 1.
    d_prev = [[[1]]]
    acc_a_prev = [None]
    acc_b_prev = [[[0]]]

    for v in range(1, n + 1):
        smax = min(v, a)
        smax_prev = min(v - 1, a)
        reset = v == b + 1
        d_new, acc_a_new, acc_b_new = [], [], []

        for sigma in range(smax + 1):
            rowlen = v - sigma + 1

            # Append-to-A accumulator, targeting sigma; rows for j' = j - 1.
            if sigma == 0:
                acc_a_new.append(None)
                append_a = None
            else:
                src_table = d_prev[sigma - 1]
                prev_table = acc_a_prev[sigma - 1] if sigma - 1 < len(acc_a_prev) else None
                acc_rows, append_a = [], []
                for jp in range(sigma):
                    d_row = src_table[jp] if jp < len(src_table) else [0] * rowlen
                    if reset:
                        acc = list(d_row)
                    else:
                        p_row = (
                            prev_table[jp]
                            if prev_table is not None and jp < len(prev_table)
                            else None
                        )
                        if p_row is None:
                            acc = list(d_row)
                        else:
                            acc = [dd - pp for dd, pp in zip(d_row, p_row)]
                    acc_rows.append(acc)
                    if absolute:
                        append_a.append([2 * aa - dd for aa, dd in zip(acc, d_row)])
                    else:
                        append_a.append(acc)
                acc_a_new.append(acc_rows)

            # Append-to-B accumulator, targeting sigma; rows for j.
            src_table = d_prev[sigma] if sigma <= smax_prev else None
            prev_table = acc_b_prev[sigma] if sigma < len(acc_b_prev) else None
            acc_rows, append_b = [], []
            for j in range(sigma + 1):
                if src_table is not None and j < len(src_table):
                    d_row = src_table[j] + [0]  # k = v - sigma unreachable at v-1
                else:
                    d_row = [0] * rowlen
                if reset:
                    acc = list(d_row)
                else:
                    p_row = (
                        prev_table[j] + [0]
                        if prev_table is not None and j < len(prev_table)
                        else None
                    )
                    if p_row is None:
                        acc = list(d_row)
                    else:
                        acc = [dd - pp for dd, pp in zip(d_row, p_row)]
                acc_rows.append(acc)
                if absolute:
                    append_b.append([2 * aa - dd for aa, dd in zip(acc, d_row)])
                else:
                    append_b.append(acc)
            acc_b_new.append(acc_rows)

            # New layer: j-th A-tile contributes factor j, k-th B-tile factor k.
            d_sigma = []
            for j in range(sigma + 1):
                row_a = append_a[j - 1] if j >= 1 and append_a is not None else None
                row_b = append_b[j]
                row = [0] * rowlen
                if row_a is not None:
                    for k in range(rowlen):
                        row[k] = j * row_a[k]
                for k in range(1, rowlen):
                    row[k] += k * row_b[k - 1]
                d_sigma.append(row)
            d_new.append(d_sigma)

        d_prev, acc_a_prev, acc_b_prev = d_new, acc_a_new, acc_b_new

    return sum(sum(row) for row in d_prev[a])


def fast22(n: int, mode: str) -> int:
    """The gap-2 diagonal count (signed or absolute) via rin at
    a = b = floor((n+1)/2).  Polynomial per term, unlike the partition sum,
    which remains the normative definition.
    """
    check_mode(mode)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    h = (n + 1) // 2
    return rin(n, h, h, mode)
