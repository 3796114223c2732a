"""Fast engines for the adjacent-entries family (position gap r = 1).

Navarrete's alternating sum and its second-order recurrence cover the
signed constraint for any value gap s; Riordan's fourth-order recurrence
and Robbins' double sum cover the classic count of permutations without
rising or falling successions (OEIS A002464); and a tile-weight summation,
one packed big-integer product per term, covers both modes for every s in
polynomial time.  Its tile-weight table also feeds matsuo.rin.
"""

from math import comb, factorial

from .specs import ABSOLUTE, check_mode


def navarrete_sum(s: int, n: int) -> int:
    """Permutations of {1..n} with pi[i+1] - pi[i] != s everywhere:
    sum_{j=0}^{n-s} (-1)^j C(n-s, j) (n-j)!  for n >= s.

    For n < s no two values of {1..n} differ by s, so the count is n!.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < s:
        return factorial(n)
    return sum((-1) ** j * comb(n - s, j) * factorial(n - j) for j in range(n - s + 1))


def navarrete_recurrence(s: int, n_max: int) -> list:
    """The same counts as navarrete_sum for n = 1..n_max, via
    a(n) = (n-1) a(n-1) + (n-s-1) a(n-2).

    The recurrence is applied from n = max(2, s+1); below that the theorem's
    n >= s precondition fails for s >= 2 and the seeds are the factorials.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    start = max(2, s + 1)
    values = [factorial(n) for n in range(min(start - 1, n_max) + 1)]  # index n = 0..
    for n in range(start, n_max + 1):
        values.append((n - 1) * values[n - 1] + (n - s - 1) * values[n - 2])
    return values[1:n_max + 1]


def riordan_sequence(n_max: int) -> list:
    """Permutations of {1..n} without rising or falling successions,
    n = 1..n_max, via Riordan's recurrence
    b(n) = (n+1) b(n-1) - (n-2) b(n-2) - (n-5) b(n-3) + (n-3) b(n-4),
    seeded with b(1..4) = 1, 0, 0, 2.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = [1, 0, 0, 2][:n_max]
    for n in range(5, n_max + 1):
        b1, b2, b3, b4 = values[-1], values[-2], values[-3], values[-4]
        values.append((n + 1) * b1 - (n - 2) * b2 - (n - 5) * b3 + (n - 3) * b4)
    return values


def robbins(n: int) -> int:
    """Robbins' double sum for the no-successions count riordan_sequence
    produces.

    The i = 0 term is taken as n! (the empty inner sum would drop the
    no-constraint term and give wrong values, e.g. -22 instead of 2 at n=4).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = factorial(n)
    for i in range(1, n):
        inner = sum(
            comb(i - 1, i - c) * comb(n - i, c) * 2 ** c for c in range(1, i + 1)
        )
        total += (-1) ** i * factorial(n - i) * inner
    return total


def _interval_weight_table(n: int, absolute: bool) -> list:
    """Signed tile weights of interval boards of length 0..n: entry L is the
    tuple w_L indexed by tile count m.  A tile of size k carries sign
    (-1)^(k-1), doubled for k >= 2 in absolute mode (a run may ascend or
    descend), and w_L[m] sums the tilings into m tiles, so it has sign
    (-1)^(L-m).  Disjoint boards combine by convolution over m.  As
    W_L(t) = sum_m w_L[m] t^m, W_0 = 1, W_1 = t and

        W_L = (t - 1) W_{L-1} - [absolute] t W_{L-2}

    (the last cell is a tile of its own, or lengthens the last tile by one;
    a singleton so lengthened weighs twice in absolute mode), so each length
    costs O(L) from the two before it.  Built per call; nothing is kept.
    """
    table = [(1,), (0, 1)]
    for length in range(2, n + 1):
        prev = table[-1]
        back = (0,) + table[-2] + (0,) if absolute else (0,) * (length + 1)
        table.append(tuple(a - b - c for a, b, c in zip((0,) + prev, prev + (0,), back)))
    return table[:n + 1]


def fast_r1(s: int, mode: str, n_max: int) -> list:
    """Adjacent-entries counts for value gap s, both modes, n = 1..n_max.

    For r = 1 the chosen forbidden differences chain into value runs that
    occupy consecutive positions.  A run is a tile of a gap-s tiling of the
    value board {1..n}, and m tiles can be laid out in m! orders, so a
    tiling matters only through its tile count m.  The residue classes of
    {1..n} mod s are intervals, tiled independently; for n = qs + r,

        a(n) = sum_m m! * P[m],   P = w_{q+1}^r * w_q^(s-r)  (convolution),

    with w_L the _interval_weight_table entry.  As w_L[m] has sign
    (-1)^(L-m), P[m] = (-1)^(n-m) Q[m] for the product Q of the |w_L|, each
    packed into one int with |w_L[m]| in slot m (Kronecker substitution).
    The slots are wide enough for prod_j sum_m |w_L_j[m]| at n_max, which
    bounds every coefficient of every such product up to n_max, so none
    carries.  Horner's rule reads a(n) = (-1)^n sum_m (-1)^m m! Q[m] off Q.
    """
    check_mode(mode)
    if s < 1:
        raise ValueError("s must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    absolute = mode == ABSOLUTE
    q, r = divmod(n_max, s)
    weights = _interval_weight_table(q + 1, absolute)
    bound = sum(map(abs, weights[q + 1])) ** r * sum(map(abs, weights[q])) ** (s - r)
    size = bound.bit_length() + 7 >> 3  # bytes per slot
    packed = [int.from_bytes(b"".join(abs(c).to_bytes(size, "little") for c in w), "little")
              for w in weights]
    out = []
    for n in range(1, n_max + 1):
        q, r = divmod(n, s)
        slots = (packed[q + 1] ** r * packed[q] ** (s - r)).to_bytes((n + 1) * size, "little")
        acc = 0
        for m in range(n, -1, -1):  # acc = Q[m] - (m + 1) * acc
            acc = int.from_bytes(slots[m * size:(m + 1) * size], "little") - (m + 1) * acc
        out.append(-acc if n % 2 else acc)
    return out
