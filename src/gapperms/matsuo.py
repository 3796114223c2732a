"""Matsuo's interleaving bijection and the RIN exception-count engine.

The relabeling (1, 1+h, 2, 2+h, 3, ...) with h = floor((n+1)/2) turns the
"entries two apart never differ by two" constraint into an adjacent-entries
constraint with two artifacts: the position link at index h and the value
pair {h, h+1} become unconstrained.  So rin(n, h, h, mode), which counts
adjacency-avoiding permutations with exactly those two waivers, is the
gap-2 diagonal count, in polynomial time per term (fast22).

rin(n, a, b, mode) counts permutations of {1..n} in which pi[i+1] - pi[i]
(or |pi[i+1] - pi[i]| in absolute mode) never equals 1, except that the
rule is waived at position link a and at the value pair {b, b+1}.  It runs
the inclusion-exclusion over chosen adjacent links directly: chosen links
chain into monotone value runs, so a choice is a tiling of the value line
{1..n} into intervals plus a left-to-right ordering of the tiles.  No tile
may span the cut after value b (that link is waived, hence never chosen),
and some prefix of the ordering must total exactly a (no chosen link sits
at position a).  So each tile falls in one of four groups, by value side
of the cut at b and position side of a, with total lengths

    t (values <= b, positions <= a),      b - t (values <= b, after a),
    a - t (values > b, positions <= a),   n - a - b + t (values > b, after a).

Each group is an interval tiling weighted by closed_forms._interval_weight_table
w_L[j] (sign (-1)^(L-j), and 2^c for the c runs of two or more values in
absolute mode).  With j11, j12, j21, j22 tiles in the four groups, the
tiles on each value side interleave in C(j11+j12, j11) and
C(j21+j22, j21) ways, and the tiles on each position side are ordered in
(j11+j21)! and (j12+j22)! ways.  Summing out j12 and j21,

    rin = sum_{t=max(0,a+b-n)}^{min(a,b)} sum_{i,k}
              w_t[i] * w_{n-a-b+t}[k] * L(w_{b-t})[i][k] * L(w_{a-t})[k][i],

    L(w)[i][k] = sum_j C(i+j, i) * w[j] * (j+k)!.

Since (j+k+1)! = (k+1)(j+k)! + j (j+k)! and j C(i+j, i) = (i+1) (C(i+1+j, i+1) -
C(i+j, i)), a table fills column by column from L[i][0] = sum_j w[j] (i+j)! / i!:

    L[i][k+1] = (k - i) L[i][k] + (i + 1) L[i+1][k].

Expanding both tables shows that the pairs (x, y) = (w_t, w_{n-a-b+t}) and
(u, v) = (w_{b-t}, w_{a-t}) can trade roles:

    sum_{i,k} x_i y_k L(u)[i][k] L(v)[k][i] = sum_{j,j'} u_j v_j' L(x)[j][j'] L(y)[j'][j].

So for each t, rin sums over the pair with the shorter vectors and
tabulates the other.  In fast22 the tables then have side min(t, h - t) + 1.
Cost is O(n^3) big-integer products per term.  Equal vectors share one
table: (u, v) when a = b, as in fast22, and (x, y) when n = a + b.  When
both hold (fast22 at even n), term t has x = y = w_t and u = v = w_{a-t},
so the duality maps it onto term a - t: each mirror pair is computed once.
"""

from itertools import accumulate
from operator import mul

from .closed_forms import _interval_weight_table
from .specs import ABSOLUTE, check_mode


def _link(w, size: int, fact: list) -> list:
    """Columns of L(w), out[k][i] = L(w)[i][k] for i, k < size, by the module
    docstring's recurrence, for w of either pair.  Reads fact to 2*size - 3 + len(w)."""
    col = [sum(map(mul, w, fact[i:i + len(w)])) // fact[i] for i in range(2 * size - 1)]
    out = []
    for k in range(size):
        out.append(col[:size])
        col = [(k - i) * col[i] + (i + 1) * col[i + 1] for i in range(len(col) - 1)]
    return out


def rin(n: int, a: int, b: int, mode: str) -> int:
    """Count permutations avoiding adjacent differences of 1 (signed or
    absolute) with the rule waived at position link a and value pair {b, b+1}.

    Equals oracle.count_with_exceptions on ({a}, {b}).  Computed as

        sum_{t=max(0,a+b-n)}^{min(a,b)} sum_{i,k}
            w_t[i] * w_{n-a-b+t}[k] * L(w_{b-t})[i][k] * L(w_{a-t})[k][i]

    over the four tile groups of the module docstring, where w_L is entry L
    of closed_forms._interval_weight_table, built once per call, and
    L(w)[i][k] = sum_j C(i+j, i) * w[j] * (j+k)!, filled column by column
    by L[i][k+1] = (k - i) L[i][k] + (i + 1) L[i+1][k].  Each t sums over
    the shorter of the pairs (w_t, w_{n-a-b+t}) and (w_{b-t}, w_{a-t}) and
    tabulates the other, by the module docstring's duality.  At a = b = n/2
    the duality maps term t onto term a - t, so only t <= a/2 is summed and
    each term but the middle one counts twice.  O(n^3) per call.
    """
    check_mode(mode)
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in 1..{n - 1}, got {a}")
    if not 1 <= b <= n:
        raise ValueError(f"b must lie in 1..{n}, got {b}")
    absolute = mode == ABSOLUTE
    # _link reads fact to 2m + M, or to 2M + m < 2m + M when swapped (m = max(t, n-a-b+t),
    # M = max(a, b) - t, swapped iff M < m); 2m + M peaks at max(a + b, 2n - a - b)
    fact = list(accumulate(range(1, max(a + b, 2 * n - a - b) + 1), mul, initial=1))
    ws = _interval_weight_table(max(a, b, n - max(a, b)), absolute)  # the longest group
    mirror = a == b and n == a + b  # then term t equals term a - t: the duality
    total = 0
    for t in range(max(0, a + b - n), (a // 2 if mirror else min(a, b)) + 1):
        p, q, u, v = ws[t], ws[n - a - b + t], ws[b - t], ws[a - t]
        if max(len(u), len(v)) < max(len(p), len(q)):
            p, q, u, v = u, v, p, q  # the duality: sum over the shorter pair
        size = max(len(p), len(q))  # square tables, so one serves both ways
        lu = _link(u, size, fact)
        lv = lu if v is u else _link(v, size, fact)
        term = sum(x * sum(y * lu[k][i] * lv[i][k] for k, y in enumerate(q))
                   for i, x in enumerate(p))
        total += term << (mirror and 2 * t != a)  # a mirrored pair counts twice
    return total


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
