"""Weight enumerators of board tilings by arithmetic-progression tiles.

A gap-r tile is a horizontal shift of {1}, {1, 1+r}, {1, 1+r, 1+2r}, ...
A tiling of the board {1..n} is a partition of the board into such tiles.
Giving a tile of size k the weight x_k, the weight of a tiling is the
product of its tile weights, and the enumerator collects all tilings:

    poly(r, n) = sum over tilings T of prod_{t in T} x_{#t}

Monomials are keyed by the frequency vector (a_1, a_2, ...) of an integer
partition of n, trailing zeros trimmed, so x1^3 x2 is (3, 1).  For example

    tiling_polynomial(1, 2).terms == {(2,): 1, (0, 1): 1}     # x1^2 + x2

Every gap-r tile lives inside one residue class of {1..n} mod r, where it
is an interval, so the enumerator factors into a product of r interval
enumerators, each filled in from a multinomial: (a_1 + a_2 + ...)! /
(a_1! a_2! ...) compositions of an interval have a_i parts of size i.
That factorization is the production path, and _multiply is its one
product routine, which squares when both operands are one dict.  When the
class sizes come in equal pairs, the board is the square of the product of
one half (_operands, _product): gap 2 at even n is the square of one
class.  Reference-only and not exported: the direct board scan
(tiling_polynomial_direct, _bump), read by the tests and
bench/make_reference.py, and run_profile (RunProfile, _interval_profile),
read by the tests and by traced bench/ runs.

Internally the enumerator of a board with n cells is slotted.  A key is
the packed int of a monomial's parts >= 3: part size i >= 3 has a bit
field of width (n // i).bit_length(), part 3 at the bottom, whose shift and
mask _fields(n) lists; every reader of keys takes them from there.  Each
a_i on the board is at most n // i, so adding keys never carries.  The
value is one int, sum c << (a_2 * W) with slot width W = n + 1, and
a_1 = n - 2 a_2 - (weight of the parts >= 3) is implied.  So one big-int
product multiplies whole a_2 polynomials, and no slot carries: a slot of a
partial product counts tilings of part of the board, which has at most
2^(n-1) < 2^W of them.  A board is sized by its n; the board cache keeps
the last two, for coefficient and tiling_polynomial.  inclusion_exclusion
.count keeps no board: it takes the operands of the last product
(_operands) and builds the part of the product it needs (_product).
tiling_polynomial, coefficient and format_polynomial keep tuple keys at the
API boundary.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial


def partition_weight(freqs: tuple) -> int:
    """The integer that a frequency vector partitions: sum of i * a_i."""
    return sum(i * a for i, a in enumerate(freqs, start=1))


def trim(freqs) -> tuple:
    """Canonical monomial key: tuple with trailing zeros removed."""
    f = list(freqs)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


class TilingPolynomial(namedtuple("TilingPolynomial", "terms")):
    """Sparse weight enumerator: monomial frequency vector -> tiling count."""

    __slots__ = ()


class RunProfile(namedtuple("RunProfile", "counts")):
    """Tiling counts aggregated by (m, c) = (tiles, non-singleton tiles)."""

    __slots__ = ()


def _bump(freqs: tuple, size: int) -> tuple:
    f = list(freqs)
    if len(f) < size:
        f.extend([0] * (size - len(f)))
    f[size - 1] += 1
    return tuple(f)


@lru_cache(maxsize=512)
def _fields(n: int) -> tuple:
    """(i, shift, mask) of the bit field of each part size i = 3..n in the
    packed layout of board n: the one table of that layout."""
    fields, shift = [], 0
    for i in range(3, n + 1):
        width = (n // i).bit_length()
        fields.append((i, shift, (1 << width) - 1))
        shift += width
    return tuple(fields)


def pack(high, n: int) -> int:
    """Packed key of the parts >= 3, high = (a_3, a_4, ...), on a board with
    n cells.  Each a_i must lie in 0..n // i."""
    return sum(a << shift for a, (_, shift, _) in zip(high, _fields(n)))


def unpack(key: int, n: int) -> tuple:
    """(a_3, a_4, ...) of a packed key of board n, trailing zeros trimmed."""
    high = []
    for _, shift, mask in _fields(n):
        if not key >> shift:
            break
        high.append(key >> shift & mask)
    return tuple(high)  # trimmed: the last field read held the top set bit


def _multiply(p: dict, q: dict, out=None) -> dict:
    """Product of two enumerators keyed by packed ints of one layout, added
    into `out` when given.  When q is p it is a square, which takes each
    unordered pair of keys once: ca * ca, and 2 * ca * cb off the diagonal."""
    out = {} if out is None else out
    square, items = q is p, list(q.items())
    for i, (ka, ca) in enumerate(p.items()):
        if square:
            out[ka + ka] = out.get(ka + ka, 0) + ca * ca
            ca = 2 * ca
        for kb, cb in items[i + 1:] if square else items:
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return out


def _operands(gap: int, n: int, factor) -> tuple:
    """(p, q) whose product is the product of factor(L) over the nonempty
    residue classes of {1..n} mod gap, L being the class size; the empty
    product is {0: 1}.  q is the factor of the last class.  When the sizes,
    in descending order, come in equal pairs (as for even gap and even n),
    p is the product over one of each pair and q is p: a square."""
    sizes = [(n - j) // gap + 1 for j in range(1, min(gap, n) + 1)]
    halved = sizes[::2] == sizes[1::2]
    poly = {0: 1}
    for size in sizes[::2] if halved else sizes[:-1]:
        poly = _multiply(poly, factor(size))
    return (poly, poly) if halved else (poly, factor(sizes[-1]))


def _classes(p: dict, n: int, parts: int) -> list:
    """The terms of p, keyed in the layout of board n, split by a_3 + a_4
    mod `parts`.  (a_3 alone splits less evenly: most keys have a_3 = 0.)"""
    if parts == 1:
        return [p]
    (_, _, m_3), (_, s_4, m_4) = (_fields(n) + ((0, 0, 0),) * 2)[:2]
    out = [{} for _ in range(parts)]
    for k, c in p.items():
        out[((k & m_3) + (k >> s_4 & m_4)) % parts][k] = c
    return out


def _product(p: dict, q: dict, n: int, part: int = 0, parts: int = 1) -> dict:
    """The terms of p * q, keyed in the layout of board n, whose a_3 + a_4
    is congruent to `part` mod `parts`.  Fields add without
    carrying, so only classes i of p and j of q (see _classes) with
    i + j = part (mod parts) meet.  When q is p, equal classes are squared
    and each pair of distinct classes is multiplied once, doubled."""
    ps = _classes(p, n, parts)
    qs = ps if q is p else _classes(q, n, parts)
    out = {}
    for i, p_i in enumerate(ps):
        j = (part - i) % parts
        if q is not p or i == j:
            _multiply(p_i, qs[j], out)  # a square when qs[j] is p_i
        elif i < j:
            _multiply(p_i, {k: 2 * c for k, c in qs[j].items()}, out)
    return out


def _check_board(gap: int, n: int):
    if gap < 1:
        raise ValueError("gap must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")


def _interval_factor(length: int, n: int) -> dict:
    """Slotted enumerator of an interval of `length` cells on board n.  Each
    partition of at most `length` into parts >= 3 (b parts, den = prod a_i!,
    rest cells left) is a key, whose slot a_2 holds the multinomial
    (a_1 + a_2 + b)! / (a_1! a_2! den) with a_1 = rest - 2 a_2."""
    fact = [factorial(k) for k in range(length + 1)]
    shifts = [shift for _, shift, _ in _fields(n)]  # part i at shifts[i - 3]
    out = {}

    def walk(low, key, b, rest, den):
        out[key] = sum(fact[rest - a_2 + b] // (fact[rest - 2 * a_2] * fact[a_2] * den)
                       << a_2 * (n + 1) for a_2 in range(rest // 2 + 1))
        for i in range(low, rest + 1):
            for a in range(1, rest // i + 1):
                walk(i + 1, key | a << shifts[i - 3], b + a, rest - i * a, den * fact[a])

    walk(3, 0, 0, length, 1)
    return out


@lru_cache(maxsize=2)  # a board serves one n
def _tiling_terms(gap: int, n: int) -> dict:
    """Shared, cached slotted term dict of board n, read by coefficient and
    tiling_polynomial; inclusion_exclusion.count keeps no board.  Treat as
    read-only."""
    return _product(*_operands(gap, n, lambda size: _interval_factor(size, n)), n)


def tiling_polynomial(r: int, n: int) -> TilingPolynomial:
    """Weight enumerator of gap-r tilings of {1..n} (residue factorization)."""
    _check_board(r, n)
    mask = (1 << n + 1) - 1
    terms = {}
    for key, slots in _tiling_terms(r, n).items():
        high = unpack(key, n)
        a_1, a_2 = n - partition_weight((0, 0) + high), 0
        while slots:
            if slots & mask:
                terms[trim((a_1, a_2) + high)] = slots & mask
            slots >>= n + 1
            a_1, a_2 = a_1 - 2, a_2 + 1
    return TilingPolynomial(terms)


def tiling_polynomial_direct(r: int, n: int) -> TilingPolynomial:
    """Same enumerator by a direct scan over board positions.

    State: per residue class, the size of the still-open tile.  At each
    position the open tile of that class either grows or is closed (scoring
    its weight) and a new one starts.  Exponentially many states in r, so
    this is the cross-check, not the production path.
    """
    _check_board(r, n)
    states = {(0,) * r: {(): 1}}
    for p in range(1, n + 1):
        cls = (p - 1) % r
        new = {}
        for state, poly in states.items():
            open_len = state[cls]
            grown = state[:cls] + (open_len + 1,) + state[cls + 1:]
            tgt = new.setdefault(grown, {})
            for mono, c in poly.items():
                tgt[mono] = tgt.get(mono, 0) + c
            if open_len > 0:
                restart = state[:cls] + (1,) + state[cls + 1:]
                tgt = new.setdefault(restart, {})
                for mono, c in poly.items():
                    key = _bump(mono, open_len)
                    tgt[key] = tgt.get(key, 0) + c
        states = new
    out = {}
    for state, poly in states.items():
        for mono, c in poly.items():
            key = mono
            for open_len in state:
                if open_len:
                    key = _bump(key, open_len)
            out[key] = out.get(key, 0) + c
    return TilingPolynomial(out)


def coefficient(r: int, n: int, freqs) -> int:
    """Count of gap-r tilings of {1..n} whose weight monomial is `freqs`.

    Zero when the monomial never occurs; `freqs` must be a partition of n.
    """
    _check_board(r, n)
    key = trim(freqs)
    if partition_weight(key) != n or min(key, default=0) < 0:
        raise ValueError(f"{tuple(freqs)} is not a partition of {n}")
    slots = _tiling_terms(r, n).get(pack(key[2:], n), 0)
    return slots >> sum(key[1:2]) * (n + 1) & ((1 << n + 1) - 1)


def _interval_profile(length: int) -> dict:
    """(m, c) profile of an interval: compositions of `length` with m parts,
    c of them >= 2.  Positions of the big parts give binomial(m, c), and the
    big parts themselves are a composition of length-(m-c) into c parts >= 2."""
    if length == 0:
        return {(0, 0): 1}
    out = {(length, 0): 1}
    for m in range(1, length):
        for c in range(1, m + 1):
            ways = comb(m, c) * comb(length - m - 1, c - 1)
            if ways:
                out[(m, c)] = ways
    return out


def run_profile(s: int, n: int) -> RunProfile:
    """Gap-s tiling counts of {1..n} grouped by (tiles, non-singleton tiles).

    Agrees with aggregating tiling_polynomial(s, n) by
    (sum a_i, sum_{i>=2} a_i), but is computed directly from per-class
    binomials so it stays cheap for large n.
    """
    _check_board(s, n)
    width = n.bit_length()  # (m, c) packs as m | c << width; c <= m <= n
    counts = _product(*_operands(s, n, lambda size: {m | c << width: v for (m, c), v
                                                     in _interval_profile(size).items()}), n)
    mask = (1 << width) - 1
    return RunProfile({(k & mask, k >> width): v for k, v in counts.items()})


def format_polynomial(poly: TilingPolynomial) -> str:
    """One term per line, "count * x1^a1 x2^a2 ...", sorted by descending
    a_1 then lexicographically.  Stable format for golden-file comparisons."""
    lines = []
    for mono in sorted(poly.terms, key=lambda m: (-(m[0] if m else 0), m)):
        factors = " ".join(
            f"x{i}^{a}" for i, a in enumerate(mono, start=1) if a
        )
        lines.append(f"{poly.terms[mono]} * {factors or '1'}")
    return "\n".join(lines)
