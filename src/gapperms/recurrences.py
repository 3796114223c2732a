"""Fitting and checking linear recurrences with polynomial coefficients.

An operator of order rho and degree d is a list of rho + 1 integer
polynomials p_0 .. p_rho (constant term first) asserting

    p_0(n) t(n) + p_1(n) t(n-1) + ... + p_rho(n) t(n-rho) = 0

for every applicable n.  `_values` evaluates a p_j by Horner's rule over a
run of n; `_residuals` sums the left side from it for `fit`, `verify` and
`apply`, and `extend` steps on it.  `fit` solves exactly (no float, no
Fraction) for the coefficients over a window of known terms, and accepts
only a one-dimensional nullspace whose operator holds on a held-out tail.

The nullspace is found modulo primes, from window columns built out of
t(n) mod p and n mod p, and certified exactly:
- Nullity 0 mod p proves nullity 0 over Q (rank over Q >= rank mod p).
- Otherwise the k kernel vectors mod p join, by CRT, the run of primes
  before p with the same dependent columns (or start a new run), and are
  rationally reconstructed mod the run's product M.  Once every entry
  reconstructs, each is evaluated as an operator on the window, and this
  exact check alone accepts it.  Each has 1 at its own dependent column and
  0 at the other k - 1, so k vectors that pass prove nullity >= k over Q,
  and the rank inequality gives <= k.
- Until a check passes, the next prime is taken: PRIME, then the primes
  below it.  A prime whose dependent columns differ from those over Q
  divides a fixed nonzero product of minors, so there are finitely many;
  with the same columns, the kernel mod p reduces the one over Q.  Each
  prime adds about 29 bits to M, and the entries over Q are ratios of minors
  (Cramer's rule), so the lift is right once M > 2 H**2 for their height H.
  A wrong lift costs one more prime, never an answer.
"""

import struct
from math import gcd, isqrt, lcm

PRIME = 536870909  # 2**29 - 3: a product of two residues fits in 58 bits
_SLOT = 2**64 - 1  # one packed residue per 64-bit slot


class TermTable:
    """Consecutive int values t(offset), t(offset+1), ..., checked only when built."""

    def __init__(self, offset: int, values: list):
        if not values:
            raise ValueError("TermTable must hold at least one value")
        for n, v in enumerate(values, offset):
            if not isinstance(v, int):
                raise TypeError(f"t({n}) = {v!r} is not an int")
        self.offset = offset
        self.values = values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.offset, self.values) == (other.offset, other.values)

    def __repr__(self):
        return f"TermTable(offset={self.offset!r}, values={self.values!r})"

    @property
    def last(self) -> int:
        return self.offset + len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        if not self.offset <= n <= self.last:
            raise IndexError(f"index {n} outside {self.offset}..{self.last}")
        return self.values[n - self.offset]


class InsufficientTermsError(ValueError):
    """fit() was given fewer terms than the data bound requires."""


class UnderdeterminedError(ValueError):
    """The fit nullspace has dimension > 1; no single operator is certified."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(f"underdetermined: nullspace has dimension {dimension}")


class SingularLeadingTermError(ArithmeticError):
    """extend() hit p_0(n) = 0 at an index it must produce."""


class InexactStepError(ArithmeticError):
    """extend() produced a non-integer value: wrong operator or wrong seeds."""


def _trim(coeffs) -> list:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


class RecurrenceOperator:
    """Coefficients p_0 .. p_order, each a constant-first list of ints with trailing
    zeros trimmed, so equality compares these lists.  A non-int raises TypeError when
    the operator is built; `.coeffs` is not checked after.  `fit` returns the normal
    form: integer content 1, with the leading coefficient of p_0 positive."""

    def __init__(self, coeffs=()):
        self.coeffs = [list(p) for p in coeffs]
        for j, p in enumerate(self.coeffs):
            for e, c in enumerate(p):
                if not isinstance(c, int):
                    raise TypeError(f"p_{j} coefficient {e} = {c!r} is not an int")
        self.coeffs = [_trim(p) for p in self.coeffs]
        if not self.coeffs or not self.coeffs[0]:
            raise ValueError("p_0 must not be identically zero")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"RecurrenceOperator(coeffs={self.coeffs!r})"

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(len(p) - 1 for p in self.coeffs if p)

    def apply(self, terms: TermTable, n: int) -> int:
        """Value of sum_j p_j(n) t(n-j); zero whenever the operator holds."""
        return _residuals(self.coeffs, terms, n, n + 1)[0]


def _values(p, ns) -> list:
    """p(n) for each n in `ns`, by Horner's rule over the whole run at once;
    zeros for the empty (all-zero) polynomial."""
    vals = [p[-1] if p else 0] * len(ns)
    for c in reversed(p[:-1]):
        vals = [v * n + c for v, n in zip(vals, ns)]
    return vals


def _residuals(coeffs, terms: TermTable, start: int, stop: int) -> list:
    """sum_j p_j(n) t(n-j) for each n in range(start, stop), one p_j at a
    time: its `_values` over the range, then a product with t(n-j)."""
    if start >= stop:
        return []
    terms[start - len(coeffs) + 1], terms[stop - 1]  # IndexError outside the table
    ns, first = range(start, stop), start - terms.offset
    total = [0] * len(ns)
    for j, p in enumerate(coeffs):
        if any(p):
            total = [s + v * x for s, v, x in zip(total, _values(p, ns), terms.values[first - j:])]
    return total


def _pack(residues) -> int:
    return int.from_bytes(struct.pack(f"<{len(residues)}Q", *residues), "little")


def _reduce(packed: int, n: int, p: int) -> list:
    """The n slots of `packed`, each reduced mod p."""
    return [x % p for x in struct.unpack(f"<{n}Q", packed.to_bytes(8 * n, "little"))]


def _primes():
    """PRIME, read at call time, then every other odd prime below 2**29 - 3,
    largest first, by Miller-Rabin with the bases 2, 3, 5 and 7 (exact below
    3.2e9).  A power that is 0 mod n means n divides the base: n is 3, 5 or 7."""
    first = PRIME
    yield first
    for n in range(2**29 - 5, 2, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
        if n != first and all((x := pow(a, n >> s, n)) in (0, 1, n - 1)
                              or any((x := x * x % n) == n - 1 for _ in range(s - 1))
                              for a in (2, 3, 5, 7)):
            yield n


def _kernel_mod_p(cols: list, p: int) -> list:
    """A basis of the kernel mod p of the residue columns `cols`: one pair
    (j, residue list) per column j that is a combination of the columns
    before it, the list with 1 at j and 0 at every other such column.  Column
    j is one int with a 64-bit slot per entry: its nrows entries, then ncols
    slots that start as e_j, so subtracting a multiple of a basis column is
    one big-int multiply-add.  Basis columns are reduced, not normalized, and
    kept with the inverse of their pivot (the lowest nonzero row slot).  An
    addition adds under (p-1)**2 to a slot, so slots are reduced again only
    after `burst` additions, the most that keep every slot below 2**64."""
    burst = (2**64 - p) // (p - 1) ** 2
    nrows = len(cols[0])
    size = nrows + len(cols)
    row_part = (1 << 64 * nrows) - 1
    basis, kernel = [], []  # basis: (pivot slot shift, pivot inverse, column)
    for j, col in enumerate(cols):
        vec, adds = _pack(col) | 1 << 64 * (nrows + j), 0
        for shift, inv, b in basis:
            c = -(vec >> shift & _SLOT) * inv % p
            if c:
                if adds == burst:
                    vec, adds = _pack(_reduce(vec, size, p)), 0
                vec += c * b
                adds += 1
        vec = _pack(residues := _reduce(vec, size, p))
        if rest := vec & row_part:
            shift = (rest & -rest).bit_length() - 1 & -64
            basis.append((shift, pow(vec >> shift & _SLOT, -1, p), vec))
        else:
            kernel.append((j, residues[nrows:]))
    return kernel


def _lift(vec: list, m: int):
    """The integer vector proportional to the rational reconstructions n/d of
    the entries of `vec` mod m, with |n|, |d| <= sqrt(m/2) (Wang's method, by
    the extended Euclidean algorithm), or None if an entry has none."""
    bound = isqrt(m // 2)
    fracs = []
    for a in vec:
        r0, r1, s0, s1 = m, a, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound:
            return None
        fracs.append((r1, s1))
    scale = lcm(*(d for _, d in fracs))
    return [n * (scale // d) for n, d in fracs]


def _kernel(residue_columns, holds):
    """Nullity of an integer system and, when it is 1, a kernel vector (else
    None).  `residue_columns(p)` gives the system's columns mod p, and
    `holds(vec)` says whether an integer vector is in its kernel."""
    deps = None
    for p in _primes():
        kernel = _kernel_mod_p(residue_columns(p), p)
        if not kernel:
            return 0, None
        if [j for j, _ in kernel] != deps:  # p starts a new run
            deps, m, residues = [j for j, _ in kernel], 1, [[0] * len(v) for _, v in kernel]
        inv = pow(m, -1, p)
        residues = [[a + (b - a) * inv % p * m for a, b in zip(old, vec)]
                    for old, (_, vec) in zip(residues, kernel)]
        m *= p
        vecs = [_lift(vec, m) for vec in residues]
        if None not in vecs and all(map(holds, vecs)):
            return len(vecs), (vecs[0] if len(vecs) == 1 else None)


def _normalize(vec: list, degree: int) -> list:
    content, size = gcd(*vec), degree + 1
    coeffs = [[x // content for x in vec[i:i + size]] for i in range(0, len(vec), size)]
    lead = _trim(coeffs[0])
    if lead and lead[-1] < 0:
        coeffs = [[-c for c in p] for p in coeffs]
    return coeffs


def _residue_columns(terms: TermTable, order: int, degree: int, holdout: int,
                     p: int) -> list:
    """The fit window mod p, column (j, e) holding n^e t(n-j) for each n,
    from t mod p and n mod p: column (j, e+1) is column (j, e) times n."""
    t = [x % p for x in terms.values]
    stop = len(t) - holdout
    ns = [(terms.offset + i) % p for i in range(order, stop)]
    cols = []
    for j in range(order + 1):
        cols.append(t[order - j:stop - j])
        for _ in range(degree):
            cols.append([x * n % p for x, n in zip(cols[-1], ns)])
    return cols


def fit(terms: TermTable, order: int, degree: int, holdout: int = 5):
    """Fit a recurrence of the given order and degree to `terms`.

    Returns the unique normalized operator when the nullspace of the window
    system is one-dimensional and the operator also annihilates the final
    `holdout` values; returns None when no operator exists (or the candidate
    fails the holdout); raises UnderdeterminedError when more data is
    needed to single one out.
    """
    if order < 0 or degree < 0 or holdout < 0:
        raise ValueError("order, degree and holdout must be >= 0")
    n_values = len(terms.values)
    bound = (order + 1) * (degree + 1) + order + 1
    if n_values < bound + holdout:
        raise InsufficientTermsError(
            f"need at least (order+1)(degree+1)+order+1 = {bound} terms "
            f"plus holdout={holdout} (total {bound + holdout}); got {n_values}"
        )
    if all(v == 0 for v in terms.values):
        raise ValueError("degenerate input: all terms are zero")

    start, stop = terms.offset + order, terms.last + 1 - holdout
    nullity, vec = _kernel(
        lambda p: _residue_columns(terms, order, degree, holdout, p),
        lambda vec: not any(_residuals(_normalize(vec, degree), terms, start, stop)))
    if nullity == 0:
        return None
    if nullity > 1:
        raise UnderdeterminedError(nullity)
    coeffs = _normalize(vec, degree)
    if not _trim(coeffs[0]):
        return None  # p_0 vanished: not a usable operator
    op = RecurrenceOperator(coeffs)
    if any(_residuals(op.coeffs, terms, stop, terms.last + 1)):
        return None  # the kernel check proved the window; the holdout rejects
    return op


def verify(op: RecurrenceOperator, terms: TermTable):
    """First index where the operator fails on `terms`, or None if it holds
    at every applicable index."""
    start = terms.offset + op.order
    if start > terms.last:
        raise ValueError(f"need at least {op.order + 1} consecutive terms to verify")
    residuals = _residuals(op.coeffs, terms, start, terms.last + 1)
    return next((start + i for i, r in enumerate(residuals) if r), None)


def extend(op: RecurrenceOperator, seeds: TermTable, n_max: int) -> TermTable:
    """Terms up to index n_max from running the recurrence forward from
    `seeds`, which it must hold on; each division by p_0(n) must be exact."""
    if n_max < seeds.offset:
        raise ValueError(f"n_max={n_max} is below the first seed index {seeds.offset}")
    if len(seeds.values) < op.order:
        raise ValueError(f"seeds must cover at least order={op.order} terms")
    if n_max > seeds.last and len(seeds.values) > op.order:
        if (failing := verify(op, seeds)) is not None:
            raise ValueError(f"the operator fails on the seeds at n={failing}")
    values, ns = list(seeds.values), range(seeds.last + 1, n_max + 1)
    for n, p0, *ps in zip(ns, *(_values(p, ns) for p in op.coeffs)):
        if p0 == 0:
            raise SingularLeadingTermError(f"p_0({n}) = 0; cannot solve for t({n})")
        acc = sum(v * values[n - j - seeds.offset] for j, v in enumerate(ps, 1))
        q, rem = divmod(-acc, p0)
        if rem:
            raise InexactStepError(
                f"t({n}) is not an integer; operator and seeds are inconsistent"
            )
        values.append(q)
    return TermTable(seeds.offset, values[:n_max - seeds.offset + 1])


def format_operator(op: RecurrenceOperator, offset: int = 1) -> str:
    """Stable text form: header "order degree offset", then one line of
    space-separated constant-first integers per coefficient polynomial."""
    lines = [f"{op.order} {op.degree} {offset}"]
    for p in op.coeffs:
        lines.append(" ".join(str(c) for c in (p or [0])))
    return "\n".join(lines) + "\n"


def parse_operator(text: str):
    """Inverse of format_operator; returns (operator, offset)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty operator text")
    try:
        order, degree, offset = (int(x) for x in lines[0].split())
    except ValueError:
        order = degree = -1
    if min(order, degree) < 0:
        raise ValueError(f"bad operator header {lines[0]!r}")
    if len(lines) != order + 2:
        raise ValueError(f"expected {order + 1} coefficient lines, got {len(lines) - 1}")
    coeffs = []
    for ln in lines[1:]:
        try:
            coeffs.append([int(x) for x in ln.split()])
        except ValueError as exc:
            raise ValueError(f"bad coefficient line {ln!r}") from exc
    op = RecurrenceOperator(coeffs)
    if op.degree != degree:
        raise ValueError(f"header says degree {degree}, coefficient lines have degree {op.degree}")
    return op, offset
