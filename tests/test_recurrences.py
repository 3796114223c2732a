"""Exact recurrence fitting, verification, extension, serialization."""

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm
from operator import mul
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapperms import (
    ABSOLUTE,
    RecurrenceOperator,
    TermTable,
    extend,
    fast_r1,
    fit,
    format_operator,
    navarrete_recurrence,
    parse_operator,
    riordan_sequence,
    verify,
)
from gapperms import recurrences
from gapperms.recurrences import (
    PRIME,
    InexactStepError,
    InsufficientTermsError,
    SingularLeadingTermError,
    UnderdeterminedError,
    _kernel,
    _kernel_mod_p,
    _normalize,
    _residuals,
    _residue_columns,
    _values,
)

# t(n) - (n-1) t(n-1) - (n-2) t(n-2) = 0
NAV1 = RecurrenceOperator([[1], [1, -1], [2, -1]])
# t(n) - (n+1) t(n-1) + (n-2) t(n-2) + (n-5) t(n-3) - (n-3) t(n-4) = 0
RIORDAN = RecurrenceOperator([[1], [-1, -1], [-2, 1], [-5, 1], [3, -1]])


def test_fit_recovers_second_order_operator():
    terms = TermTable(1, navarrete_recurrence(1, 20))
    op = fit(terms, order=2, degree=1)
    assert op is not None
    assert op.coeffs == NAV1.coeffs


def test_fit_constant_sequence():
    op = fit(TermTable(1, [1] * 10), order=1, degree=0, holdout=3)
    assert op.coeffs == [[1], [-1]]


def test_fit_recovers_riordan_operator():
    terms = TermTable(1, fast_r1(1, ABSOLUTE, 40))
    op = fit(terms, order=4, degree=1)
    assert op is not None
    assert op.coeffs == RIORDAN.coeffs


def test_fit_data_bound_refusal():
    with pytest.raises(InsufficientTermsError) as exc:
        fit(TermTable(1, [1, 2, 3, 4, 5]), order=2, degree=1)
    assert "9" in str(exc.value)  # (2+1)(1+1)+2+1
    # exactly one short of the bound including holdout
    with pytest.raises(InsufficientTermsError):
        fit(TermTable(1, list(range(1, 14))), order=2, degree=1, holdout=5)
    # exactly at the bound: no refusal
    terms = TermTable(1, navarrete_recurrence(1, 14))
    assert fit(terms, order=2, degree=1, holdout=5) is not None


def test_fit_underdetermined_is_flagged():
    fib = [1, 1]
    while len(fib) < 25:
        fib.append(fib[-1] + fib[-2])
    # the minimal operator has degree 0, so (a + b n) multiples also fit
    with pytest.raises(UnderdeterminedError) as exc:
        fit(TermTable(1, fib), order=2, degree=1)
    assert exc.value.dimension == 2


def test_fit_absence_and_holdout_rejection():
    terms = TermTable(1, navarrete_recurrence(1, 20))
    assert fit(terms, order=1, degree=1) is None
    # window fits but the corrupted tail must reject the candidate
    assert fit(TermTable(1, [1] * 9 + [2]), order=1, degree=0, holdout=3) is None
    # the one kernel vector is t(n-1) = t(n-2): p_0 vanishes, so no operator
    assert fit(TermTable(1, [1, 1, 1, 1, 1, 5, 7, 2, 9, 4, 3]), order=2, degree=0) is None


def test_fit_checks_only_the_holdout(monkeypatch):
    # the kernel check evaluates each candidate on the window, which proves
    # every window row, so the found operator is evaluated only at the holdout
    calls = []
    residuals = recurrences._residuals
    monkeypatch.setattr(recurrences, "_residuals", lambda coeffs, terms, start, stop: (
        calls.append((start, stop)) or residuals(coeffs, terms, start, stop)))
    terms = TermTable(1, riordan_sequence(44))
    for holdout in (0, 3, 5):
        calls.clear()
        assert fit(terms, order=4, degree=1, holdout=holdout) == RIORDAN
        assert calls[-1] == (45 - holdout, 45)
        assert set(calls[:-1]) == {(5, 45 - holdout)}


def test_fit_with_no_holdout_at_order_zero():
    # the holdout range is empty and starts one past the table, where an
    # order-0 operator would read its only term
    terms = TermTable(1, [5, 0, 0, 0, 0, 0, 0, 0])
    for holdout in (0, 1):
        assert fit(terms, order=0, degree=1, holdout=holdout) == RecurrenceOperator([[-1, 1]])
    assert recurrences._residuals([[-1, 1]], terms, 9, 9) == []
    with pytest.raises(IndexError):
        RecurrenceOperator([[-1, 1]]).apply(terms, 9)


def test_fit_rejects_all_zero_input():
    with pytest.raises(ValueError):
        fit(TermTable(1, [0] * 20), order=1, degree=0)


@settings(max_examples=15, deadline=None)
@given(scale=st.integers(min_value=-50, max_value=50).filter(lambda x: x != 0))
def test_fit_is_scaling_invariant(scale):
    base = navarrete_recurrence(1, 16)
    op_a = fit(TermTable(1, base), order=2, degree=1, holdout=2)
    op_b = fit(TermTable(1, [scale * v for v in base]), order=2, degree=1, holdout=2)
    assert op_a.coeffs == op_b.coeffs


def test_verify_success_and_first_failure():
    table = TermTable(1, fast_r1(1, ABSOLUTE, 60))
    assert verify(RIORDAN, table) is None
    corrupted = list(table.values)
    corrupted[29] += 1
    assert verify(RIORDAN, TermTable(1, corrupted)) == 30
    table2 = TermTable(1, navarrete_recurrence(2, 40))
    nav2 = RecurrenceOperator([[1], [1, -1], [3, -1]])
    assert verify(nav2, table2) is None
    assert RIORDAN.apply(table, 60) == 0 and RIORDAN.apply(TermTable(1, corrupted), 30) != 0
    for n in (4, 61):  # t(n - 4) or t(n) lies outside the table
        with pytest.raises(IndexError):
            RIORDAN.apply(table, n)


def test_verify_needs_enough_terms():
    with pytest.raises(ValueError):
        verify(RIORDAN, TermTable(1, [1, 0, 0]))


def test_extend_examples():
    assert extend(RIORDAN, TermTable(1, [1, 0, 0, 2]), 5).values == [1, 0, 0, 2, 14]
    step = RecurrenceOperator([[1], [-1]])
    assert extend(step, TermTable(1, [7]), 4).values == [7, 7, 7, 7]
    assert extend(NAV1, TermTable(1, [1, 1]), 4).values == [1, 1, 3, 11]
    seeds = TermTable(3, [0, 2, 14, 90])  # only the terms up to n_max come back
    assert extend(RIORDAN, seeds, 5).values == [0, 2, 14]
    assert extend(RIORDAN, seeds, 3).values == [0]
    skip = RecurrenceOperator([[1], [], [-1]])  # t(n) = t(n-2): p_1 is zero
    assert extend(skip, TermTable(1, [1, 2]), 6).values == [1, 2, 1, 2, 1, 2]
    assert extend(RecurrenceOperator([[1]]), TermTable(1, [0]), 4).values == [0] * 4


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.integers(-10**20, 10**20), max_size=6),
       start=st.integers(-40, 40), length=st.integers(0, 12))
@example(p=[], start=-3, length=5)
@example(p=[4, 0, -1], start=-7, length=10)
def test_values_match_the_power_sum(p, start, length):
    ns = range(start, start + length)
    assert _values(p, ns) == [sum(c * n**e for e, c in enumerate(p)) for n in ns]


def test_extend_round_trips_with_verify():
    table = extend(RIORDAN, TermTable(1, [1, 0, 0, 2]), 30)
    assert verify(RIORDAN, table) is None


def test_extend_error_paths():
    singular = RecurrenceOperator([[-10, 1], [10, -1]])  # (n-10)(t(n) - t(n-1))
    with pytest.raises(SingularLeadingTermError):
        extend(singular, TermTable(1, [1]), 12)
    halving = RecurrenceOperator([[2], [-1]])  # 2 t(n) = t(n-1)
    with pytest.raises(InexactStepError):
        extend(halving, TermTable(1, [3]), 3)
    with pytest.raises(ValueError):
        extend(RIORDAN, TermTable(1, [1, 0]), 10)  # seeds shorter than order
    with pytest.raises(ValueError, match="n_max=2 is below the first seed index 3"):
        extend(RIORDAN, TermTable(3, [0, 2, 14, 90]), 2)


def test_extend_refuses_seeds_the_operator_fails_on():
    # Riordan's terms shifted to start at index 0: stepping on from them
    # would serve wrong terms, so extend refuses at the index verify reports
    shifted = TermTable(0, riordan_sequence(20))
    assert verify(RIORDAN, shifted) == 4
    with pytest.raises(ValueError, match="the operator fails on the seeds at n=4"):
        extend(RIORDAN, shifted, 25)
    assert extend(RIORDAN, shifted, 19) == shifted  # no step: the seeds come back as given
    with pytest.raises(ValueError, match="the operator fails on the seeds at n=1"):
        extend(RecurrenceOperator([[1]]), TermTable(1, [5]), 4)  # t(n) = 0, order 0


def test_operator_normalization():
    # content is cleared and the leading coefficient of p_0 made positive
    op = RecurrenceOperator([[-2, -4], [6, 0]])
    # construction does not normalize; fit does.  Equality therefore compares
    # raw coefficient lists, trailing zeros trimmed.
    assert op.coeffs == [[-2, -4], [6]]
    assert op.order == 1
    assert op.degree == 1
    with pytest.raises(ValueError, match="p_0 must not be identically zero"):
        RecurrenceOperator([[0, 0], [1]])
    with pytest.raises(ValueError, match="p_0 must not be identically zero"):
        RecurrenceOperator()
    # compared by value, shown as a dataclass would show it, never hashed
    assert op == RecurrenceOperator(coeffs=[[-2, -4, 0], [6, 0]]) != RecurrenceOperator([[1]])
    assert op != [[-2, -4], [6]]
    assert repr(op) == "RecurrenceOperator(coeffs=[[-2, -4], [6]])"
    with pytest.raises(TypeError):
        hash(op)


@pytest.mark.parametrize("order, degree, holdout", [(-1, 0, 5), (1, -1, 5), (1, 0, -1)])
def test_fit_refuses_negative_sizes(order, degree, holdout):
    with pytest.raises(ValueError, match="^order, degree and holdout must be >= 0$"):
        fit(TermTable(1, riordan_sequence(40)), order, degree, holdout)


def test_serialization_round_trip():
    text = format_operator(RIORDAN, offset=1)
    assert text == "4 1 1\n1\n-1 -1\n-2 1\n-5 1\n3 -1\n"
    op, offset = parse_operator(text)
    assert op.coeffs == RIORDAN.coeffs
    assert offset == 1
    with pytest.raises(ValueError, match="^empty operator text$"):
        parse_operator("")
    with pytest.raises(ValueError):
        parse_operator("not a header\n1\n")
    with pytest.raises(ValueError):
        parse_operator("2 1 1\n1\n1 1\n")  # missing a coefficient line
    with pytest.raises(ValueError, match="^bad coefficient line 'x'$"):
        parse_operator("1 0 1\n1\nx\n")
    for header in ("-2 0 1", "-1 0 1", "1 -1 1"):  # a negative order or degree
        with pytest.raises(ValueError, match=f"^bad operator header '{header}'$"):
            parse_operator(f"{header}\n1\n1\n")
    for text, said, found in (("1 7 1\n1\n-1\n", 7, 0), ("1 0 1\n1 0 1\n-1\n", 0, 2)):
        with pytest.raises(ValueError, match=f"degree {said}.*degree {found}"):
            parse_operator(text)


def test_term_table_indexing():
    table = TermTable(3, [10, 20, 30])
    assert table[3] == 10 and table[5] == 30
    with pytest.raises(IndexError):
        table[6]
    with pytest.raises(ValueError, match="TermTable must hold at least one value"):
        TermTable(1, [])
    assert table == TermTable(offset=3, values=[10, 20, 30])
    assert table != TermTable(4, [10, 20, 30]) and table != (3, [10, 20, 30])
    assert repr(table) == "TermTable(offset=3, values=[10, 20, 30])"
    with pytest.raises(TypeError):
        hash(table)


def test_terms_and_coefficients_must_be_ints():
    # float terms would run: extend gave t(40) = 1.102780770543278e+47 from
    # these seeds, wrong from n = 20 on, and verify reported a false 20
    for values, index in (([1.0, 0, 0, 2], 1), ([1, 0, 0, Fraction(2)], 4), ([1, True, 2.0], 3)):
        with pytest.raises(TypeError, match=rf"^t\({index}\) = .* is not an int$"):
            TermTable(1, values)
    assert extend(RIORDAN, TermTable(1, [1, 0, 0, 2]), 40)[40] == (
        110278077054327740340160424064903831534968959226)
    for coeffs, where in (([[1.0]], "p_0 coefficient 0"), ([[1], [-1, 0.0]], "p_1 coefficient 1"),
                          ([[1], [Fraction(1, 2)]], "p_1 coefficient 0")):
        with pytest.raises(TypeError, match=f"^{where} = .* is not an int$"):
            RecurrenceOperator(coeffs)


def nullspace_reference(rows, ncols):
    """Basis of the rational nullspace by Gauss-Jordan elimination over
    Fraction: the reference for the fraction-free kernel."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivot_cols = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(col)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -mat[row_idx][fc]
        basis.append(vec)
    return basis


def primitive(vec):
    """The integer multiple of vec with content 1 and first nonzero entry > 0."""
    ints = [int(x * lcm(*(Fraction(y).denominator for y in vec))) for x in vec]
    ints = [x // gcd(*ints) for x in ints]
    return [-x for x in ints] if next(x for x in ints if x) < 0 else ints


def window_rows(terms, order, degree, holdout):
    """The fit window as an integer matrix: one row per n, whose dot product
    with the flat coefficient vector (p_0's coefficients, then p_1's, ...)
    is sum_j p_j(n) t(n-j): the reference for `_residue_columns` and
    `_residuals`."""
    t = terms.values  # t[i] = t(offset + i)
    return [[x * t[i - j] for j in range(order + 1) for x in powers]
            for i in range(order, len(t) - holdout)
            for powers in ([(terms.offset + i) ** e for e in range(degree + 1)],)]


def row_kernel(rows, ncols):
    """_kernel on an integer matrix: its columns reduced mod each prime it
    asks for, and a vector checked exactly against every row."""
    columns = list(zip(*rows)) if rows else [()] * ncols
    return _kernel(lambda p: [[x % p for x in col] for col in columns],
                   lambda vec: not any(sum(map(mul, row, vec)) for row in rows))


def reference_kernel(rows, ncols):
    """What _kernel must return, from the Fraction basis."""
    basis = nullspace_reference(rows, ncols)
    return len(basis), (primitive(basis[0]) if len(basis) == 1 else None)


def check_kernel_against_reference(rows, ncols):
    """_kernel against the Fraction basis."""
    basis = nullspace_reference(rows, ncols)
    nullity, vec = row_kernel(rows, ncols)
    assert nullity == len(basis)
    if nullity != 1:
        assert vec is None
        return None
    assert all(isinstance(x, int) for x in vec)
    assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    assert primitive(vec) == primitive(basis[0])
    return basis[0], vec


GRID = [
    *((f"navarrete{s}", navarrete_recurrence(s, 44)) for s in (1, 2, 3)),
    ("riordan", riordan_sequence(44)),
]


def grid_cells(values):
    """The (order, degree) cells of the fit grid that `values` is long enough for."""
    for order in range(1, 9):
        for degree in range(4):
            if len(values) >= (order + 1) * (degree + 1) + order + 1 + 5:
                yield order, degree


@pytest.mark.parametrize("name, values", GRID)
def test_kernel_matches_fraction_reference_on_fit_grid(name, values):
    terms = TermTable(1, values)
    for order, degree in grid_cells(values):
        ncols = (order + 1) * (degree + 1)
        found = check_kernel_against_reference(window_rows(terms, order, degree, 5), ncols)
        if found is not None:
            ref, vec = found
            assert _normalize(vec, degree) == _normalize(primitive(ref), degree)


def fit_outcome(terms, order, degree):
    try:
        op = fit(terms, order, degree)
    except UnderdeterminedError as exc:
        return "underdetermined", exc.dimension
    return op and op.coeffs


@pytest.fixture
def primes_used(monkeypatch):
    """The primes each _kernel call takes, one list per call."""
    calls = []
    primes = recurrences._primes

    def counted():
        calls.append([])
        for p in primes():
            calls[-1].append(p)
            yield p

    monkeypatch.setattr(recurrences, "_primes", counted)
    return calls


def test_primes_descend_from_the_prime():
    below = (n for n in range(PRIME, 2, -2) if all(n % d for d in range(3, isqrt(n) + 1, 2)))
    assert list(islice(recurrences._primes(), 200)) == list(islice(below, 200))


@pytest.mark.parametrize("modulus", [2, 3, 7])
def test_fit_outcomes_do_not_depend_on_the_prime(monkeypatch, primes_used, modulus):
    cells = [(TermTable(1, values), order, degree)
             for _, values in GRID for order, degree in grid_cells(values)]
    expected = [fit_outcome(*cell) for cell in cells]
    assert primes_used and all(used == [PRIME] for used in primes_used)
    primes_used.clear()
    monkeypatch.setattr(recurrences, "PRIME", modulus)
    assert [fit_outcome(*cell) for cell in cells] == expected
    assert all(used[0] == modulus for used in primes_used)
    # a tiny prime is unlucky somewhere, and a further prime decides
    assert any(len(used) > 1 for used in primes_used)


def test_fit_lifts_over_further_primes(primes_used):
    # coefficients of 40 to 60 bits: far above one prime's bound sqrt(p/2)
    tall = RecurrenceOperator([[1], [3**25, -(7**20)], [-(2**45), 11**13]])
    terms = extend(tall, TermTable(1, [1, 2]), 80)
    assert fit(TermTable(1, terms.values[:40]), order=2, degree=1) == tall
    assert verify(tall, terms) is None
    # the first lift that passes the exact check is accepted
    assert len(primes_used) == 1 and len(primes_used[0]) == 4
    primes_used.clear()
    # Riordan's operator has order 4 and degree 1, so its multiples by every
    # operator of order <= 5 and degree <= 5 fill a 36-dimensional kernel,
    # whose basis needs more than one prime to reconstruct
    with pytest.raises(UnderdeterminedError) as exc:
        fit(TermTable(1, riordan_sequence(150)), order=9, degree=6)
    assert exc.value.dimension == 36
    assert len(primes_used) == 1 and len(primes_used[0]) == 2


@st.composite
def int_matrices(draw):
    """Integer matrices of bounded rank, with zero and dependent columns so
    that elimination skips pivot columns; often wider than tall."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-4, 4), st.integers(-10**12, 10**12),
                      st.integers(-2**90, 2**90))
    rank = draw(st.integers(0, min(nrows, ncols)))
    base = [[draw(entry) for _ in range(ncols)] for _ in range(rank)]
    weights = [[draw(st.integers(-3, 3)) for _ in base] for _ in range(nrows)]
    rows = [[sum(w * b[c] for w, b in zip(ws, base)) for c in range(ncols)] for ws in weights]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = 0
    if ncols > 1 and draw(st.booleans()):
        src, dst = sorted(draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2,
                                        unique=True)))
        scale = draw(st.integers(-5, 5))
        for row in rows:
            row[dst] = scale * row[src]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_kernel_matches_fraction_reference_on_random_matrices(matrix):
    rows, ncols = matrix
    check_kernel_against_reference(rows, ncols)


def test_kernel_edge_cases():
    assert row_kernel([], 1) == (1, [1])
    assert row_kernel([[0, 0]], 2) == (2, None)
    assert row_kernel([[2, 3]], 2) == (1, [-3, 2])
    assert row_kernel([[0, 5], [0, 7]], 2) == (1, [1, 0])  # first column never pivots
    assert row_kernel([[1, 2], [3, 4], [5, 6]], 2) == (0, None)


def test_kernel_takes_a_further_prime_when_the_first_is_unlucky(primes_used):
    p = PRIME
    # certified by the first prime: full rank, and one exact kernel vector
    assert row_kernel([[1, 2], [3, 4], [5, 6]], 2) == (0, None)
    assert row_kernel([[1, 2], [2, 4]], 2) == (1, [-2, 1])
    assert primes_used == [[p], [p]]
    primes_used.clear()
    # full rank over Q, singular mod p: the kernel vector mod p fails the
    # exact check, and the next prime proves nullity 0
    assert row_kernel([[p, 0], [0, 1]], 2) == (0, None)
    # nullity 2 mod p but 1 over Q: the next prime finds the one kernel vector
    assert row_kernel([[p, 0, 0], [0, 1, 0]], 3) == (1, [0, 0, 1])
    assert [len(used) for used in primes_used] == [2, 2]


def test_kernel_lifts_above_one_primes_reconstruction_bound(primes_used):
    rows = [[1, -(2**20 + 1)]]  # kernel (2**20 + 1, 1): a height above sqrt(p/2)
    assert row_kernel(rows, 2) == (1, [2**20 + 1, 1])
    assert len(primes_used[0]) == 2  # M ~ 2**58 > 2 * (2**20 + 1)**2
    # 900-bit kernel entries need M > 2 * 2**1800, so more than 1800 / 29 primes
    rows = [[3**567, -(5**388 + 1)]]
    assert row_kernel(rows, 2) == (1, [5**388 + 1, 3**567])
    assert len(primes_used[1]) > 1800 // 29


def test_kernel_reduces_slots_between_bursts(primes_used):
    # Column i has 1 in row i and -1 below it; the last column is their sum,
    # so reducing it takes 70 multiply-adds of (p - 1) times residues p - 1,
    # more than one burst.  Without the periodic reduction a slot carries into
    # the zero row below it, and the dependent column would look independent.
    size = 70
    assert size * (PRIME - 1) ** 2 > 2**64
    rows = [[1 if c == r else -1 if c < r else 0 for c in range(size)] + [1 - r]
            for r in range(size)] + [[0] * (size + 1)]
    nullity, vec = row_kernel(rows, size + 1)
    assert primes_used == [[PRIME]]
    assert nullity == 1 and vec == [-1] * size + [1]


@pytest.mark.parametrize("modulus", [PRIME, 7])
def test_residue_columns_reduce_the_exact_window(modulus):
    # the residue columns reduce the window, and the evaluator fit certifies
    # with equals the window times a vector, for vectors far above any prime
    rng = Random(modulus)
    signed = [(-3) ** i + i for i in range(30)]
    for values in (riordan_sequence(30), signed):
        # the last window runs through n = modulus, where n^0 = 1 and n^e = 0 after
        for offset in (1, 0, -3, modulus - 10):
            terms = TermTable(offset, values)
            for order in range(4):
                for degree in range(4):
                    for holdout in (0, 5):
                        exact = window_rows(terms, order, degree, holdout)
                        assert _residue_columns(terms, order, degree, holdout,
                                                modulus) == [
                            [x % modulus for x in col] for col in zip(*exact)]
                        size = (order + 1) * (degree + 1)
                        vec = [rng.choice((-1, 1)) * rng.getrandbits(bits)
                               for bits in rng.choices((0, 3, 40, 230), k=size)]
                        coeffs = [vec[i:i + degree + 1] for i in range(0, size, degree + 1)]
                        assert _residuals(coeffs, terms, offset + order,
                                          terms.last + 1 - holdout) == [
                            sum(map(mul, row, vec)) for row in exact]


def test_fit_near_the_prime_agrees_with_the_fraction_reference(monkeypatch, primes_used):
    # n runs through PRIME; the operators' coefficients shift by about PRIME,
    # so a reconstruction from residues can look right and still be wrong
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    cells = [(TermTable(PRIME - 10, values), order, degree)
             for values in (navarrete_recurrence(1, 40), riordan_sequence(40), fib)
             for order in range(1, 5) for degree in range(3)]
    outcomes = [fit_outcome(*cell) for cell in cells]
    assert any(len(used) > 1 for used in primes_used)
    assert ([[1], [PRIME - 10, -1], [PRIME - 9, -1]]) in outcomes  # NAV1, shifted
    reference = []
    for terms, order, degree in cells:
        rows = window_rows(terms, order, degree, 5)
        monkeypatch.setattr(recurrences, "_kernel", lambda columns, holds, rows=rows: (
            reference_kernel(rows, len(columns(PRIME)))))
        reference.append(fit_outcome(terms, order, degree))
    assert reference == outcomes


def test_fit_checks_exactly_only_for_a_nonempty_kernel(monkeypatch):
    checks = []
    kernel = recurrences._kernel
    monkeypatch.setattr(recurrences, "_kernel", lambda columns, holds: kernel(
        columns, lambda vec: checks.append(vec) or holds(vec)))
    cells = [(TermTable(1, values), order, degree)
             for _, values in GRID for order, degree in grid_cells(values)]
    checked = []
    for cell in cells:
        checks.clear()
        fit_outcome(*cell)
        checked.append(bool(checks))
    nonempty = [bool(_kernel_mod_p(_residue_columns(terms, order, degree, 5, PRIME), PRIME))
                for terms, order, degree in cells]
    assert checked == nonempty
    assert 0 < sum(checked) < len(cells)


def test_kernel_checks_every_vector_before_certifying(primes_used):
    p = PRIME
    # zero mod p, so the kernel mod p is every e_c, and only a later e_c fails over Q
    assert row_kernel([[0, p, 0]], 3) == (2, None)
    assert row_kernel([[0, 0, p], [0, 0, 0]], 3) == (2, None)
    assert [len(used) for used in primes_used] == [2, 2]
