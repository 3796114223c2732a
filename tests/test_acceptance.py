"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact integer comparison; the only tolerances are the
two wall-clock bounds, which are deliberately loose.
"""

import time
from contextlib import contextmanager

import pytest

from gapperms import (
    ABSOLUTE,
    SIGNED,
    ExceptionSpec,
    RecurrenceOperator,
    SequenceSpec,
    TermTable,
    brute_count,
    count,
    count_with_exceptions,
    fast22,
    fast_r1,
    fit,
    navarrete_recurrence,
    navarrete_sum,
    rin,
    riordan_sequence,
    robbins,
    sequence,
    single_violation_at,
    tiling_polynomial,
    verify,
    violation_profile,
)
from gapperms.recurrences import InsufficientTermsError
from gapperms import tilings as tilings_mod

A44_TERMS = [
    1, 2, 6, 24, 114, 628, 4062, 30360, 255186, 2414292,
    25350954, 292378968, 3673917102, 49928069188,
    729534877758, 11403682481112, 189862332575658, 3354017704180052,
    62654508729565554, 1233924707891272728,
    25550498290562247438, 554913370184289495780,
    12612648556263898345758, 299411750583810718488216,
    7409924986737790240296258, 190856850583975937020030228,
    5108283222440036893650974970,
    141870112250977140975169694808,
    4082973503947066134710463043374,
    121616802487841972048586204012740,
]

RIORDAN = RecurrenceOperator([[1], [-1, -1], [-2, 1], [-5, 1], [3, -1]])
NAV1 = RecurrenceOperator([[1], [1, -1], [2, -1]])


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def _clear_tiling_caches():
    tilings_mod._tiling_terms.cache_clear()


def test_criterion_1_a44_fixture(capsys):
    with criterion(1, "ie reproduces the 30 published gap-4 diagonal terms"):
        from gapperms import cli

        start = time.perf_counter()
        rc = cli.main(["compute", "--r", "4", "--s", "4", "--mode", "signed",
                       "--n", "30", "--engine", "ie"])
        elapsed = time.perf_counter() - start
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [int(line.split()[1]) for line in lines] == A44_TERMS
        assert [int(line.split()[0]) for line in lines] == list(range(1, 31))
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        assert sequence(SequenceSpec(4, 4, SIGNED), 30) == A44_TERMS


def test_criterion_2_tiling_fixtures():
    with criterion(2, "tiling enumerators match the printed gap-3 polynomials"):
        assert tiling_polynomial(3, 5).terms == {(5,): 1, (3, 1): 2, (1, 2): 1}
        assert tiling_polynomial(3, 7).terms == {
            (7,): 1, (5, 1): 4, (4, 0, 1): 1, (3, 2): 5,
            (2, 1, 1): 2, (1, 3): 2, (0, 2, 1): 1,
        }


def test_criterion_3_oracle_equivalence():
    with criterion(3, "partition engine equals brute force on the full small grid"):
        for r in (1, 2, 3):
            for s in (1, 2, 3):
                for mode in (SIGNED, ABSOLUTE):
                    spec = SequenceSpec(r, s, mode)
                    for n in range(0, 9):
                        assert count(spec, n) == brute_count(spec, n), (r, s, mode, n)


def test_criterion_4_closed_form_cross_agreement():
    with criterion(4, "closed forms agree pairwise through n = 40"):
        for s in (1, 2, 3, 4):
            rec = navarrete_recurrence(s, 40)
            fast = fast_r1(s, SIGNED, 40)
            for n in range(1, 41):
                assert rec[n - 1] == navarrete_sum(s, n) == fast[n - 1], (s, n)
        riordan = riordan_sequence(40)
        robb = [robbins(n) for n in range(1, 41)]
        fast = fast_r1(1, ABSOLUTE, 40)
        engine = sequence(SequenceSpec(1, 1, ABSOLUTE), 40)
        assert riordan == robb == fast == engine


def test_criterion_5_matsuo_path():
    with criterion(5, "rin equals the oracle, fast22 equals ie, and scales"):
        for n in range(2, 8):
            for mode in (SIGNED, ABSOLUTE):
                for a in range(1, n):
                    for b in range(1, n + 1):
                        want = count_with_exceptions(ExceptionSpec(n, {a}, {b}, mode))
                        assert rin(n, a, b, mode) == want, (n, a, b, mode)
        for mode in (SIGNED, ABSOLUTE):
            spec = SequenceSpec(2, 2, mode)
            engine = sequence(spec, 20)
            for n in range(1, 21):
                assert fast22(n, mode) == engine[n - 1], (n, mode)

        # 100 signed terms, then the matched-n wall-clock ratio must drop
        hundred = [fast22(n, SIGNED) for n in range(1, 101)]
        assert len(hundred) == 100 and hundred[3] == 18

        def time_of(fn):
            start = time.perf_counter()
            value = fn()
            return value, time.perf_counter() - start

        ratios = []
        for n in (32, 48):
            fast, t_fast = time_of(lambda: fast22(n, SIGNED))
            _clear_tiling_caches()
            ie, t_ie = time_of(lambda: count(SequenceSpec(2, 2, SIGNED), n))
            assert fast == ie, n
            ratios.append(t_fast / t_ie)
        assert ratios[1] < ratios[0], f"ratio did not drop: {ratios}"


def test_criterion_6_recurrence_recovery():
    with criterion(6, "fit recovers the known second- and fourth-order operators"):
        a11 = TermTable(1, [navarrete_sum(1, n) for n in range(1, 21)])
        op = fit(a11, order=2, degree=1)
        assert op is not None and op.coeffs == NAV1.coeffs
        b11 = TermTable(1, fast_r1(1, ABSOLUTE, 40))
        op = fit(b11, order=4, degree=1)
        assert op is not None and op.coeffs == RIORDAN.coeffs
        assert verify(RIORDAN, TermTable(1, fast_r1(1, ABSOLUTE, 60))) is None


def test_criterion_7_data_bound_enforcement():
    with criterion(7, "fit refuses one term short of the data bound, naming it"):
        # (2+1)(1+1) + 2 + 1 = 9 plus holdout 5 = 14; hand it 13
        terms = TermTable(1, [navarrete_sum(1, n) for n in range(1, 14)])
        with pytest.raises(InsufficientTermsError) as exc:
            fit(terms, order=2, degree=1, holdout=5)
        message = str(exc.value)
        assert "9" in message and "14" in message and "13" in message


def test_criterion_8_scale_demonstration():
    with criterion(8, "partition engine reaches n = 40 on the gap-2 diagonal"):
        for mode in (SIGNED, ABSOLUTE):
            spec = SequenceSpec(2, 2, mode)
            terms = sequence(spec, 40)
            assert len(terms) == 40
            for n in range(0, 9):
                assert count(spec, n) == brute_count(spec, n)
            assert all(t > 0 for t in terms[3:])


def test_criterion_9_lemma_identities():
    with criterion(9, "one-violation counting identities hold through n = 8"):
        signed = SequenceSpec(1, 1, SIGNED)
        for n in range(2, 9):
            b_n = violation_profile(signed, n)[1]
            assert b_n == (n - 1) * brute_count(signed, n - 1)
        absolute = SequenceSpec(1, 1, ABSOLUTE)
        a = {n: brute_count(absolute, n) for n in range(0, 9)}
        b = {n: violation_profile(absolute, n)[1] for n in range(2, 9)}
        c = {n: single_violation_at(absolute, n, n - 1) for n in range(2, 9)}
        for n in range(4, 9):
            assert b[n] == 2 * (n - 1) * a[n - 1] + 2 * b[n - 1] + b[n - 2]
        for n in range(3, 9):
            assert c[n] == 2 * a[n - 1] + c[n - 1]
