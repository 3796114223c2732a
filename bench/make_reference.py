"""Record bench/reference.json: every exact output the benchmark checks.

    PYTHONPATH=src python3 bench/make_reference.py

Each value is recorded only after it agrees with an independent source
wherever one reaches:

  * oracle.brute_count for n <= 9, on every spec;
  * the 30 published gap-4 diagonal terms (OEIS) for r = s = 4, signed;
  * for every ie batch term and the r=s=3 point query, a second tiling
    build (the direct board scan tiling_polynomial_direct) with its own
    partition sum;
  * fast22 against inclusion_exclusion.count at every fast22 n;
  * fast_r1 against navarrete_recurrence / riordan_sequence for r = 1, and
    against inclusion_exclusion for n <= IE_R1_MAX;
  * every operator fit finds must hold on all GUESS_N terms, and extend
    must reproduce them from the short run.

The r=s=4 point query at n=46 has no second source within memory and is a
regression value from the commit that recorded the file.  "checked" in the
output says which range each source covered.  Takes about a quarter of an
hour and a few hundred MB.
"""

import json
import sys
import time
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gapperms import closed_forms, inclusion_exclusion, matsuo, oracle, recurrences, tilings  # noqa: E402
from gapperms.specs import SequenceSpec  # noqa: E402

import workloads as wl  # noqa: E402

ORACLE_MAX = 9
DIRECT_MAX = 36
IE_R1_MAX = 30

PUBLISHED_A44 = [
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


def log(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def direct_count(spec, n):
    """The signed partition sum over the direct-scan tiling enumerators."""
    pr = tilings.tiling_polynomial_direct(spec.r, n).terms
    ps = tilings.tiling_polynomial_direct(spec.s, n).terms
    total = 0
    for mono, ca in pr.items():
        cb = ps.get(mono, 0)
        if not cb:
            continue
        tiles = sum(mono)
        term = ca * cb
        for a in mono:
            term *= factorial(a)
        if spec.mode == "absolute":
            term *= 2 ** (tiles - (mono[0] if mono else 0))
        total += -term if (n - tiles) % 2 else term
    return total


def agree(label, got, want):
    if got != want:
        raise SystemExit(f"reference disagreement: {label}: {got} != {want}")


def main():
    terms, checked, specs = {}, {}, {}

    def note(key, text):
        checked.setdefault(key, []).append(text)

    def record(spec, n, value):
        key = wl.spec_key(spec.r, spec.s, spec.mode)
        specs[key] = spec
        table = terms.setdefault(key, {})
        if str(n) in table:
            agree(f"{key} n={n} recorded twice", value, table[str(n)])
        table[str(n)] = value

    for r, s, mode, n_max in wl.IE_BATCHES:
        key, spec = wl.spec_key(r, s, mode), SequenceSpec(r, s, mode)
        log(f"ie batch {key} 1..{n_max}")
        values = inclusion_exclusion.sequence(spec, n_max)
        for n in range(1, min(DIRECT_MAX, n_max) + 1):
            agree(f"{key} n={n} direct scan", values[n - 1], direct_count(spec, n))
        note(key, f"n<={min(DIRECT_MAX, n_max)}: direct-scan tiling enumerators")
        if (r, s, mode) == (4, 4, "signed"):
            agree(f"{key} published", values[:30], PUBLISHED_A44)
            note(key, "n<=30: published gap-4 terms")
        for n, v in enumerate(values, start=1):
            record(spec, n, v)

    for n in wl.FAST22_NS:
        for mode in ("signed", "absolute"):
            log(f"fast22 {mode} n={n} against ie")
            spec = SequenceSpec(2, 2, mode)
            v = matsuo.fast22(n, mode)
            agree(f"fast22 {mode} n={n} ie", v, inclusion_exclusion.count(spec, n))
            record(spec, n, v)
        tilings._tiling_terms.cache_clear()
    for mode in ("signed", "absolute"):
        note(wl.spec_key(2, 2, mode), f"n in {list(wl.FAST22_NS)}: inclusion_exclusion.count")
        for n in range(1, ORACLE_MAX + 1):
            record(SequenceSpec(2, 2, mode), n, matsuo.fast22(n, mode))
    for r, s, mode, n in wl.POINT_COUNTS:
        key, spec = wl.spec_key(r, s, mode), SequenceSpec(r, s, mode)
        log(f"point count {key} n={n}")
        value = inclusion_exclusion.count(spec, n)
        if max(r, s) <= 3:  # the gap-4 direct scan at n=46 needs several GB
            agree(f"{key} n={n} direct scan", value, direct_count(spec, n))
            note(key, f"n={n}: direct-scan tiling enumerators")
        else:
            note(key, f"n={n}: regression value, no second engine within memory")
        record(spec, n, value)

    for r, s, mode in wl.GUESS_SPECS:
        key, spec = wl.spec_key(r, s, mode), SequenceSpec(r, s, mode)
        log(f"r=1 spec {key} 1..{wl.GUESS_N}")
        values = closed_forms.fast_r1(s, mode, wl.GUESS_N)
        if mode == "signed":
            agree(key, values, closed_forms.navarrete_recurrence(s, wl.GUESS_N))
            note(key, f"n<={wl.GUESS_N}: navarrete_recurrence")
        if s == 1 and mode == "absolute":
            agree(key, values, closed_forms.riordan_sequence(wl.GUESS_N))
            note(key, f"n<={wl.GUESS_N}: riordan_sequence")
        agree(f"{key} ie", values[:IE_R1_MAX], inclusion_exclusion.sequence(spec, IE_R1_MAX))
        note(key, f"n<={IE_R1_MAX}: inclusion_exclusion")
        for n, v in enumerate(values, start=1):
            record(spec, n, v)

    for key, table in sorted(terms.items()):
        spec = specs[key]
        log(f"oracle {key} n<={ORACLE_MAX}")
        for n in range(1, ORACLE_MAX + 1):
            if str(n) in table:
                agree(f"{key} n={n} oracle", table[str(n)], oracle.brute_count(spec, n))
        note(key, f"n<={ORACLE_MAX}: oracle.brute_count")

    fits = {}
    for r, s, mode in wl.GUESS_SPECS:
        key = wl.spec_key(r, s, mode)
        log(f"fit grid {key}")
        full = [terms[key][str(n)] for n in range(1, wl.GUESS_N + 1)]
        short = recurrences.TermTable(1, full[:wl.GUESS_SHORT_N])
        cells = fits[key] = {}
        for order in wl.FIT_ORDERS:
            for degree in wl.FIT_DEGREES:
                try:
                    op = recurrences.fit(short, order, degree)
                except recurrences.InsufficientTermsError:
                    outcome = "insufficient"
                except recurrences.UnderdeterminedError:
                    outcome = "underdetermined"
                else:
                    if op is None:
                        outcome = "none"
                    else:
                        agree(f"{key} op {order},{degree} on all terms",
                              recurrences.verify(op, recurrences.TermTable(1, full)), None)
                        agree(f"{key} op {order},{degree} extend",
                              recurrences.extend(op, short, wl.GUESS_N).values, full)
                        outcome = recurrences.format_operator(op, 1)
                cells[f"{order},{degree}"] = outcome
        note(key, f"fit grid at n<={wl.GUESS_SHORT_N}: found operators hold on n<={wl.GUESS_N}")

    out = {"terms": terms, "fit": fits, "checked": checked}
    with open(HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log("wrote reference.json")


if __name__ == "__main__":
    main()
