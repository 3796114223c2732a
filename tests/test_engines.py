"""The engine table: every engine against the oracle inside its scope (the
spec or its transpose), a loud refusal outside it and for n < 1, and the
"auto" choice; runners that import their engine module on first use; and the
package's public export list."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapperms
from gapperms import ABSOLUTE, SIGNED, SequenceSpec, brute_count, cli, compute
from gapperms.engines import ENGINES, resolve

from test_package import fresh

SPECS = [SequenceSpec(r, s, mode) for r in (1, 2, 3) for s in (1, 2, 3)
         for mode in (SIGNED, ABSOLUTE)]


def serves(applies, spec):
    """count(r, s) = count(s, r): inverting a permutation swaps the gaps."""
    return applies(spec) or applies(SequenceSpec(spec.s, spec.r, spec.mode))


def expected_auto(spec):
    if 1 in (spec.r, spec.s) and spec.mode == SIGNED:
        return "navarrete"
    if spec.r == 1 and spec.s == 1:
        return "riordan"
    if 1 in (spec.r, spec.s):
        return "r1fast"
    if spec.r == 2 and spec.s == 2:
        return "matsuo"
    return "ie"


@pytest.mark.parametrize("spec", SPECS, ids=lambda sp: f"r{sp.r}s{sp.s}{sp.mode[:3]}")
def test_every_engine_in_scope_matches_oracle_and_refuses_outside(spec, capsys):
    want = [brute_count(spec, n) for n in range(1, 9)]
    mode = "abs" if spec.mode == ABSOLUTE else "signed"
    for engine, (applies, requirement, _) in ENGINES.items():
        if serves(applies, spec):
            assert compute(spec, 8, engine) == want, engine
            for n in (0, -3):
                with pytest.raises(ValueError, match="n_max must be >= 1"):
                    compute(spec, n, engine)
                rc = cli.main(["compute", "--r", str(spec.r), "--s", str(spec.s),
                               "--mode", mode, "--n", str(n), "--engine", engine])
                captured = capsys.readouterr()
                assert rc == 2 and captured.out == "", (engine, n)
                assert "n_max must be >= 1" in captured.err
            continue
        with pytest.raises(ValueError, match=requirement):
            compute(spec, 8, engine)
        rc = cli.main(["compute", "--r", str(spec.r), "--s", str(spec.s), "--mode", mode,
                       "--n", "8", "--engine", engine])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"{engine} requires {requirement}" in captured.err
    assert resolve(spec, "auto", 8) == expected_auto(spec)
    assert compute(spec, 8) == want


@settings(max_examples=200, deadline=None)
@given(r=st.integers(1, 5), s=st.integers(1, 5),
       mode=st.sampled_from([SIGNED, ABSOLUTE]), n=st.integers(1, 8))
def test_engines_in_scope_agree_with_oracle_on_random_specs(r, s, mode, n):
    spec = SequenceSpec(r, s, mode)
    want = [brute_count(spec, k) for k in range(1, n + 1)]
    for engine, (applies, _, _) in ENGINES.items():
        if serves(applies, spec):
            assert compute(spec, n, engine) == want, engine


@pytest.mark.parametrize("r", range(1, 9))
def test_auto_serves_s_equal_one_through_the_transpose(r):
    assert resolve(SequenceSpec(r, 1, SIGNED), "auto", 8) == "navarrete"
    assert resolve(SequenceSpec(r, 1, ABSOLUTE), "auto", 8) == ("riordan" if r == 1 else "r1fast")


def test_unknown_engine_is_refused():
    with pytest.raises(ValueError, match="unknown engine 'nope'"):
        compute(SequenceSpec(1, 1, SIGNED), 3, "nope")


def test_public_export_list_is_exact():
    namespace = {}
    exec("from gapperms import *", namespace)  # AttributeError if a name does not resolve
    assert set(namespace) - {"__builtins__"} == set(gapperms.__all__)
    assert not hasattr(gapperms, "matsuo_map") and not hasattr(gapperms, "MatsuoMap")


@pytest.mark.parametrize("spec, engine, module, attr", [
    (SequenceSpec(1, 2, ABSOLUTE), "r1fast", "closed_forms", "fast_r1"),
    (SequenceSpec(2, 2, SIGNED), "matsuo", "matsuo", "fast22"),
    (SequenceSpec(2, 3, ABSOLUTE), "ie", "inclusion_exclusion", "sequence"),
    (SequenceSpec(2, 3, SIGNED), "oracle", "oracle", "brute_count"),
])
def test_runners_look_their_function_up_on_the_module_at_call_time(
        monkeypatch, spec, engine, module, attr):
    home = importlib.import_module(f"gapperms.{module}")
    original, calls = getattr(home, attr), []

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(home, attr, spy)
    assert compute(spec, 7, engine) == [brute_count(spec, n) for n in range(1, 8)]
    assert calls, engine


def test_oracle_cap_is_checked_before_the_oracle_module_loads():
    code = (
        "import sys\n"
        "from gapperms import SequenceSpec, compute\n"
        "from gapperms.engines import resolve\n"
        "print('gapperms.oracle' in sys.modules)\n"
        "for call in (lambda: resolve(SequenceSpec(2, 3, 'signed'), 'oracle', 12),\n"
        "             lambda: compute(SequenceSpec(2, 3, 'signed'), 12, 'oracle')):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(type(exc) is sys.modules['gapperms.oracle'].EnumerationCapError)\n"
    )
    assert fresh(code).split() == ["False", "True", "True"]  # 12! would not finish in 60 s
