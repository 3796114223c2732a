"""The engine table: every engine against the oracle inside its scope (the
spec or its transpose), a loud refusal outside it and for n < 1, and the
"auto" choice; and the package's public export list."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapperms
from gapperms import ABSOLUTE, SIGNED, SequenceSpec, brute_count, cli, compute
from gapperms.engines import ENGINES, resolve
from gapperms.oracle import brute_sequence

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
    want = brute_sequence(spec, n)
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
