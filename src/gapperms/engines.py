"""The engine table: which engine serves which spec, and how to run it.

Each engine name maps to (scope predicate, requirement text, runner).  A
runner takes (spec, n_max) and returns the terms for n = 1..n_max.  Runners
import their engine module on first use and look their functions up on it at
call time, so a wrapper set on a module attribute applies here too.

Inverting a permutation swaps the gaps (pi[i+r] - pi[i] = s exactly when
pi^-1[v+s] - pi^-1[v] = r, v = pi[i]), so count(r, s) = count(s, r) in both
modes: an engine serves a spec when its scope admits it or its transpose.
"""

from importlib import import_module

from .specs import ABSOLUTE, SIGNED, SequenceSpec


def _mod(name: str):
    """The engine module gapperms.<name>, imported on first use."""
    return import_module(f"{__package__}.{name}")


def _classic(spec):
    return spec.r == 1 and spec.s == 1 and spec.mode == ABSOLUTE


ENGINES = {
    "oracle": (lambda spec: True, None,
               lambda spec, n: [_mod("oracle").brute_count(spec, k) for k in range(1, n + 1)]),
    "ie": (lambda spec: True, None,
           lambda spec, n: _mod("inclusion_exclusion").sequence(spec, n)),
    "navarrete": (lambda spec: spec.r == 1 and spec.mode == SIGNED,
                  "r=1 or s=1, and signed mode",
                  lambda spec, n: _mod("closed_forms").navarrete_recurrence(spec.s, n)),
    "riordan": (_classic, "r=1, s=1 and absolute mode",
                lambda spec, n: _mod("closed_forms").riordan_sequence(n)),
    "robbins": (_classic, "r=1, s=1 and absolute mode",
                lambda spec, n: [_mod("closed_forms").robbins(k) for k in range(1, n + 1)]),
    "r1fast": (lambda spec: spec.r == 1, "r=1 or s=1",
               lambda spec, n: _mod("closed_forms").fast_r1(spec.s, spec.mode, n)),
    "matsuo": (lambda spec: spec.r == 2 and spec.s == 2, "r=2 and s=2",
               lambda spec, n: [_mod("matsuo").fast22(k, spec.mode) for k in range(1, n + 1)]),
}

# "auto" takes the first of these that serves the spec, else "ie".
AUTO_ORDER = ("navarrete", "riordan", "r1fast", "matsuo")


def _oriented(spec: SequenceSpec, engine: str):
    """spec, else its transpose, if the scope of engine admits it; else None."""
    transpose = SequenceSpec(spec.s, spec.r, spec.mode)
    return next((sp for sp in (spec, transpose) if ENGINES[engine][0](sp)), None)


def resolve(spec: SequenceSpec, engine: str, n_max: int) -> str:
    """The concrete engine that serves spec for n = 1..n_max under the name
    `engine`.  Raises ValueError, before any engine runs, for an unknown name,
    an engine that serves neither spec nor its transpose, n_max < 1, or an
    oracle range past its cap (EnumerationCapError)."""
    if engine == "auto":
        engine = next((e for e in AUTO_ORDER if _oriented(spec, e)), "ie")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if _oriented(spec, engine) is None:
        requirement = ENGINES[engine][1]
        raise ValueError(f"engine {engine!r} not applicable: {engine} requires {requirement}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if engine == "oracle":
        _mod("oracle")._check_cap(n_max)
    return engine


def compute(spec: SequenceSpec, n_max: int, engine: str = "auto") -> list:
    """Terms for n = 1..n_max from the named engine ("auto" picks one)."""
    engine = resolve(spec, engine, n_max)
    return ENGINES[engine][2](_oriented(spec, engine), n_max)
