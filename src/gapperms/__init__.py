"""Exact counting of permutations of {1..n} in which the entries r places
apart never differ by s, signed or in absolute value, through several
independent engines that cross-validate each other, plus recurrence
fitting on the resulting integer sequences.

Each public name is imported from its home module on first use (PEP 562),
so `import gapperms` loads no submodule and a process pays only for the
modules it uses."""

from importlib import import_module

_EXPORTS = {
    "closed_forms": (
        "fast_r1", "navarrete_recurrence", "navarrete_sum", "riordan_sequence", "robbins",
    ),
    "engines": ("compute",),
    "inclusion_exclusion": ("count", "sequence"),
    "matsuo": ("fast22", "rin"),
    "oracle": (
        "EnumerationCapError", "brute_count", "count_with_exceptions",
        "single_violation_at", "violation_profile",
    ),
    "recurrences": (
        "InexactStepError", "InsufficientTermsError", "RecurrenceOperator",
        "SingularLeadingTermError", "TermTable", "UnderdeterminedError", "extend", "fit",
        "format_operator", "parse_operator", "verify",
    ),
    "specs": ("ABSOLUTE", "SIGNED", "ExceptionSpec", "SequenceSpec"),
    "tilings": ("TilingPolynomial", "coefficient", "format_polynomial", "tiling_polynomial"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
