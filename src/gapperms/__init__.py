"""Exact counting of permutations of {1..n} in which the entries r places
apart never differ by s, signed or in absolute value, through several
independent engines that cross-validate each other, plus recurrence
fitting on the resulting integer sequences."""

from .closed_forms import (
    fast_r1,
    navarrete_recurrence,
    navarrete_sum,
    riordan_sequence,
    robbins,
)
from .engines import compute
from .inclusion_exclusion import count, sequence
from .matsuo import fast22, rin
from .oracle import (
    EnumerationCapError,
    brute_count,
    count_with_exceptions,
    single_violation_at,
    violation_profile,
)
from .recurrences import (
    RecurrenceOperator,
    TermTable,
    extend,
    fit,
    format_operator,
    parse_operator,
    verify,
)
from .specs import ABSOLUTE, SIGNED, ExceptionSpec, SequenceSpec
from .tilings import (
    RunProfile,
    TilingPolynomial,
    coefficient,
    format_polynomial,
    run_profile,
    tiling_polynomial,
    tiling_polynomial_direct,
)

__all__ = [
    "ABSOLUTE",
    "SIGNED",
    "EnumerationCapError",
    "ExceptionSpec",
    "RecurrenceOperator",
    "RunProfile",
    "SequenceSpec",
    "TermTable",
    "TilingPolynomial",
    "brute_count",
    "coefficient",
    "compute",
    "count",
    "count_with_exceptions",
    "extend",
    "fast22",
    "fast_r1",
    "fit",
    "format_operator",
    "format_polynomial",
    "navarrete_recurrence",
    "navarrete_sum",
    "parse_operator",
    "rin",
    "riordan_sequence",
    "robbins",
    "run_profile",
    "sequence",
    "single_violation_at",
    "tiling_polynomial",
    "tiling_polynomial_direct",
    "verify",
    "violation_profile",
]

__version__ = "0.1.0"
