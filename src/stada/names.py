"""The names the command line offers before it loads the engine: the
equation forms, the reduction idempotents and the verification suites.

This module imports nothing heavier than `errors`, so building the parser
loads neither numpy nor the modules that compute.  `equations` re-exports
`EquationForm` and `suites` re-exports `SUITE_NAMES` as these same objects;
`REDUCTION_KINDS` are the keys of the reduction table of `equations`.
"""

from __future__ import annotations

from enum import Enum

from .errors import DomainError


class EquationForm(Enum):
    DIRAC_MATRIX = "dirac"
    IDEAL = "ideal"
    HESTENES = "hde"
    TENSOR = "tde"
    ILK = "ilk"
    ILK_EVEN = "ilk-even"
    ILK_E5 = "ilk-e5"

    @classmethod
    def from_name(cls, name: str) -> "EquationForm":
        for member in cls:
            if member.value == name:
                return member
        raise DomainError(f"unknown equation form {name!r}")


# the right idempotents of `equations` that cut the general form down
REDUCTION_KINDS = ("t-HI", "t-H", "t-e5")

# the batteries of `suites`, in the order "all" runs them
SUITE_NAMES = ("algebra", "hodge", "spin", "representation", "fields", "equations", "all")
