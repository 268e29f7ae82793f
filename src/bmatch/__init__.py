"""Exact B-matching solver for degree sets without long gaps.

The package root re-exports the names of the README's Python API section;
everything else is imported from its module (`bmatch.core`,
`bmatch.neighbourhood`, ...).
"""

from bmatch.neighbourhood import find_feasible, improvement_step, solve
from bmatch.structure import (
    classify,
    decompose_symmetric_difference,
    extract_canonical_sequence,
    make_basic,
)
from bmatch.oracle import oracle_optimum, run_verification_suite
from bmatch.gen import random_instance

__version__ = "0.1.0"

__all__ = [
    "classify",
    "decompose_symmetric_difference",
    "extract_canonical_sequence",
    "find_feasible",
    "improvement_step",
    "make_basic",
    "oracle_optimum",
    "random_instance",
    "run_verification_suite",
    "solve",
]
