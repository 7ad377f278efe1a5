"""Exact computation in the first Grigorchuk group and its finitely
presented approximants: word problem, orders, torsion certificates,
weighted-metric arithmetic, coset enumeration, and growth statistics.
"""

from .cubic import (
    CubicNumber,
    LAMBDA,
    LAMBDA_INV,
    WEIGHT,
    lambda_length,
    log_lambda_enclosure,
    radius_index,
)
from .errors import CapExceeded, GrigError, PreconditionError, WordParseError
from .words import (
    format_word,
    invert,
    min_conjugate,
    multiply,
    parse_word,
    reduce_word,
)
from .wreath import (
    TorsionCertificate,
    certify_torsion,
    is_trivial,
    order,
    split,
    verify_nball_proposition,
)
from .presentations import Presentation, gamma_presentation, sigma
from .cosets import abelian_invariants, reidemeister_schreier, todd_coxeter
from .growth import ball_grigorchuk, growth_table_free
from .reports import CheckReport, check_all

__all__ = [
    "CapExceeded",
    "CheckReport",
    "CubicNumber",
    "GrigError",
    "LAMBDA",
    "LAMBDA_INV",
    "Presentation",
    "PreconditionError",
    "TorsionCertificate",
    "WEIGHT",
    "WordParseError",
    "abelian_invariants",
    "ball_grigorchuk",
    "certify_torsion",
    "check_all",
    "format_word",
    "gamma_presentation",
    "growth_table_free",
    "invert",
    "is_trivial",
    "lambda_length",
    "log_lambda_enclosure",
    "min_conjugate",
    "multiply",
    "order",
    "parse_word",
    "radius_index",
    "reduce_word",
    "reidemeister_schreier",
    "sigma",
    "split",
    "todd_coxeter",
    "verify_nball_proposition",
]
