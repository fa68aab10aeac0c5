"""Exact line-bundle cohomology and positivity cones on Hirzebruch surfaces.

Submodules
----------
hirzebruch
    Picard lattice of F_e: divisor classes, intersection form, cones.
p1
    Splitting-type calculus on P^1 and affine degree forms.
cohomology
    h^0/h^1/h^2, Euler characteristic, and the lattice-point oracle.
verifier
    Certificates and the full replay of the almost-nef-not-psef extension.
primes
    The exact primality test behind ``--char``.
cli
    The ``hirzcoh`` command; only ``verify`` imports the verifier.
kernels
    The lattice-enumeration kernel behind the oracle.
"""

from .hirzebruch import (
    C,
    F,
    ZERO,
    ClassParseError,
    DivisorClass,
    SurfaceContext,
    format_class,
    parse_class,
)
from .p1 import (
    AmbiguousExtensionError,
    DegreeForm,
    SplittingParseError,
    SplittingType,
    classify_extension,
    format_splitting,
    parse_splitting,
)

__version__ = "0.1.0"

__all__ = [
    "C",
    "F",
    "ZERO",
    "ClassParseError",
    "DivisorClass",
    "SurfaceContext",
    "format_class",
    "parse_class",
    "AmbiguousExtensionError",
    "DegreeForm",
    "SplittingParseError",
    "SplittingType",
    "classify_extension",
    "format_splitting",
    "parse_splitting",
    "__version__",
]
