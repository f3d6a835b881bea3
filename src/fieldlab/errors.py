"""Exception types shared across the fieldlab modules.

Every failure mode carries its witness (a factor, a root, a count, partial
results) so callers can report or act on it without re-deriving anything.
Every class below FieldlabError is raised somewhere in fieldlab; an error
that nothing raises is deleted rather than kept for callers that catch it.
"""

from __future__ import annotations


class FieldlabError(Exception):
    """Base class for all fieldlab errors."""


# --- polynomial layer ---------------------------------------------------


class ZeroPolynomial(FieldlabError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


# --- number field construction and arithmetic ---------------------------


class ConstantPolynomial(FieldlabError):
    """make_field needs a non-constant polynomial."""


class NotSquarefree(FieldlabError):
    """Defining polynomial shares a factor with its derivative."""

    def __init__(self, witness):
        super().__init__(f"not squarefree, gcd(f, f') = {witness}")
        self.witness = witness


class RationalRoot(FieldlabError):
    """Defining polynomial of degree >= 2 has a rational root."""

    def __init__(self, witness):
        super().__init__(f"rational root {witness}")
        self.witness = witness


class DivisionByZero(FieldlabError, ZeroDivisionError):
    """Inversion of the zero element."""


class ZeroDivisor(FieldlabError):
    """The defining polynomial is reducible and ``factor`` is a proper monic
    factor: found by root recombination at a split prime when the field is
    built, or by a gcd when a nonzero element is not invertible."""

    def __init__(self, factor):
        super().__init__(f"zero divisor; defining polynomial has factor {factor}")
        self.factor = factor


class FieldMismatch(FieldlabError):
    """Operands belong to different number fields."""


# --- linear algebra ------------------------------------------------------


class DimensionMismatch(FieldlabError):
    """Matrix shapes are inconsistent for the requested operation."""


# --- automorphism computation --------------------------------------------


class NoSplitPrimeFound(FieldlabError):
    def __init__(self, bound):
        super().__init__(f"no fully split prime <= {bound}; raise the bound")
        self.bound = bound


class DegreeCapExceeded(FieldlabError):
    def __init__(self, degree, cap):
        super().__init__(f"degree {degree} exceeds automorphism degree cap {cap}")
        self.degree = degree
        self.cap = cap


class NotGalois(FieldlabError):
    """The field has fewer automorphisms than its degree."""

    def __init__(self, count):
        super().__init__(f"not Galois: {count} automorphism(s)")
        self.count = count


# --- density probe --------------------------------------------------------


class InsufficientSample(FieldlabError):
    def __init__(self, needed, got):
        super().__init__(f"need at least {needed} sample points, got {got}")
        self.needed = needed
        self.got = got


# --- search ----------------------------------------------------------------


class HeightCapExceeded(FieldlabError):
    """Candidate enumeration ran past max_height.  ``partial`` holds whatever
    results were found before the budget ran out."""

    def __init__(self, max_height, partial=()):
        super().__init__(
            f"height cap {max_height} exhausted with {len(partial)} result(s)"
        )
        self.max_height = max_height
        self.partial = list(partial)


class TrivialExtension(FieldlabError):
    """Degree-1 field where a non-trivial extension is required."""


class NotAField(FieldlabError):
    """x^2 + b*x + c is reducible: b^2 - 4c is a rational square."""

    def __init__(self, witness):
        super().__init__(f"discriminant is a square; sqrt = {witness}")
        self.witness = witness


# --- parsing ----------------------------------------------------------------


class PolySyntaxError(FieldlabError):
    def __init__(self, position, expected):
        super().__init__(f"syntax error at offset {position}: expected {expected}")
        self.position = position
        self.expected = expected


class EmptyInput(FieldlabError):
    """Empty polynomial expression."""
