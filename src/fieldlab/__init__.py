"""fieldlab: exact number field arithmetic with constructive certificates.

Build a field E = Q[x]/(f) with make_field, then ask for automorphisms,
primitive or normal generators, norm-one elements, or Pell solutions.  All
arithmetic is exact: field elements are integer numerators over one common
denominator, and polynomials, rational matrices and the API boundary use
``fractions.Fraction``.  Every answer ships with the certificate that makes
it checkable: minimal polynomials, conjugate determinants, norm values.
"""

from .errors import (
    ConstantPolynomial,
    DegreeCapExceeded,
    DimensionMismatch,
    DivisionByZero,
    EmptyInput,
    FieldMismatch,
    FieldlabError,
    HeightCapExceeded,
    InsufficientSample,
    NoSplitPrimeFound,
    NotAField,
    NotGalois,
    NotSquarefree,
    PolySyntaxError,
    RationalRoot,
    TrivialExtension,
    ZeroDivisor,
    ZeroPolynomial,
)
from .polynomials import (
    ModPoly,
    UPoly,
    poly_eval,
    poly_gcd,
    squarefree_part,
)
from .numberfield import (
    AssumedIrreducible,
    CertifiedModP,
    CertifiedSplitPrime,
    FieldElem,
    NumberField,
    make_field,
)
from .linalg import (
    QMatrix,
    SolveResult,
    field_det,
    qmatrix_det,
    rank_and_solve,
)
from .parsing import format_elem, format_poly, parse_poly
from .representation import minpoly, norm, trace, trace_gram
from .galois import (
    Automorphism,
    GaloisGroup,
    SplitPrimeData,
    automorphisms,
    automorphisms_with_diagnostics,
    conjugate_vector,
    galois_group,
    hensel_lift,
    minpoly_from_images,
)
from .criteria import (
    SeparabilityReport,
    is_separable_ext,
    no_low_degree_relation,
    normal_det,
)
from .search import (
    PerH,
    SearchConfig,
    WitnessedElement,
    enumerate_candidates,
    norm_one_normal,
    norm_one_primitive,
    pell_solutions,
    search_normal,
    search_primitive,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FieldlabError", "ZeroPolynomial", "ConstantPolynomial", "NotSquarefree",
    "RationalRoot", "DivisionByZero", "ZeroDivisor", "FieldMismatch",
    "DimensionMismatch", "NoSplitPrimeFound", "DegreeCapExceeded", "NotGalois",
    "InsufficientSample", "HeightCapExceeded", "TrivialExtension", "NotAField",
    "PolySyntaxError", "EmptyInput",
    # polynomials
    "UPoly", "ModPoly", "poly_gcd", "poly_eval", "squarefree_part",
    # fields
    "NumberField", "FieldElem", "make_field", "CertifiedModP",
    "CertifiedSplitPrime", "AssumedIrreducible",
    # linear algebra
    "QMatrix", "SolveResult", "rank_and_solve", "qmatrix_det", "field_det",
    # parsing and formatting
    "parse_poly", "format_poly", "format_elem",
    # representation
    "trace", "norm", "minpoly", "trace_gram",
    # galois
    "SplitPrimeData", "hensel_lift", "Automorphism",
    "automorphisms", "automorphisms_with_diagnostics",
    "GaloisGroup", "galois_group", "conjugate_vector", "minpoly_from_images",
    # criteria
    "SeparabilityReport", "is_separable_ext", "normal_det", "no_low_degree_relation",
    # search
    "SearchConfig", "PerH", "WitnessedElement", "enumerate_candidates",
    "search_primitive", "search_normal", "norm_one_primitive", "norm_one_normal",
    "pell_solutions",
]
