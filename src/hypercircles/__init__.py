"""Exact hypercircle computation.

Given a proper rational-curve parametrization with coefficients in a number
field K(alpha), decide whether the curve is definable over K, compute the
standard parametrization of the associated hypercircle when it is, and the
minimum field of definition when it is not.  All arithmetic is exact.
"""

from .errors import (
    HypercirclesError,
    InstanceError,
    InternalInvariantError,
    NonProperParametrization,
)
from .factoring import factor_squarefree, is_irreducible_rational
from .generators import (
    adversarial_relations,
    canonical_minpoly,
    cyclotomic_minpoly,
    gen_instance,
    normal_minpoly,
)
from .hypercircle import (
    HypercircleResult,
    check_certificate,
    classify_parameter,
    compute_u_for_class,
    conjugacy_classes,
    parameter_budget,
    standard_parametrization,
    verify_identity,
)
from .instances import (
    instance_doc,
    load_instance,
    parse_instance,
    serialize_instance,
)
from .minfield import FixedField, minimum_field
from .modp import poly_gcd
from .numberfield import ConjugacyClass, NFElement, NumberField
from .polynomials import UniPoly
from .ratfunc import (
    MoebiusTransform,
    Parametrization,
    RatFunc,
    moebius_from_three_points,
)
from .rationals import QQ, Rational, RationalField

__version__ = "0.1.0"

__all__ = [
    "HypercirclesError",
    "InstanceError",
    "InternalInvariantError",
    "NonProperParametrization",
    "factor_squarefree",
    "is_irreducible_rational",
    "adversarial_relations",
    "canonical_minpoly",
    "cyclotomic_minpoly",
    "gen_instance",
    "normal_minpoly",
    "HypercircleResult",
    "check_certificate",
    "classify_parameter",
    "compute_u_for_class",
    "conjugacy_classes",
    "parameter_budget",
    "standard_parametrization",
    "verify_identity",
    "instance_doc",
    "load_instance",
    "parse_instance",
    "serialize_instance",
    "FixedField",
    "minimum_field",
    "ConjugacyClass",
    "NFElement",
    "NumberField",
    "UniPoly",
    "poly_gcd",
    "MoebiusTransform",
    "Parametrization",
    "RatFunc",
    "moebius_from_three_points",
    "QQ",
    "Rational",
    "RationalField",
    "__version__",
]
