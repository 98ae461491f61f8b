"""Instance files: the JSON exchange format for fields and parametrizations.

An instance document looks like

    {
      "field": {"generator": "a", "minpoly": ["-2", "0", "0", "0", "1"]},
      "parametrization": [
        {"num": [["0","0","0","0"], ["1","0","0","0"]],
         "den": [["1","0","0","0"]]}
      ]
    }

`minpoly` is the ascending coefficient list of the defining polynomial over
Q; each numerator/denominator is an ascending list of coefficient vectors of
length n over the power basis 1, alpha, ..., alpha^(n-1). All rationals are
strings ("p/q", or "p" for integers) so that no precision is lost in
transit. Parsing validates the shape, checks the minimal polynomial is
irreducible, and rejects zero denominators and a generator named `t` or
`x`, the names the outputs give to the parameter and the indeterminate;
serializing a parsed instance and parsing it again is the identity.
"""

import json

from .errors import InstanceError
from .factoring import is_irreducible_rational
from .numberfield import NumberField
from .polynomials import UniPoly
from .rationals import QQ
from .ratfunc import Parametrization, RatFunc


def _rat_from_str(s, where):
    if not isinstance(s, str):
        raise InstanceError(f"{where}: expected a rational string, got {s!r}")
    try:
        return QQ.from_str(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"{where}: {exc}") from None


def _vector(entry, n, where):
    if not isinstance(entry, list) or len(entry) != n:
        raise InstanceError(
            f"{where}: expected a coefficient vector of length {n}, got {entry!r}"
        )
    return [_rat_from_str(s, f"{where}[{k}]") for k, s in enumerate(entry)]


def _poly_over_field(entries, field, where):
    if not isinstance(entries, list):
        raise InstanceError(f"{where}: expected a list of coefficient vectors")
    n = field.degree
    coeffs = [
        field.element(_vector(entry, n, f"{where}[{k}]"))
        for k, entry in enumerate(entries)
    ]
    return UniPoly(field, coeffs)


def parse_instance(text):
    """Parse an instance document into (NumberField, Parametrization)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise InstanceError("instance must be a JSON object")
    for key in ("field", "parametrization"):
        if key not in doc:
            raise InstanceError(f"missing key {key!r}")
    fdoc = doc["field"]
    if not isinstance(fdoc, dict) or "generator" not in fdoc or "minpoly" not in fdoc:
        raise InstanceError("field must be an object with 'generator' and 'minpoly'")
    name = fdoc["generator"]
    if not isinstance(name, str) or not name.isidentifier():
        raise InstanceError(f"field.generator must be an identifier, got {name!r}")
    if name in ("t", "x"):  # the outputs' names of u's parameter and M_L's indeterminate
        what = "the parameter t" if name == "t" else "the indeterminate x"
        raise InstanceError(f"field.generator {name!r} clashes with {what} of the printed output")
    mp = fdoc["minpoly"]
    if not isinstance(mp, list) or len(mp) < 2:
        raise InstanceError("field.minpoly must be a coefficient list of degree >= 1")
    coeffs = [_rat_from_str(s, f"field.minpoly[{k}]") for k, s in enumerate(mp)]
    if not coeffs[-1]:
        raise InstanceError("field.minpoly has a zero leading coefficient")
    minpoly = UniPoly(QQ, coeffs).monic()
    if minpoly.degree > 1 and not is_irreducible_rational(minpoly):
        raise InstanceError("reducible minimal polynomial")
    field = NumberField(QQ, minpoly, name)
    n = field.degree

    pdoc = doc["parametrization"]
    if not isinstance(pdoc, list) or not pdoc:
        raise InstanceError("parametrization must be a non-empty list of components")
    components = []
    for i, comp in enumerate(pdoc):
        where = f"parametrization[{i}]"
        if not isinstance(comp, dict) or "num" not in comp or "den" not in comp:
            raise InstanceError(f"{where}: expected an object with 'num' and 'den'")
        num = _poly_over_field(comp["num"], field, f"{where}.num")
        den = _poly_over_field(comp["den"], field, f"{where}.den")
        if den.is_zero:
            raise InstanceError(f"{where}: zero denominator polynomial")
        components.append(RatFunc(num, den))
    return field, Parametrization(components)


def _poly_doc(poly, n):
    if poly.is_zero:
        return [["0"] * n]
    return [[str(x) for x in c.coords] for c in poly.coeffs]


def instance_doc(field, psi):
    """The instance document (a plain dict) for a field and parametrization."""
    n = field.degree
    return {
        "field": {
            "generator": field.name,
            "minpoly": [str(c) for c in field.minpoly.coeffs],
        },
        "parametrization": [
            {"num": _poly_doc(comp.num, n), "den": _poly_doc(comp.den, n)}
            for comp in psi
        ],
    }


def serialize_instance(field, psi):
    return json.dumps(instance_doc(field, psi), indent=2) + "\n"


def read_text(path):
    """The text of a UTF-8 file; a file that cannot be opened, read or decoded
    is an InstanceError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from None


def load_instance(path):
    return parse_instance(read_text(path))
