"""The JSON instance format: parsing, validation errors, round-trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import (
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    Rational,
    UniPoly,
    instance_doc,
    load_instance,
    parse_instance,
    serialize_instance,
)
from hypercircles.errors import InstanceError

from conftest import CIRCLE_DOC


def test_quartic_doc_parses(quartic):
    field, psi = quartic
    assert field.degree == 4
    assert field.name == "a"
    assert len(psi) == 2
    assert psi.degree == 3


def test_circle_doc_parses(circle):
    field, psi = circle
    assert field.degree == 2
    assert psi.degree == 2


def test_round_trip_is_identity(quartic):
    field, psi = quartic
    text = serialize_instance(field, psi)
    field2, psi2 = parse_instance(text)
    assert field2.minpoly == field.minpoly
    assert field2.name == field.name
    assert psi2 == psi
    # serializing again gives the identical document
    assert instance_doc(field2, psi2) == instance_doc(field, psi)


small_rats = st.builds(
    Rational,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=7),
)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_round_trip_random_instances(data):
    mp = data.draw(
        st.sampled_from(
            [
                [-2, 0, 1],
                [1, 0, 1],
                [-2, 0, 0, 0, 1],
                [1, 1, 1],
            ]
        )
    )
    field = NumberField(QQ, UniPoly(QQ, mp), "a")
    n = field.degree

    def elem():
        return field.element(
            [data.draw(small_rats) for _ in range(n)]
        )

    comps = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        num = UniPoly(field, [elem() for _ in range(data.draw(st.integers(1, 4)))])
        den = UniPoly(field, [elem() for _ in range(data.draw(st.integers(1, 3)))])
        if den.is_zero:
            den = UniPoly(field, [field.one])
        comps.append(RatFunc(num, den))
    psi = Parametrization(comps)
    field2, psi2 = parse_instance(serialize_instance(field, psi))
    assert psi2 == psi and field2.minpoly == field.minpoly


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance(str(tmp_path / "nope.json"))


def test_load_instance_file_round_trip(tmp_path, quartic):
    field, psi = quartic
    p = tmp_path / "inst.json"
    p.write_text(serialize_instance(field, psi), encoding="utf-8")
    field2, psi2 = load_instance(str(p))
    assert psi2 == psi


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("field"), "missing key"),
        (lambda d: d.pop("parametrization"), "missing key"),
        (lambda d: d["field"].pop("minpoly"), "'generator' and 'minpoly'"),
        (lambda d: d["field"].update(generator="not an ident!"), "identifier"),
        (lambda d: d["field"].update(generator="t"), "'t' clashes with the parameter t"),
        (lambda d: d["field"].update(generator="x"), "'x' clashes with the indeterminate x"),
        (lambda d: d["field"].update(minpoly=["1"]), "degree >= 1"),
        (lambda d: d["field"].update(minpoly=["-1", "0", "1"]), "reducible"),
        (lambda d: d["field"].update(minpoly=["-2", "0", "0"]), "zero leading"),
        (lambda d: d.update(parametrization=[]), "non-empty"),
        (lambda d: d["parametrization"][0].pop("den"), "'num' and 'den'"),
        (
            lambda d: d["parametrization"][0].update(den=[["0", "0"]]),
            "zero denominator",
        ),
        (
            lambda d: d["parametrization"][0].update(num=[["1", "2", "3"]]),
            "length 2",
        ),
        (
            lambda d: d["parametrization"][0]["num"].__setitem__(0, ["1.5", "0"]),
            None,
        ),
        (
            lambda d: d["parametrization"][0]["num"].__setitem__(0, ["1/0", "0"]),
            None,
        ),
    ],
)
def test_malformed_documents_are_rejected(mutate, message):
    doc = json.loads(json.dumps(CIRCLE_DOC))  # deep copy
    mutate(doc)
    with pytest.raises(InstanceError, match=message):
        parse_instance(json.dumps(doc))


def test_invalid_json_is_reported_with_position():
    with pytest.raises(InstanceError, match="invalid JSON at line 1, column 2"):
        parse_instance("{not json")
    with pytest.raises(InstanceError, match="JSON object"):
        parse_instance("[1, 2]")


def test_rationals_must_be_strings():
    doc = json.loads(json.dumps(CIRCLE_DOC))
    doc["parametrization"][0]["num"][0] = [1, 0]
    with pytest.raises(InstanceError, match="string"):
        parse_instance(json.dumps(doc))
