from __future__ import annotations

from fractions import Fraction

import pytest

from knotcert.certify import Certificate, certify
from knotcert.corpus import CorpusEntry, CorpusError
from knotcert.errors import NonSymplecticError, NotReciprocalError
from knotcert.fixtures import FIGURE_EIGHT, TREFOIL
from knotcert.inertia import GaussianRational, UnitCirclePoint
from knotcert.laurent import SymmetricLaurentPoly, ZPoly, alexander_poly
from knotcert.record import FrozenRecordError, Record, replace
from knotcert.seifert import KnotMetadata, SeifertMatrix


def test_fields_cannot_be_assigned_or_deleted():
    entry = CorpusEntry("trefoil", TREFOIL)
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'name'"):
        entry.name = "other"
    with pytest.raises(FrozenRecordError, match="cannot delete field 'seifert'"):
        del entry.seifert
    with pytest.raises(AttributeError):
        entry.new_attribute = 1
    assert entry.name == "trefoil" and entry.seifert is TREFOIL
    assert issubclass(FrozenRecordError, AttributeError)


def test_eq_and_hash_skip_the_uncompared_fields():
    named, unnamed = SeifertMatrix(TREFOIL.entries, name="a"), SeifertMatrix(TREFOIL.entries)
    assert named == unnamed and hash(named) == hash(unnamed)
    assert (named.name, unnamed.name) == ("a", None)
    at_row = CorpusEntry("trefoil", TREFOIL, row=7)
    assert at_row == CorpusEntry("trefoil", TREFOIL)
    assert hash(at_row) == hash(CorpusEntry("trefoil", TREFOIL))
    cert = certify(TREFOIL, name="trefoil")
    assert cert.profile is not None
    bare = replace(cert, profile=None)
    assert bare == cert and hash(bare) == hash(cert)
    assert {cert, bare} == {cert}


def test_eq_compares_every_other_field_and_the_class():
    assert CorpusEntry("trefoil", TREFOIL) != CorpusEntry("trefoil", FIGURE_EIGHT)
    assert CorpusEntry("a", TREFOIL) != CorpusEntry("b", TREFOIL)
    assert CorpusEntry("a", TREFOIL) != CorpusEntry("a", TREFOIL, assume_m0_prime=True)
    assert certify(TREFOIL) != certify(TREFOIL, KnotMetadata(assume_irreducible=False))
    # records of two classes with equal field values are not equal
    assert GaussianRational(Fraction(1)) != UnitCirclePoint(Fraction(1))
    assert CorpusError(0, "x", "m") != (0, "x", "m")


def test_constructor_takes_fields_in_order_with_defaults():
    assert GaussianRational(Fraction(1, 2)).im == 0
    assert GaussianRational(Fraction(1), Fraction(2)) == GaussianRational(im=Fraction(2), re=Fraction(1))
    assert KnotMetadata() == KnotMetadata(True, True, False)
    entry = CorpusEntry("trefoil", TREFOIL, False)
    assert not entry.assume_irreducible and entry.row is None


def test_certificate_takes_keyword_arguments_only():
    cert = certify(TREFOIL)
    values = [getattr(cert, name) for name in Certificate._fields]
    with pytest.raises(TypeError, match="positional"):
        Certificate(*values)
    with pytest.raises(TypeError, match="positional"):
        Certificate(cert.name, verdict=cert.verdict)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: CorpusError(0, "x"), "missing required arguments: message"),
        (lambda: CorpusError(row=0), "missing required arguments: name, message"),
        (lambda: Certificate(verdict="CERTIFIED"), "missing required arguments: simple_root_witnesses"),
        (lambda: KnotMetadata(assume_anything=True), "unexpected keyword argument 'assume_anything'"),
        (lambda: CorpusError(0, "x", "m", None), "takes 3 positional arguments but 4 were given"),
        (lambda: CorpusError(0, "x", "m", row=1), "multiple values for argument 'row'"),
        (lambda: replace(TREFOIL, genus=1), "unexpected keyword argument 'genus'"),
    ],
)
def test_a_missing_or_unknown_argument_raises_type_error(build, match):
    with pytest.raises(TypeError, match=match):
        build()


def test_replace_builds_through_the_constructor():
    moved = replace(CorpusEntry("trefoil", TREFOIL), row=3, name="t")
    assert (moved.name, moved.row, moved.seifert) == ("t", 3, TREFOIL)
    # SeifertMatrix.__post_init__ validates the replaced entries
    with pytest.raises(NonSymplecticError, match=r"det\(V - V\^T\) = 0, expected 1"):
        replace(TREFOIL, entries=((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="positive"):
        replace(UnitCirclePoint(Fraction(1)), u=Fraction(0))
    assert replace(TREFOIL, entries=[[-1, 1], [0, -1]]).entries == ((-1, 1), (0, -1))


def test_repr_names_the_class_and_every_field_in_order():
    assert repr(CorpusError(2, None, "bad")) == "CorpusError(row=2, name=None, message='bad')"
    matrix = SeifertMatrix([[-1, 1], [0, -1]], "t")
    assert repr(matrix) == "SeifertMatrix(entries=((-1, 1), (0, -1)), name='t')"
    half = GaussianRational(Fraction(1, 2))
    assert repr(half) == "GaussianRational(re=Fraction(1, 2), im=Fraction(0, 1))"
    assert repr(KnotMetadata()) == (
        "KnotMetadata(assume_irreducible=True, assume_homology_sphere=True, assume_m0_prime=False)"
    )


def test_a_class_declares_its_fields_and_compared_fields():
    assert SeifertMatrix._fields == ("entries", "name")
    assert SeifertMatrix._compared == ("entries",)
    assert Certificate._fields[-1] == "profile" and "profile" not in Certificate._compared
    assert CorpusEntry._compared == ("name", "seifert", "assume_irreducible", "assume_m0_prime")
    with pytest.raises(TypeError, match="uncompared"):

        class Wrong(Record, uncompared=("z",)):
            x: int


@pytest.mark.parametrize("poly", [ZPoly([-1, 1]), alexander_poly(TREFOIL)])
def test_the_polynomial_types_are_frozen(poly):
    coeffs = poly.coeffs
    with pytest.raises(FrozenRecordError, match="cannot assign to field 'coeffs'"):
        poly.coeffs = {5: 1}
    with pytest.raises(FrozenRecordError, match="cannot delete field 'coeffs'"):
        del poly.coeffs
    assert poly.coeffs is coeffs
    with pytest.raises(TypeError):
        poly.coeffs[5] = 1  # a ZPoly holds a tuple, a SymmetricLaurentPoly a mappingproxy
    assert isinstance(poly, Record)


def test_replace_checks_a_polynomial_again():
    delta = alexander_poly(TREFOIL)
    with pytest.raises(NotReciprocalError, match=r"coefficient at t\^5 is 1 but at t\^-5 is 0"):
        replace(delta, coeffs={5: 1})
    assert replace(delta, coeffs={0: 1, 2: 0}) == SymmetricLaurentPoly({0: 1})
    trimmed = replace(ZPoly([1, 2]), coeffs=(1, 0))
    assert trimmed == ZPoly([1]) and trimmed.coeffs == (1,)


def test_equal_polynomials_hash_equal():
    a, b = SymmetricLaurentPoly({1: -1, 0: 3, -1: -1}), SymmetricLaurentPoly({-1: -1, 2: 0, 0: 3, 1: -1})
    assert a == b and hash(a) == hash(b) and {a, b} == {a}
    assert a != SymmetricLaurentPoly({0: 1}) and a != ZPoly([3])
    z = ZPoly([1, 2, 0, 0])
    assert z == ZPoly((1, 2)) and hash(z) == hash(ZPoly(iter([1, 2]))) and z in {ZPoly([1, 2])}
    assert ZPoly([]) == ZPoly([0]) and ZPoly([]).degree == -1


def test_polynomial_repr_is_the_record_form():
    assert repr(ZPoly([0, 1, 0])) == "ZPoly(coeffs=(0, 1))"
    assert repr(SymmetricLaurentPoly({0: 1})) == "SymmetricLaurentPoly(coeffs=mappingproxy({0: 1}))"
    assert str(alexander_poly(TREFOIL)) == "t - 1 + t^-1"
