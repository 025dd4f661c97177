"""The certificate reader's one rule, held against changed certificates.

A certificate is read only from the JSON that writing it gives.  So a
certificate text with one value or key changed must either be refused with
ValueError or TypeError, or read as certificates that write that same text.
"""

from __future__ import annotations

import json
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from knotcert.certify import certify
from knotcert.emit import certificates_from_json, certificates_to_json, certify_rows
from knotcert.fixtures import TREFOIL, random_corpus

# random rows, and one INVALID_INPUT record for the nulls
CERTIFICATES = [*certify_rows(random_corpus(12, seed=5)), certify([[0, 0], [0, 0]])]
TEXTS = [certificates_to_json([cert]) for cert in CERTIFICATES]


def _nodes(obj, path=()):
    """(path, value) of obj and of every value inside it, outermost first."""
    yield path, obj
    inner = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in inner:
        yield from _nodes(value, (*path, key))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _scaled(text: str) -> str:
    """text's rational with numerator and denominator doubled, or over 1."""
    p, _, q = text.partition("/")
    return f"{2 * int(p)}/{2 * int(q)}" if q else f"{text}/1"


# each writes a rational or an exponent otherwise: padded, signed or re-digited
RESPELLINGS = [
    lambda s: f" {s}",
    lambda s: f"{s} ",
    lambda s: f"+{s}",
    lambda s: s[1:] if s.startswith("-") else f"-{s}",
    lambda s: re.sub(r"\d", r"0\g<0>", s, count=1),
    lambda s: re.sub(r"\d", lambda m: chr(0x660 + int(m[0])), s, count=1),  # Arabic-Indic
    _scaled,
    lambda s: f"{s}.0",
]


def _respell_rational(data, obj):
    places = [
        (path, value)
        for path, value in _nodes(obj)
        if len(path) > 1 and path[-2] in ("interval", "angle_bounds")
    ]
    if not places:
        return False
    path, value = data.draw(st.sampled_from(places))
    _at(obj, path[:-1])[path[-1]] = data.draw(st.sampled_from(RESPELLINGS))(value)
    return True


def _respell_exponent(data, obj):
    alexander = obj["alexander"]
    if not alexander:
        return False
    old = data.draw(st.sampled_from(sorted(alexander)))
    new = data.draw(st.sampled_from(RESPELLINGS))(old)
    # renamed in place, so that the key order is kept
    obj["alexander"] = {new if key == old else key: value for key, value in alexander.items()}
    return True


def _swap_bool_and_int(data, obj):
    places = [(path, value) for path, value in _nodes(obj) if path and type(value) in (bool, int)]
    if not places:
        return False
    path, value = data.draw(st.sampled_from(places))
    _at(obj, path[:-1])[path[-1]] = int(value) if type(value) is bool else bool(value)
    return True


def _drop_key(data, obj):
    places = [value for _, value in _nodes(obj) if isinstance(value, dict) and value]
    target = data.draw(st.sampled_from(places))
    del target[data.draw(st.sampled_from(sorted(target)))]
    return True


def _add_key(data, obj):
    places = [value for _, value in _nodes(obj) if isinstance(value, dict)]
    target = data.draw(st.sampled_from(places))
    key = data.draw(st.sampled_from(["bogus", "profile", "genus", "multiplicity", "2", "-3", "7"]))
    target[key] = data.draw(st.sampled_from([None, 0, 1, True, "1", [], {}]))
    return True


def _add_one(data, obj):
    places = [path for path, value in _nodes(obj) if type(value) is int]
    if not places:
        return False
    path = data.draw(st.sampled_from(places))
    _at(obj, path[:-1])[path[-1]] += 1
    return True


CHANGES = [_respell_rational, _respell_exponent, _swap_bool_and_int, _drop_key, _add_key, _add_one]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_a_changed_certificate_is_refused_or_reads_back_as_written(data):
    (obj,) = json.loads(data.draw(st.sampled_from(TEXTS)))
    change = data.draw(st.sampled_from(CHANGES))
    if not change(data, obj):  # nothing of that kind in this certificate
        return
    text = json.dumps([obj], indent=2) + "\n"
    try:
        certs = certificates_from_json(text)
    except (TypeError, ValueError):
        return
    assert certificates_to_json(certs) == text


def test_every_change_has_a_certificate_to_change():
    # the rows hold witnesses, an Alexander polynomial and a null
    text = "".join(TEXTS)
    assert '"interval"' in text and '"angle_bounds"' in text and "null" in text
    assert any(len(cert.alexander.coeffs) > 1 for cert in CERTIFICATES if cert.alexander)


@pytest.mark.parametrize("text", ["{}", '""', "3", '{"a": 1}'])
def test_certificate_json_is_an_array(text):
    # {} and "" once read back as no certificates
    with pytest.raises(TypeError, match="expected list, not"):
        certificates_from_json(text)


@pytest.mark.parametrize(
    "path, value, match",
    [
        # a zero term, which the polynomial drops, once read back without an error
        (("alexander", "5"), 0, "Certificate key 'alexander' is written "),
        # Fraction() reads this exponent form, and would take seconds to
        (("simple_root_witnesses", 0, "interval", 1), "1e10000000", "key 'interval': invalid literal"),
        (("simple_root_witnesses", 0, "interval", 1), "1/", r"key 'interval' is written \["),
    ],
)
def test_certificate_json_refuses_what_the_writer_does_not_write(path, value, match):
    obj = json.loads(certificates_to_json([certify(TREFOIL, name="trefoil")]))[0]
    _at(obj, path[:-1])[path[-1]] = value
    with pytest.raises(ValueError, match=match):
        certificates_from_json(json.dumps([obj]))
