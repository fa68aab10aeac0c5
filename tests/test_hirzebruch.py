"""Picard lattice: intersection form, cones, class grammar."""

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirzcoh.hirzebruch import (
    C,
    F,
    ZERO,
    ClassParseError,
    DivisorClass,
    SurfaceContext,
    format_class,
    parse_class,
)
from hirzcoh.p1 import DegreeForm, SplittingType

H = DivisorClass(1, 3)


def test_intersection_examples():
    ctx = SurfaceContext(2)
    assert ctx.intersect(C, C) == -2
    assert ctx.intersect(F, F) == 0
    assert ctx.intersect(C, F) == 1
    assert ctx.intersect(H, H) == 4  # -2 + 3 + 3


def test_canonical_class():
    assert SurfaceContext(2).canonical_class == DivisorClass(-2, -4)
    assert SurfaceContext(0).canonical_class == DivisorClass(-2, -2)
    assert SurfaceContext(1).canonical_class == DivisorClass(-2, -3)


@pytest.mark.parametrize("e", range(6))
def test_canonical_class_adjunction(e):
    # K.C + C.C = 2g(C) - 2 = -2 for the rational section C
    ctx = SurfaceContext(e)
    k = ctx.canonical_class
    assert ctx.intersect(k, C) + ctx.intersect(C, C) == -2
    # and the same along a fiber
    assert ctx.intersect(k, F) + ctx.intersect(F, F) == -2


def test_negative_twist_rejected():
    with pytest.raises(ValueError):
        SurfaceContext(-1)
    with pytest.raises(ValueError):
        SurfaceContext(e=-1)


# (value, the same value built another way, a value differing in the
# last field, field names, repr text) for each immutable value class
VALUE_CASES = {
    "DivisorClass": (
        C,
        DivisorClass(a=1, b=0),
        DivisorClass(1, 1),
        ("a", "b"),
        "DivisorClass(a=1, b=0)",
    ),
    "SurfaceContext": (
        SurfaceContext(),
        SurfaceContext(e=2),
        SurfaceContext(3),
        ("e",),
        "SurfaceContext(e=2)",
    ),
    "DegreeForm": (
        DegreeForm(cb=1),
        DegreeForm(0, 1, 0),
        DegreeForm(0, 1, 1),
        ("c0", "cb", "cl"),
        "DegreeForm(c0=0, cb=1, cl=0)",
    ),
    "SplittingType": (
        SplittingType((-1, -1)),
        SplittingType.from_pairs([(-1, 2)]),
        SplittingType((-1, 0)),
        ("_pairs",),
        "SplittingType([-1, -1])",
    ),
}


@pytest.mark.parametrize("name", VALUE_CASES)
def test_value_semantics(name):
    value, same, other, fields, text = VALUE_CASES[name]
    assert value == same and hash(value) == hash(same)
    assert value != other and value in {same} and other not in {same}
    assert repr(value) == repr(same) == text
    as_tuple = tuple(getattr(value, f) for f in fields)
    assert value != as_tuple and value.__eq__(as_tuple) is NotImplemented
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, 5)
        with pytest.raises(AttributeError):
            delattr(value, f)
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value


def test_cone_examples():
    ctx = SurfaceContext(2)
    assert ctx.is_ample(H)
    assert ctx.is_psef(C) and not ctx.is_nef(C)
    assert ctx.is_nef(ZERO) and not ctx.is_big(ZERO)


def test_intersection_bilinear_symmetric():
    rng = random.Random(20260810)
    for _ in range(1000):
        e = rng.randrange(0, 4)
        ctx = SurfaceContext(e)
        d1, d2, d3 = (
            DivisorClass(rng.randint(-100, 100), rng.randint(-100, 100))
            for _ in range(3)
        )
        n = rng.randint(-5, 5)
        assert ctx.intersect(d1, d2) == ctx.intersect(d2, d1)
        assert ctx.intersect(d1 + d3, d2) == ctx.intersect(d1, d2) + ctx.intersect(d3, d2)
        assert ctx.intersect(n * d1, d2) == n * ctx.intersect(d1, d2)


def _classes(bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            yield DivisorClass(a, b)


@pytest.mark.parametrize("e", range(4))
def test_cone_inclusions_exhaustive(e):
    ctx = SurfaceContext(e)
    for d in _classes(20):
        if ctx.is_ample(d):
            assert ctx.is_nef(d) and ctx.is_big(d)
        if ctx.is_nef(d):
            assert ctx.is_psef(d)
        if ctx.is_big(d):
            assert ctx.is_psef(d)


@pytest.mark.parametrize("e", range(4))
def test_cone_sum_closure_exhaustive(e):
    # nef + nef stays nef and psef + psef stays psef: the determinant-level
    # shadow of extension positivity for line-bundle classes.
    ctx = SurfaceContext(e)
    nef = [d for d in _classes(20) if ctx.is_nef(d)]
    psef = [d for d in _classes(20) if ctx.is_psef(d)]
    for d1 in nef:
        for d2 in nef:
            assert ctx.is_nef(d1 + d2)
    for d1 in psef:
        for d2 in psef:
            assert ctx.is_psef(d1 + d2)


@pytest.mark.parametrize("e", range(4))
def test_nef_duality_exhaustive(e):
    # the Mori cone of F_e is spanned by C and F
    ctx = SurfaceContext(e)
    for d in _classes(20):
        dual = ctx.intersect(d, C) >= 0 and ctx.intersect(d, F) >= 0
        assert ctx.is_nef(d) == dual


def test_parse_examples():
    assert parse_class("C+3F") == DivisorClass(1, 3)
    assert parse_class("-2C-4F") == DivisorClass(-2, -4)
    assert parse_class("C") == DivisorClass(1, 0)
    assert parse_class("3F") == DivisorClass(0, 3)
    assert parse_class("0C+0F") == DivisorClass(0, 0)
    assert parse_class(" C - F ") == DivisorClass(1, -1)
    assert parse_class("F+2C") == DivisorClass(2, 1)


# each refusal's full message: an empty string, an unexpected token (the
# rest of the whitespace-free string, at its position there), a term after
# the first without a sign, and a repeated generator; the message quotes
# the input as given
PARSE_ERRORS = {
    "C+F+F": "repeated F term '+F' in 'C+F+F'",
    "": "empty divisor-class string",
    "C3F": "missing '+' or '-' before term '3F' in 'C3F'",
    "2C+": "unexpected token '+' at position 2 in '2C+'",
    "x": "unexpected token 'x' at position 0 in 'x'",
    "CC": "missing '+' or '-' before term 'C' in 'CC'",
    "1": "unexpected token '1' at position 0 in '1'",
    "+-C": "unexpected token '+-C' at position 0 in '+-C'",
    "C 3F": "missing '+' or '-' before term '3F' in 'C 3F'",
    "  ": "empty divisor-class string",
    " -2 C + 3 G ": "unexpected token '+3G' at position 3 in ' -2 C + 3 G '",
    "F-C+7F+C": "repeated F term '+7F' in 'F-C+7F+C'",
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS))
def test_parse_rejects(bad):
    with pytest.raises(ClassParseError) as info:
        parse_class(bad)
    assert str(info.value) == PARSE_ERRORS[bad]


def test_parse_error_names_token():
    with pytest.raises(ClassParseError, match="3G"):
        parse_class("C+3G")


def test_format_examples():
    assert format_class(DivisorClass(1, 3)) == "C+3F"
    assert format_class(DivisorClass(-2, -4)) == "-2C-4F"
    assert format_class(DivisorClass(0, 0)) == "0C+0F"
    assert format_class(DivisorClass(0, -1)) == "-F"


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_format_parse_roundtrip(a, b):
    d = DivisorClass(a, b)
    assert parse_class(format_class(d)) == d


def test_class_arithmetic():
    assert 5 * H == DivisorClass(5, 15)
    assert H - C == 3 * F
    assert -(C - F) == DivisorClass(-1, 1)
