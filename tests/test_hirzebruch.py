"""Picard lattice: intersection form, cones, class grammar."""

import copy
import pickle
import random
import re
import signal
import time

import pytest
from hypothesis import example, given
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

# the whitespace characters of the splitting-type tests: str.strip, and so
# the class grammar, takes \x1c and \u2003 as whitespace too
_PAD_CHARS = " \t\x1c\u2003"
_PAD = st.text(_PAD_CHARS, max_size=2)


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
    assert parse_class("\t-\u20032C +\tF\u2003") == DivisorClass(-2, 1)


# each refusal's full message: an empty or all-whitespace string, an
# unexpected token (the rest of the text from the term that fails to read,
# leading whitespace included, at its index in the text), a term after the
# first without a sign, and a repeated generator; whitespace inside a
# coefficient or before a generator leaves the term unread.  The message
# quotes the input as given
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
    " -2 C + 3 G ": "unexpected token ' -2 C + 3 G ' at position 0 in ' -2 C + 3 G '",
    "F-C+7F+C": "repeated F term '+7F' in 'F-C+7F+C'",
    "1 0C+F": "unexpected token '1 0C+F' at position 0 in '1 0C+F'",
    "3 F": "unexpected token '3 F' at position 0 in '3 F'",
    "-2 C+F": "unexpected token '-2 C+F' at position 0 in '-2 C+F'",
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


@given(
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
    st.lists(_PAD, min_size=5, max_size=5),
    st.sampled_from(_PAD_CHARS),
)
def test_parse_reads_whitespace_around_terms_and_signs(a, b, pads, space):
    # pads[0] goes before the first term, and each term is followed by its
    # own pad, as each sign is
    d = DivisorClass(a, b)
    text = pads[0]
    for i, (sign, body) in enumerate(re.findall(r"([+-]?)([0-9]*[CF])", format_class(d))):
        text += (sign + pads[2 * i + 1] if sign else "") + body + pads[2 * i + 2]
    assert parse_class(text) == d
    # after a digit comes a digit or a generator: a space there sits inside a
    # coefficient or before a generator
    for i in range(1, len(text)):
        if text[i - 1] in "0123456789":
            with pytest.raises(ClassParseError, match="^unexpected token"):
                parse_class(text[:i] + space + text[i:])


_COMPACT_TERM_RE = re.compile(r"([+-]?)([0-9]*)([CF])")


def _parse_compact(text):
    """The class, or the refusal text, of a reader of whitespace-free texts.

    A reference copy of the class reader that deleted all whitespace before
    it read, without that deletion: it is called only on texts that have
    none.  It shares no code with ``parse_class``.
    """
    if not text:
        return "empty divisor-class string"
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _COMPACT_TERM_RE.match(text, pos)
        if m is None:
            return f"unexpected token {text[pos:]!r} at position {pos} in {text!r}"
        sign, digits, gen = m.groups()
        if pos and not sign:
            return f"missing '+' or '-' before term {m.group(0)!r} in {text!r}"
        if gen in coeffs:
            return f"repeated {gen} term {m.group(0)!r} in {text!r}"
        if len(digits) > 4300:
            return f"{gen} coefficient has more than 4300 digits"
        coeffs[gen] = int(sign + digits) if digits else (-1 if sign == "-" else 1)
        pos = m.end()
    return DivisorClass(coeffs.get("C", 0), coeffs.get("F", 0))


@given(st.text("CF+-0123x", max_size=12))
@example("-" + "9" * 4300 + "C+F")
@example("C-" + "0" * 4301 + "F")
def test_parse_without_whitespace_reads_as_before(text):
    # without whitespace, each text gets the reference reader's class or
    # its refusal, word for word
    try:
        got = parse_class(text)
    except ClassParseError as exc:
        got = str(exc)
    assert got == _parse_compact(text)


def test_whitespace_is_read_in_linear_time():
    # two whitespace runs side by side in the term pattern backtrack
    # quadratically: seconds for 2*10^4 spaces, minutes for 10^5.  re checks
    # for signals while it backtracks, so an alarm ends such a run after 1 s
    def expire(signum, frame):
        raise TimeoutError("parse_class still running after 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        start = time.perf_counter()
        with pytest.raises(ClassParseError, match="^unexpected token ' "):
            parse_class(" " * 100_000 + "x")
        assert time.perf_counter() - start < 0.1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_class_arithmetic():
    assert 5 * H == DivisorClass(5, 15)
    assert H - C == 3 * F
    assert -(C - F) == DivisorClass(-1, 1)
