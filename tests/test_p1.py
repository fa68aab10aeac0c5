"""Splitting-type calculus on P^1 and the affine degree forms."""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hirzcoh.p1 import (
    AmbiguousExtensionError,
    DegreeForm,
    SplittingParseError,
    SplittingType,
    classify_extension,
    format_splitting,
    parse_splitting,
)

small_types = st.lists(st.integers(-10, 10), min_size=0, max_size=4).map(SplittingType)


def test_h0_h1_examples():
    assert SplittingType((-2,)).h1() == 1
    assert SplittingType((0,)).h0() == 1
    assert SplittingType((0,)).h1() == 0
    assert SplittingType([-16] * 5).twist(15).h0() == 0
    assert SplittingType().h0() == 0 and SplittingType().h1() == 0


@given(small_types, st.integers(-30, 30))
def test_h0_of_twist_reads_shifted_pairs(s, n):
    assert s.h0(n) == s.twist(n).h0()
    assert SplittingType().h0(n) == 0


def test_twist():
    assert SplittingType((-1, -1)).twist(3) == SplittingType((2, 2))
    assert SplittingType().twist(5) == SplittingType()
    assert SplittingType([-4] * 5).twist(15) == SplittingType([11] * 5)


def test_sym_power_examples():
    assert SplittingType((-1, -1)).sym_power(4) == SplittingType([-4] * 5)
    assert SplittingType((0, 1)).sym_power(2) == SplittingType((0, 1, 2))
    s = SplittingType((-3, 0, 2))
    assert s.sym_power(1) == s
    assert s.sym_power(0) == SplittingType((0,))
    assert SplittingType().sym_power(0) == SplittingType((0,))
    assert SplittingType().sym_power(3) == SplittingType()
    with pytest.raises(ValueError):
        s.sym_power(-1)


def _sym_oracle(degrees, m):
    # independent enumeration: one summand per degree-m monomial
    return SplittingType(sum(c) for c in combinations_with_replacement(degrees, m))


@given(st.lists(st.integers(-6, 6), min_size=0, max_size=4), st.integers(0, 6))
def test_sym_power_matches_enumeration(degrees, m):
    assert SplittingType(degrees).sym_power(m) == _sym_oracle(tuple(degrees), m)


def test_sym_power_balanced_fast_path_matches_enumeration():
    for r in (1, 2, 3, 5):
        for m in (2, 4, 7):
            assert SplittingType([-4] * r).sym_power(m) == _sym_oracle((-4,) * r, m)


@given(small_types, st.integers(0, 12))
def test_sym_power_rank(s, m):
    # math.comb rejects a negative upper index, so spell out the m = 0 case
    expected = 1 if m == 0 else comb(s.rank + m - 1, m)
    assert s.sym_power(m).rank == expected


def test_sym_power_enumeration_refusal():
    with pytest.raises(ValueError, match="refusing"):
        SplittingType((0, 1, 2, 3, 4, 5)).sym_power(100)
    # few monomials, but each sums m degrees: the work is m times the count
    with pytest.raises(ValueError, match="refusing"):
        SplittingType((0, 1)).sym_power(3_000_000)


def test_sym_power_rank_budget():
    # the rank comb(r + m - 1, m) is refused before it is computed when its
    # bit-length bound passes 10^5, balanced or not
    with pytest.raises(ValueError, match="more than 2\\^100000 summands"):
        SplittingType.from_pairs([(0, 1_000_001)]).sym_power(1_000_000)
    with pytest.raises(ValueError, match="more than 2\\^100000 summands"):
        SplittingType(range(30_000)).sym_power(10**100)
    for r, m in [(5, 10**7), (2, 10**4000), (5001, 10**6)]:
        st = SplittingType.from_pairs([(-1, r)]).sym_power(m)
        assert st.pairs == ((-m, comb(r + m - 1, m)),)


def test_frobenius_pullback():
    assert SplittingType((-1, -1)).frobenius_pullback(4) == SplittingType((-4, -4))
    assert SplittingType((0,)).frobenius_pullback(7) == SplittingType((0,))
    assert SplittingType((-1, -1)).frobenius_pullback(9) == SplittingType((-9, -9))
    with pytest.raises(ValueError):
        SplittingType((1,)).frobenius_pullback(1)


def test_is_nef():
    assert SplittingType((0, 1)).is_nef()
    assert not SplittingType((-1, -1)).is_nef()
    assert SplittingType().is_nef()


def test_classify_extension():
    assert classify_extension(-2, 0, True) == SplittingType((-1, -1))
    assert classify_extension(1, 0, True) == SplittingType((1, 0))
    assert classify_extension(-2, 0, False) == SplittingType((-2, 0))
    with pytest.raises(AmbiguousExtensionError, match="ambiguous splitting type"):
        classify_extension(-3, 0, True)
    with pytest.raises(AmbiguousExtensionError):
        classify_extension(-5, 2, True)


def test_nonsplitness_changes_sections():
    # the computational witness that the nonsplit middle term differs
    assert classify_extension(-2, 0, True).h0() == 0
    assert classify_extension(-2, 0, False).h0() == 1


def test_riemann_roch_on_p1():
    rng = random.Random(1357)
    for _ in range(1000):
        degrees = [rng.randint(-30, 30) for _ in range(rng.randrange(0, 6))]
        s = SplittingType(degrees)
        assert s.h0() - s.h1() == sum(d + 1 for d in degrees)


@given(small_types, st.integers(-8, 8), st.integers(0, 8))
def test_sym_of_twist(s, d, m):
    assert s.twist(d).sym_power(m) == s.sym_power(m).twist(m * d)


@given(small_types, st.integers(0, 6), st.integers(2, 9))
def test_frobenius_commutes_with_sym(s, m, q):
    assert s.sym_power(m).frobenius_pullback(q) == s.frobenius_pullback(q).sym_power(m)


@given(small_types, st.integers(-8, 8), st.integers(2, 9))
def test_frobenius_of_twist(s, d, q):
    assert s.twist(d).frobenius_pullback(q) == s.frobenius_pullback(q).twist(q * d)


def test_multiset_semantics():
    assert SplittingType((1, 0)) == SplittingType((0, 1))
    assert SplittingType((0, 0)) != SplittingType((0,))
    assert SplittingType((-1, -1)).pairs == ((-1, 2),)
    assert SplittingType((3, -2, 3)).degrees() == (-2, 3, 3)
    assert SplittingType.from_pairs([(2, 0), (1, 3)]) == SplittingType((1, 1, 1))
    with pytest.raises(ValueError):
        SplittingType.from_pairs([(0, -1)])


def test_aggregated_multiplicities_stay_compact():
    big = SplittingType([-4] * 5).sym_power(200)
    assert big.pairs == ((-800, comb(204, 4)),)
    assert big.h0() == 0
    assert big.twist(799).h0() == 0
    assert big.twist(800).h0() == comb(204, 4)


# -- degree forms ----------------------------------------------------------


def test_degree_form_region_examples():
    assert DegreeForm(0, -1, -2).is_negative_on_region()
    assert DegreeForm(0, -1, -2)(1, 0) == -1
    assert not DegreeForm(1, -1, 0).is_negative_on_region()
    assert DegreeForm(0, -1, 0).is_negative_on_region()
    assert not DegreeForm(0, 0, 0).is_negative_on_region()
    assert not DegreeForm(-10, -1, 1).is_negative_on_region()


def test_degree_form_region_agrees_with_sweep():
    # symbolic verdict vs direct evaluation over the stated grid
    forms = [
        DegreeForm(0, -1, -2),
        DegreeForm(0, -1, 0),
        DegreeForm(0, -21, -2),
        DegreeForm(-1, 0, -3),
    ]
    for form in forms:
        assert form.is_negative_on_region()
        assert all(
            form(beta, ell) < 0 for beta in range(1, 51) for ell in range(0, 251)
        )


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_degree_form_witness_is_sound(c0, cb, cl):
    form = DegreeForm(c0, cb, cl)
    witness = form.nonnegative_witness()
    if form.is_negative_on_region():
        assert witness is None
        assert all(form(b, ell) < 0 for b in range(1, 30) for ell in range(0, 30))
    else:
        beta, ell = witness
        assert beta >= 1 and ell >= 0
        assert form(beta, ell) >= 0


def test_degree_form_arithmetic():
    f = DegreeForm(0, -16, 0) + DegreeForm(0, 15, -2)
    assert f == DegreeForm(0, -1, -2)
    assert f.scale(3) == DegreeForm(0, -3, -6)


def test_degree_form_text():
    assert str(DegreeForm(0, -1, -2)) == "0 - 1*b - 2*l"
    assert str(DegreeForm(3, 15, 0)) == "3 + 15*b + 0*l"
    assert DegreeForm(0, -1, -2).compact() == "-b - 2l"
    assert DegreeForm(0, 15, -2).compact() == "15b - 2l"
    assert DegreeForm().compact() == "0"


# -- text format -----------------------------------------------------------


def test_parse_format_splitting():
    assert parse_splitting("[-1,-1]") == SplittingType((-1, -1))
    assert parse_splitting("[]") == SplittingType()
    assert parse_splitting(" [ 0 , 1 ] ") == SplittingType((0, 1))
    assert format_splitting(SplittingType((-4, -4, 2))) == "[-4,-4,2]"
    assert format_splitting(SplittingType()) == "[]"


@given(st.lists(st.integers(-50, 50), max_size=6))
def test_splitting_text_roundtrip(degrees):
    s = SplittingType(degrees)
    assert parse_splitting(format_splitting(s)) == s


def test_format_splitting_compact_for_huge_rank():
    big = SplittingType([-4] * 5).sym_power(200)
    assert format_splitting(big) == f"[-800 x {comb(204, 4)}]"


@pytest.mark.parametrize("bad", ["", "[1,]", "[a]", "1,2", "[1 2]", "[[1]]"])
def test_parse_splitting_rejects(bad):
    with pytest.raises(SplittingParseError):
        parse_splitting(bad)
