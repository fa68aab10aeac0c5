"""Splitting-type calculus on P^1 and the affine degree forms."""

import random
from collections import Counter
from functools import cache
from itertools import combinations_with_replacement, product
from math import comb, e, log2

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hirzcoh.p1 import (
    AmbiguousExtensionError,
    DegreeForm,
    SplittingParseError,
    SplittingType,
    _sym_rank,
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


# empty, balanced (one degree, any multiplicity) and unbalanced types
row_types = st.one_of(
    st.just(SplittingType()),
    st.builds(lambda d, r: SplittingType([d] * r), st.integers(-20, 20), st.integers(1, 6)),
    st.lists(st.integers(-20, 20), min_size=2, max_size=8)
    .filter(lambda ds: len(set(ds)) > 1)
    .map(SplittingType),
)


def h0_def(s, t):
    """dim H^0 of s tensored with O(t), one summand at a time."""
    return sum(d + t + 1 for d in s.degrees() if d + t >= 0)


@given(row_types, st.integers(-6, 6), st.integers(0, 30), st.integers(-40, 40))
@example(SplittingType(), -2, 5, 0)
@example(SplittingType([-3] * 4), 0, 6, 3)
@example(SplittingType([-2, 0, 0, 5]), 0, 4, -1)
@example(SplittingType([-2, 0, 0, 5]), -2, 10, 8)
@example(SplittingType([-2, 0, 0, 5]), 3, 10, -12)
# d + t = 0 exactly at l = 0 and at l = n, for slope +-1
@example(SplittingType([-3, 2]), 1, 5, 3)
@example(SplittingType([-3, 2]), 1, 5, -7)
@example(SplittingType([-3, 2]), -1, 5, 3)
@example(SplittingType([-3, 2]), -1, 5, 8)
# |slope| >= 7: each step of l crosses a pair
@example(SplittingType([-20, -13, -5, 0, 2, 9]), 7, 6, -22)
@example(SplittingType([-20, -13, -5, 0, 2, 9]), -9, 6, 25)
# multiplicities > 1
@example(SplittingType([-4, -4, 1, 1, 1, 6]), -3, 12, 10)
@example(SplittingType([-4, -4, 1, 1, 1, 6]), 2, 12, -9)
# slope 0 with n > 0, and n = 0
@example(SplittingType([-2, 0, 0, 5]), 0, 7, 1)
@example(SplittingType([-1, 3]), 5, 0, -2)
def test_h0_row_matches_definition(s, slope, n, twist):
    # h^0 at every point twist + slope*l, l = 0..n, of a row of twists
    twists = [twist + slope * ell for ell in range(n + 1)]
    assert [s.h0(t) for t in twists] == [h0_def(s, t) for t in twists]


@pytest.mark.parametrize("n_pairs", range(1, 9))
@pytest.mark.parametrize("slope", [1, -1, 3, -3, 0])
def test_h0_row_bisects_once_per_run(n_pairs, slope, monkeypatch):
    # h^0 along a row is linear in l between sign changes of d + t: a row on
    # P pairs splits into at most P + 1 runs, exactly P + 1 when it crosses
    # every pair, and first_section finds where the first nonzero run starts
    # from the top degree alone, reading no h^0
    s = SplittingType.from_pairs((40 * i - 150, i + 1) for i in range(n_pairs))
    n = 5000
    twist = 200 if slope < 0 else -200  # the row crosses every pair's d + t = 0
    row = [s.h0(twist + slope * ell) for ell in range(n + 1)]
    assert row == [h0_def(s, twist + slope * ell) for ell in range(n + 1)]

    runs = {}  # the pairs with sections -> the l that share them
    for ell in range(n + 1):
        live = tuple((d, r) for d, r in s.pairs if d + twist + slope * ell >= 0)
        runs.setdefault(live, []).append(ell)
    assert len(runs) == (n_pairs + 1 if slope else 1)
    for live, ells in runs.items():
        assert ells == list(range(ells[0], ells[-1] + 1))
        step = slope * sum(r for _, r in live)
        assert [row[ell] for ell in ells] == [
            row[ells[0]] + step * i for i in range(len(ells))
        ]

    monkeypatch.setattr(SplittingType, "h0", lambda *a: pytest.fail("h0 was read"))
    positive = [ell for ell, v in enumerate(row) if v > 0]
    first = s.twist(twist).first_section(slope, n)
    assert first == (positive[0] if positive else None)


@given(row_types, st.integers(-6, 6), st.integers(0, 30))
@example(SplittingType(), 3, 5)
@example(SplittingType(), 0, 0)
# slope 0: the row is one value throughout
@example(SplittingType([-2, -1]), 0, 9)
@example(SplittingType([-2, 0]), 0, 9)
# n = 0: only l = 0 is in the row
@example(SplittingType([-1, -4]), 5, 0)
@example(SplittingType([3]), -2, 0)
# the ceiling: -top = 7 is not a multiple of the slope 3, so l = 3
@example(SplittingType([-9, -7]), 3, 5)
# the top degree reaches 0 exactly at l = n, and one step past the row
@example(SplittingType([-10, -8]), 2, 4)
@example(SplittingType([-10, -8]), 2, 3)
# a negative slope never recovers
@example(SplittingType([-1, 4]), -1, 10)
@example(SplittingType([-5, -1]), -1, 10)
def test_first_section_is_the_first_positive_point(s, slope, n):
    positive = [ell for ell in range(n + 1) if h0_def(s, slope * ell) > 0]
    assert s.first_section(slope, n) == (positive[0] if positive else None)


def test_degrees_refuses_past_the_expand_limit():
    assert len(SplittingType.from_pairs([(0, 1_000_000)]).degrees()) == 1_000_000
    with pytest.raises(ValueError, match="too large to expand"):
        SplittingType.from_pairs([(0, 1_000_001)]).degrees()


def test_repr_round_trips_on_both_sides_of_rank_16():
    # up to rank 16 the repr lists degrees; past it, aggregated pairs
    for rank, opening in ((16, "SplittingType(["), (17, "SplittingType.from_pairs([")):
        bundle = SplittingType.from_pairs([(-1, rank - 2), (0, 1), (3, 1)])
        assert repr(bundle).startswith(opening)
        assert eval(repr(bundle)) == bundle


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


def _sym_by_pairs(pairs, m):
    # S^m(O(d)^r + R) = sum over i of O(i*d)^C(r+i-1, i) (x) S^(m-i)(R), one
    # pair at a time: it lists no monomial, so unlike _sym_oracle it shares
    # nothing with the enumeration route of sym_power.  Each S^k of a tail
    # of the pairs is built once, so m in the hundreds stays quick.
    @cache
    def tail_power(j, k):
        if j == len(pairs):
            return [(0, 1)] if k == 0 else []
        d, r = pairs[j]
        return [
            (i * d + e, comb(r + i - 1, i) * s)
            for i in range(k + 1)
            for e, s in tail_power(j + 1, k - i)
        ]

    return tail_power(0, m)


@given(st.lists(st.integers(-6, 6), min_size=0, max_size=4), st.integers(0, 6))
def test_sym_power_matches_enumeration(degrees, m):
    by_pairs = SplittingType.from_pairs(_sym_by_pairs(tuple(Counter(degrees).items()), m))
    assert SplittingType(degrees).sym_power(m) == _sym_oracle(tuple(degrees), m) == by_pairs


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
    # 100 * comb(105, 100) monomial terms: not a progression, so refused
    with pytest.raises(ValueError, match="refusing to enumerate"):
        SplittingType((0, 1, 2, 3, 4, 6)).sym_power(100)
    # the progression next to it answers: degrees 0..500, each weight j
    # mirrored by 500 - j, so the total is 250 per summand
    prog = SplittingType((0, 1, 2, 3, 4, 5)).sym_power(100)
    assert (prog.rank, prog.pairs[0][0], prog.pairs[-1][0]) == (comb(105, 5), 0, 500)
    assert sum(d * r for d, r in prog.pairs) == 250 * comb(105, 5)
    # few monomials, but each sums m degrees: the work is m times the count;
    # as a progression it would have 3 000 001 output pairs
    with pytest.raises(ValueError, match="refusing"):
        SplittingType((0, 1)).sym_power(3_000_000)


def _by_pairs(s, m):
    return SplittingType.from_pairs(_sym_by_pairs(s.pairs, m))


def test_enumerated_route_at_workload_sizes():
    # a split_calc-shaped chain with repeated degrees, which no progression
    # has: [9,9,-18], then S^2 = [-36,-9,-9,18,18,18] and S^6 of that
    s = SplittingType((4, 4, 1)).twist(-3).frobenius_pullback(9)
    s2 = s.sym_power(2)
    assert s2 == _by_pairs(s, 2) == SplittingType((-36, -9, -9, 18, 18, 18))
    s6 = s2.sym_power(6)
    assert s6 == _by_pairs(s2, 6) and s6.rank == comb(11, 6)
    # the largest m under the 5 * 10^6-term bound, and the first one past it:
    # 72 * comb(75, 3) = 4 861 800 and 73 * comb(76, 3) = 5 131 900 terms;
    # 214 * comb(216, 2) = 4 969 080 and 215 * comb(217, 2) = 5 038 740
    for degrees, m in [((-6, -1, 2, 5), 72), ((0, 1, 3), 214)]:
        s = SplittingType(degrees)
        assert m * comb(len(degrees) + m - 1, m) <= 5_000_000
        out = s.sym_power(m)
        assert out == _by_pairs(s, m) and out.rank == comb(len(degrees) + m - 1, m)
        with pytest.raises(ValueError, match="refusing to enumerate"):
            s.sym_power(m + 1)


def _is_progression(s):
    degrees = s.degrees()
    steps = {b - a for a, b in zip(degrees, degrees[1:])}
    return len(degrees) >= 2 and len(steps) == 1 and steps.pop() > 0


def _largest_sym_exponent(n, cost):
    """The largest m with comb(n + m, m) <= cost, at most 12."""
    m = 2
    while m < 12 and comb(n + m + 1, m + 1) <= cost:
        m += 1
    return m


@given(
    st.integers(-6, 6),
    st.integers(1, 4),
    st.lists(st.tuples(st.sampled_from(["twist", "frob"]), st.integers(-9, 9)), max_size=3),
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(2, _largest_sym_exponent(n, 3000)))
    ),
)
@example(-2, 2, [], (4, 12))  # S^m(S^4[-2,0]), the split control's tower
@example(0, 1, [("frob", 3), ("twist", -5)], (12, 3))
@example(3, 4, [], (1, 12))
def test_progression_route_matches_enumeration(a, gap, images, n_m):
    # a rank-2 leaf, its twist and Frobenius images, then S^n of it: every
    # step keeps a multiplicity-one arithmetic progression
    s = SplittingType((a, a + gap))
    for name, value in images:
        s = s.twist(value) if name == "twist" else s.frobenius_pullback(abs(value) + 2)
    n, m = n_m
    s_n = s.sym_power(n)
    assert s_n == _sym_oracle(s.degrees(), n) and _is_progression(s_n)
    assert s_n.sym_power(m) == _sym_oracle(s_n.degrees(), m)


def test_progression_route_refuses_nothing_enumeration_accepts():
    # for n >= 1, the largest m >= 2 with m * comb(n + m, m) <= 5 * 10^6 (the
    # enumeration bound; m * comb grows with n and m, so that m is the edge)
    limit, edge, n = 5_000_000, [], 1
    while 2 * comb(n + 2, 2) <= limit:
        m = 2
        while (m + 1) * comb(n + m + 1, m + 1) <= limit:
            m += 1
        edge.append((n, m))
        n += 1
    assert len(edge) == 2234
    # the route's bound: since comb(n + m, m) >= n*m + 1, both of its costs
    # are at most what enumeration would have spent
    for n, m in edge:
        assert min(n, m) * (n * m + 1) <= limit and n * m + 1 <= 100_000
    # and the code answers there: all n up to 40, then a sample to the last
    for n, m in edge[:40] + edge[40::150] + edge[-1:]:
        s = SplittingType(range(-n, n + 1, 2)).sym_power(m)
        assert len(s.pairs) == n * m + 1 and s.rank == comb(n + m, m)
        assert (s.pairs[0][0], s.pairs[-1][0]) == (-n * m, n * m)


def test_progression_route_bound():
    # the largest output: 10^5 pairs; the most additions: 170 * (170^2 + 1)
    assert len(SplittingType((0, 1)).sym_power(99_999).pairs) == 100_000
    with pytest.raises(ValueError, match="has 100001 degrees .* refusing more than 100000"):
        SplittingType((0, 1)).sym_power(100_000)
    with pytest.raises(ValueError, match="172-term progression .* 171 additions each"):
        SplittingType(range(172)).sym_power(171)
    # refused from (n, m) alone, before a list of 10^100 + 1 coefficients
    with pytest.raises(ValueError, match="refusing"):
        SplittingType((0, 1)).sym_power(10**100)


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


RANK_REFUSAL = "symmetric power may have more than 2^100000 summands; refusing to compute its rank"


def _float_rank_bound_accepts(r, m):
    """The float bit-length bound k*log2(e*n/k) <= 10^5 alone: the reference for every refusal."""
    n, k = r + m - 1, min(m, r - 1)
    return not (k > 100_000 or k * (log2(n) - log2(k or 1) + log2(e)) > 100_000)


rank_sizes = st.one_of(
    st.integers(1, 60),
    st.integers(1, 10**6),
    st.integers(0, 110_000).map(lambda b: 2**b),
    st.integers(1, 10**4000),
)


# r, m on both sides of k*(n.bit_length() + 2) = 10^5, k = min(m, r - 1)
# and n = r + m - 1, where the integer bound stops accepting: n = 2^99997
# and 2^99998 for k = 1, 2^49997 and 2^49998 for k = 2, 2^33330 and 2^33331
# for k = 3, 2^18 - 1 and 2^18 for k = 5000; and for k = 1 two n the float
# bound refuses, 2^99999 - 1 and 2^99999, which an integer bound with
# bit_length() + 1 or + 0 would accept
@example(2, 2**99997 - 1)
@example(2, 2**99998 - 1)
@example(2, 2**99999 - 2)
@example(2, 2**99999 - 1)
@example(3, 2**49997 - 2)
@example(3, 2**49998 - 2)
@example(4, 2**33330 - 3)
@example(4, 2**33331 - 3)
@example(2**18 - 5000, 5000)
@example(2**18 - 4999, 5000)
# a rank near the budget, such as r = m = 34000, takes about 0.1 s to compute
@settings(deadline=None)
@given(rank_sizes, rank_sizes)
def test_sym_rank_refuses_what_the_float_bound_refuses(r, m):
    # the integer bound in front only answers what the float bound accepts
    if _float_rank_bound_accepts(r, m):
        assert _sym_rank(r, m) == comb(r + m - 1, m)
    else:
        with pytest.raises(ValueError) as info:
            _sym_rank(r, m)
        assert str(info.value) == RANK_REFUSAL


# -- derived types are built from their pairs unchecked -------------------


def _assert_canonical(s):
    # what the checked entry point would build from the same pairs, and the
    # invariant the unchecked constructor relies on
    assert s.pairs == SplittingType.from_pairs(s.pairs).pairs
    assert s == SplittingType.from_pairs(s.pairs)
    assert hash(s) == hash(SplittingType.from_pairs(s.pairs))
    assert all(d1 < d2 for (d1, _), (d2, _) in zip(s.pairs, s.pairs[1:]))
    assert all(r >= 1 for _, r in s.pairs)


aggregated_types = st.lists(
    st.tuples(st.integers(-30, 30), st.integers(0, 4)), max_size=6
).map(SplittingType.from_pairs)


@given(aggregated_types, st.integers(-50, 50), st.integers(2, 9))
def test_twist_and_pullback_keep_canonical_pairs(s, n, q):
    _assert_canonical(s.twist(n))
    _assert_canonical(s.frobenius_pullback(q))
    assert s.twist(n).rank == s.frobenius_pullback(q).rank == s.rank


@given(aggregated_types, st.integers(-20, 20), st.integers(1, 30), st.integers(2, 8))
def test_sym_power_m0_and_balanced_keep_canonical_pairs(s, d, r, m):
    _assert_canonical(s.sym_power(0))
    balanced = SplittingType.from_pairs([(d, r)]).sym_power(m)
    _assert_canonical(balanced)
    assert balanced.pairs == ((m * d, comb(r + m - 1, m)),)


@given(st.integers(-20, 20), st.integers(1, 5), st.integers(1, 8), st.integers(2, 12))
@example(0, 1, 1, 2)
@example(-3, 2, 8, 12)
def test_progression_power_keeps_canonical_pairs(a, s, n, m):
    # every Gaussian-binomial coefficient of degree 0..n*m is a pair
    prog = SplittingType(range(a, a + s * (n + 1), s))
    out = prog.sym_power(m)
    _assert_canonical(out)
    assert [d for d, _ in out.pairs] == list(range(m * a, m * a + s * n * m + 1, s))
    assert out == _sym_oracle(prog.degrees(), m)


@given(
    st.lists(st.integers(-8, 8), min_size=2, max_size=4).map(SplittingType),
    st.integers(2, 5),
)
@example(SplittingType((0, 0, 1)), 2)
@example(SplittingType((0, 1, 3)), 3)
def test_enumerated_sym_power_keeps_canonical_pairs(s, m):
    out = s.sym_power(m)
    _assert_canonical(out)
    if len(s.pairs) >= 2 and not _is_progression(s):  # the enumeration route
        assert out == _sym_oracle(s.degrees(), m)


def _format_reference(s):
    return "[" + ",".join(map(str, s.degrees())) + "]"


@given(aggregated_types, st.integers(-3, 3))
def test_format_splitting_matches_expanded_degrees(s, n):
    for t in (s, s.twist(n), s.sym_power(2)):
        assert format_splitting(t) == _format_reference(t)


def test_format_splitting_switches_to_pairs_past_rank_1000():
    at_limit = SplittingType.from_pairs([(-3, 600), (7, 399), (12, 1)])
    assert at_limit.rank == 1000
    assert format_splitting(at_limit) == _format_reference(at_limit)
    assert format_splitting(at_limit).count(",") == 999
    past = SplittingType.from_pairs([(-3, 600), (7, 401)])
    assert format_splitting(past) == "[-3 x 600, 7 x 401]"
    assert format_splitting(SplittingType((-1, -1)).sym_power(1000)) == "[-1000 x 1001]"
    assert format_splitting(SplittingType((-1, -1)).sym_power(999)) == (
        "[" + ",".join(["-999"] * 1000) + "]"
    )


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
    assert classify_extension(-3, 0, True) == SplittingType((-2, -1))
    assert classify_extension(1, 0, True) == SplittingType((1, 0))
    assert classify_extension(-2, 0, False) == SplittingType((-2, 0))
    assert classify_extension(-3, 0, False) == SplittingType((-3, 0))
    with pytest.raises(AmbiguousExtensionError, match="ambiguous splitting type"):
        classify_extension(-4, 0, True)
    with pytest.raises(AmbiguousExtensionError):
        classify_extension(-5, 2, True)


def test_classify_extension_answers_iff_one_nonsplit_candidate():
    # a nonsplit middle term is {s+k, q-k} with 1 <= k <= (q-s)/2
    for s, q in product(range(-6, 7), repeat=2):
        candidates = [SplittingType((s + k, q - k)) for k in range(1, (q - s) // 2 + 1)]
        assert classify_extension(s, q, False) == SplittingType((s, q))
        if s - q >= -1:  # Ext^1 vanishes: every extension splits
            assert candidates == [] and classify_extension(s, q, True) == SplittingType((s, q))
        elif len(candidates) == 1:
            assert classify_extension(s, q, True) == candidates[0], (s, q)
        else:
            with pytest.raises(AmbiguousExtensionError, match=f"degree gap {s - q}"):
                classify_extension(s, q, True)


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


_huge = st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63))


@given(st.lists(st.integers(-3, 3) | _huge, max_size=8))
@example([])
@example([2**63, -(2**64), 2**63, 0, 0, 2**63])
def test_constructor_reads_any_iterable_once(xs):
    # sorted, aggregated pairs from a list, a tuple, a one-shot generator or
    # an iterator, so the constructor may read its input only once
    expected = tuple(sorted(Counter(xs).items()))
    for degrees in (list(xs), tuple(xs), (d for d in xs), iter(xs)):
        assert SplittingType(degrees).pairs == expected


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


def test_degree_form_region_exhaustive():
    # every form with coefficients in -9..9 that is >= 0 somewhere on the
    # region is >= 0 on this grid: at b = 1 and l = ceil(-(c0 + cb)/cl) <= 18
    # when cl > 0, else at l = 0 and b = ceil(-c0/cb) <= 9
    grid = [(b, ell) for b in range(1, 11) for ell in range(19)]
    for c0, cb, cl in product(range(-9, 10), repeat=3):
        form = DegreeForm(c0, cb, cl)
        reaches = any(c0 + cb * b + cl * ell >= 0 for b, ell in grid)
        assert form.is_negative_on_region() is not reaches, form
        witness = form.nonnegative_witness()
        if reaches:
            beta, ell = witness
            assert beta >= 1 and ell >= 0 and form(beta, ell) >= 0, form
        else:
            assert witness is None, form


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
