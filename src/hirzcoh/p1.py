"""Exact calculus of vector bundles on P^1 in Grothendieck normal form.

Every vector bundle on P^1 is a direct sum of line bundles O(d_i), so a
finite multiset of integers pins it down completely.  This module works
with those multisets: cohomology, twisting, symmetric powers, Frobenius
pullback, nefness, and the splitting type of rank-2 extensions.

Multiplicities are kept aggregated, so balanced bundles with
astronomically many summands (high symmetric powers of O(d)^r) stay
constant-sized.  A symmetric power takes one of three routes: a balanced
bundle gives one aggregated summand; an arithmetic progression
a, a+s, ..., a+n*s of multiplicity-one degrees (every unbalanced rank-2
bundle, and its twists, pullbacks and symmetric powers) gives the Gaussian
binomial [m+n choose n] in q = t^s; anything else enumerates its monomials.
The route is chosen from the pairs alone, with no per-summand Python loop:
a progression is the one tuple of pairs that its first two degrees
predict.  All arithmetic is unbounded-integer exact.

A splitting type is read from one of two text forms, ``[d1,d2,...]`` or a
rank-2 extension ``ext(sub,quot,split|nonsplit)``, whose type
``classify_extension`` decides.  Both bodies are split on commas and each
entry stripped, so whitespace is allowed around an entry but not inside
one.  The bracket form is read by mapping ``int`` over the stripped tokens
and written from one repeated ``"d,"`` string per pair; ``parse_int``
walks the tokens only to name a bad one.

``DegreeForm`` is the symbolic companion: an affine integer form
``c0 + cb*b + cl*l`` in two nonnegative parameters.  A bundle on P^1 has
no sections exactly when its largest degree is negative, so the form of a
restricted bundle's top parametric degree certifies h^0 = 0 for the whole
parameter region at once.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations_with_replacement, repeat
from math import comb, e, log2
from operator import itemgetter
from typing import Iterable

from .hirzebruch import _INT_DIGITS, Value, parse_int

# Enumerating the m-th symmetric power sums m degrees for each monomial,
# counting the weights in C with no Python frame per monomial; refuse past
# this many terms (m times the monomial count).  Balanced inputs and
# progressions never enumerate; a progression's Gaussian binomial is
# refused past this many additions too.
_SYM_ENUMERATION_LIMIT = 5_000_000

# The Gaussian binomial of a progression refuses more output pairs than this.
_SYM_PROGRESSION_PAIRS = 100_000

# degrees() refuses to expand multisets larger than this.
_EXPAND_LIMIT = 1_000_000

# A symmetric power refuses to compute a rank (a binomial coefficient)
# that may have more bits than this.
_SYM_RANK_BITS = 100_000


class AmbiguousExtensionError(ValueError):
    """Nonsplitness alone does not determine the middle term."""


class SplittingParseError(ValueError):
    """A splitting-type string fits neither ``[d1,d2,...]`` nor ``ext(...)``.

    The ``ext`` form is ``ext(sub,quot,split|nonsplit)`` with two integer
    degrees.  A well-formed ``ext`` whose type nonsplitness leaves open raises
    ``AmbiguousExtensionError`` instead.
    """


class SplittingType(Value):
    """A finite multiset of integers: the degrees of a direct sum of O(d_i).

    The empty multiset is the zero bundle.  Instances are immutable and
    hashable; equality is multiset equality.
    """

    __slots__ = ("_pairs",)

    def __init__(self, degrees: Iterable[int] = ()):
        # A plain dict, not a Counter: the replay builds a one- or two-degree
        # type per b, and Counter's Python-level __init__ and update made such
        # a call 3.7-3.9 us against 1.5-1.8 us with this loop (Python 3.11.7,
        # 2-vCPU Xeon VM).  The input is read once.
        counts: dict[int, int] = {}
        for d in degrees:
            counts[d] = counts.get(d, 0) + 1
        _set_pairs(self, tuple(sorted(counts.items())))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "SplittingType":
        """Build from (degree, multiplicity) pairs; multiplicities must be > 0.

        Pairs may come in any order and repeat a degree; zero multiplicities
        are dropped.  This and ``SplittingType(degrees)`` are the checked
        entry points for outside input.
        """
        counts: dict[int, int] = {}
        for d, r in pairs:
            if r < 0:
                raise ValueError(f"negative multiplicity {r} for degree {d}")
            if r:
                counts[d] = counts.get(d, 0) + r
        return _from_sorted(tuple(sorted(counts.items())))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (degree, multiplicity) pairs."""
        return self._pairs

    @property
    def rank(self) -> int:
        return sum(map(itemgetter(1), self._pairs))

    def degrees(self) -> tuple[int, ...]:
        """The expanded, sorted degree tuple (small multisets only)."""
        if self.rank > _EXPAND_LIMIT:
            raise ValueError(f"rank {self.rank} too large to expand")
        out: list[int] = []
        for d, r in self._pairs:
            out.extend([d] * r)
        return tuple(out)

    def __repr__(self) -> str:
        if self.rank <= 16:
            return f"SplittingType({list(self.degrees())})"
        return f"SplittingType.from_pairs({list(self._pairs)})"

    def __reduce__(self):
        return SplittingType.from_pairs, (self._pairs,)

    # -- cohomology and positivity -------------------------------------

    def h0(self, twist: int = 0) -> int:
        """dim H^0 of the bundle tensored with O(twist).

        The sum of r*(d + twist + 1) over the pairs (d, r) with d >= -twist.
        """
        return sum(r * (d + twist + 1) for d, r in self._pairs if d >= -twist)

    def first_section(self, slope: int, n: int) -> int | None:
        """The first l in 0..n where the bundle tensored with O(slope*l) has sections.

        A bundle on P^1 has sections exactly when its top degree is >= 0, and
        the top degree of the twist, top + slope*l, is monotone in l, so the
        two ends of the row decide it: l = 0 when top >= 0, else the ceiling
        of -top/slope when the slope is positive and top + slope*n >= 0.
        None when no l qualifies, and for the zero bundle.
        """
        if not self._pairs:
            return None
        top = self._pairs[-1][0]
        if top >= 0:
            return 0
        if slope > 0 and top + slope * n >= 0:
            return -(top // slope)
        return None

    def h1(self) -> int:
        """dim H^1 = sum of (-d_i - 1) over summands with d_i <= -2."""
        return sum(r * (-d - 1) for d, r in self._pairs if d <= -2)

    def is_nef(self) -> bool:
        """Nef on P^1 means every summand has nonnegative degree."""
        return all(d >= 0 for d, _ in self._pairs)

    # -- constructions ---------------------------------------------------

    def twist(self, n: int) -> "SplittingType":
        """Tensor with O(n): shift every degree by n."""
        return _from_sorted(tuple([(d + n, r) for d, r in self._pairs]))

    def frobenius_pullback(self, q: int) -> "SplittingType":
        """Pull back by the q-power Frobenius: multiply every degree by q."""
        if q < 2:
            raise ValueError(f"Frobenius power must be >= 2, got {q}")
        return _from_sorted(tuple([(d * q, r) for d, r in self._pairs]))

    def sym_power(self, m: int) -> "SplittingType":
        """The m-th symmetric power.

        Degrees are the monomial weights: one summand per degree-m monomial
        in rank-many variables of weights d_i, so the rank of the result is
        comb(rank + m - 1, m).  Balanced input short-circuits to a single
        aggregated summand.  Multiplicity-one degrees a, a+s, ..., a+n*s
        take the Gaussian binomial (``_progression_power``), after the rank
        check every unbalanced type passes first; anything else
        enumerates the monomials and counts their weights in C:
        ``map(sum, ...)`` over ``combinations_with_replacement`` resumes no
        Python frame per monomial, and the iterator reuses its one result
        tuple, since nothing else holds it.
        """
        if m < 0:
            raise ValueError(f"symmetric power wants a nonnegative exponent, got {m}")
        if m == 0:
            return _from_sorted(((0, 1),))
        if m == 1 or not self._pairs:
            return self
        pairs = self._pairs
        if len(pairs) == 1:
            d, r = pairs[0]
            # one pair, and its multiplicity comb(r + m - 1, m) is >= 1
            return _from_sorted(((m * d, _sym_rank(r, m)),))
        n_monomials = _sym_rank(self.rank, m)
        # a progression is the one tuple of pairs its first step predicts
        a, s = pairs[0][0], pairs[1][0] - pairs[0][0]
        if pairs == tuple(zip(range(a, a + s * len(pairs), s), repeat(1))):
            return _progression_power(a, s, len(pairs) - 1, m)
        if m * n_monomials > _SYM_ENUMERATION_LIMIT:
            raise ValueError(
                f"symmetric power has {n_monomials} summands of {m} terms each; "
                f"refusing to enumerate more than {_SYM_ENUMERATION_LIMIT} terms"
            )
        sums = Counter(map(sum, combinations_with_replacement(self.degrees(), m)))
        return _from_sorted(tuple(sorted(sums.items())))


# Set the one slot directly, as hirzebruch's _set_a does.
_set_pairs = SplittingType._pairs.__set__


def _from_sorted(pairs: tuple[tuple[int, int], ...]) -> SplittingType:
    """The type with these pairs: sorted by distinct degree, multiplicities >= 1.

    Nothing is checked.  Every type this module derives from another keeps
    that order by construction: a twist adds n and a Frobenius pullback
    multiplies by q >= 2, so both keep the degrees strictly increasing; S^0
    is the one pair (0, 1); a balanced power is the one pair (m*d, rank)
    with a rank >= 1; a progression's degrees m*a + s*j increase with j; an
    enumeration sorts its counts once.
    """
    st = object.__new__(SplittingType)
    _set_pairs(st, pairs)
    return st


def _progression_power(a: int, s: int, n: int, m: int) -> SplittingType:
    """S^m of the degrees a, a+s, ..., a+n*s, each once (s > 0; n, m >= 1).

    A degree-m monomial's weight is m*a + s*j, where j is a sum of m
    exponents in 0..n; the number of such monomials is the coefficient of
    q^j in the Gaussian binomial [m+n choose n] (Stanley, EC1, section 1.7),
    for j = 0..n*m.  By its symmetry in n and m that is the product of
    (1 - q^(big+i)) / (1 - q^i) over i = 1..small, with small = min(n, m)
    and big = max(n, m).  The i = 1 factor is 1 + q + ... + q^big, written
    down directly; each later one is one shift-subtract and one stride-i
    prefix sum on the coefficient list, truncated to its final degree
    big*i, so the whole costs at most small*(n*m + 1) additions.  That and
    the n*m + 1 output pairs are bounded before any work; both stay below
    the enumeration bound m*comb(n+m, m), so every progression enumeration
    would accept is answered.
    """
    small, big, size = min(n, m), max(n, m), n * m + 1
    if small * size > _SYM_ENUMERATION_LIMIT or size > _SYM_PROGRESSION_PAIRS:
        raise ValueError(
            f"symmetric power of a {n + 1}-term progression has {size} degrees "
            f"at {small} additions each; refusing more than {_SYM_PROGRESSION_PAIRS} "
            f"degrees or {_SYM_ENUMERATION_LIMIT} additions"
        )
    # a rank-2 progression (small = 1) multiplies in nothing more
    coeffs = [1] * (big + 1)
    for i in range(2, small + 1):
        shift = big + i
        # times (1 - q^shift), truncated to the quotient's degree big*i
        head = coeffs + [0] * big
        coeffs = head[:shift] + [x - y for x, y in zip(head[shift:], coeffs)]
        # over (1 - q^i): a prefix sum along each residue class mod i
        for r in range(i):
            coeffs[r::i] = accumulate(coeffs[r::i])
    # every coefficient of a Gaussian binomial up to its degree n*m is >= 1
    return _from_sorted(tuple(zip(range(m * a, m * a + s * size, s), coeffs)))


def _sym_rank(r: int, m: int) -> int:
    """comb(r + m - 1, m), the rank of S^m of a rank-r bundle (r, m >= 1).

    With n = r + m - 1 and k = min(m, r - 1), comb(n, k) <= (e*n/k)^k bounds
    its bit length by k*log2(e*n/k), and n >= 2k makes it at least 2^k.  A
    rank past the budget is refused before it is computed.

    Most ranks are a few bits, so an integer bound decides them first:
    log2(e*n/k) < n.bit_length() + 2 for every k >= 1, so a rank with
    k*(n.bit_length() + 2) within the budget also passes the float bound,
    without its three log2 calls.  Every other rank is decided by the float
    bound alone, so the integer bound refuses nothing.
    """
    n, k = r + m - 1, min(m, r - 1)
    if k * (n.bit_length() + 2) > _SYM_RANK_BITS and (
        k > _SYM_RANK_BITS or k * (log2(n) - log2(k or 1) + log2(e)) > _SYM_RANK_BITS
    ):
        raise ValueError(
            f"symmetric power may have more than 2^{_SYM_RANK_BITS} summands; "
            "refusing to compute its rank"
        )
    return comb(n, m)


def classify_extension(sub_deg: int, quot_deg: int, nonsplit: bool) -> SplittingType:
    """Splitting type of a rank-2 extension 0 -> O(sub) -> E -> O(quot) -> 0.

    The extension group is H^1(O(sub - quot)).  When it vanishes every
    extension splits, nonsplit request or not.  A nonsplit middle term is
    {sub+k, quot-k} for some 1 <= k <= (quot - sub)/2; k = 0 is the split
    extension.  For a degree gap of -2 or -3 only k = 1 is left, so the
    middle term is {sub+1, quot-1}.  A wider gap leaves several candidate
    middle terms, so a nonsplit request is refused rather than guessed.
    """
    split = SplittingType((sub_deg, quot_deg))
    if not nonsplit:
        return split
    gap = sub_deg - quot_deg
    if gap >= -1:  # H^1(O(gap)) = 0: splitting is forced
        return split
    if gap >= -3:
        return SplittingType((sub_deg + 1, quot_deg - 1))
    raise AmbiguousExtensionError(
        f"ambiguous splitting type: a nonsplit extension of O({quot_deg}) by "
        f"O({sub_deg}) is not determined by nonsplitness alone (degree gap {gap})"
    )


class DegreeForm(Value):
    """Affine integer form ``c0 + cb*b + cl*l`` over parameters b >= 1, l >= 0.

    The parameter region is fixed: b (written beta in prose) ranges over
    integers >= 1 and l over integers >= 0.
    """

    __slots__ = ("c0", "cb", "cl")

    def __init__(self, c0: int = 0, cb: int = 0, cl: int = 0) -> None:
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "cb", cb)
        object.__setattr__(self, "cl", cl)

    def __call__(self, beta: int, ell: int = 0) -> int:
        return self.c0 + self.cb * beta + self.cl * ell

    def __add__(self, other: "DegreeForm") -> "DegreeForm":
        return DegreeForm(self.c0 + other.c0, self.cb + other.cb, self.cl + other.cl)

    def scale(self, n: int) -> "DegreeForm":
        return DegreeForm(n * self.c0, n * self.cb, n * self.cl)

    def is_negative_on_region(self) -> bool:
        """True iff the form is < 0 for every integer b >= 1, l >= 0."""
        return self.nonnegative_witness() is None

    def nonnegative_witness(self) -> tuple[int, int] | None:
        """A point (b, l) of the region where the form is >= 0, if any.

        A positive slope escapes to +infinity along its axis; with both
        slopes nonpositive the supremum over the region sits at (1, 0).
        """
        if self.c0 + self.cb >= 0:
            return (1, 0)
        if self.cl > 0:  # the least l with c0 + cb + cl*l >= 0, at b = 1
            return (1, -((self.c0 + self.cb) // self.cl))
        if self.cb > 0:  # the least b with c0 + cb*b >= 0, at l = 0
            return (-(self.c0 // self.cb), 0)
        return None

    def __str__(self) -> str:
        s = str(self.c0)
        for coeff, var in ((self.cb, "b"), (self.cl, "l")):
            s += f" - {-coeff}*{var}" if coeff < 0 else f" + {coeff}*{var}"
        return s

    def compact(self) -> str:
        """Short human form, e.g. ``-b - 2l`` or ``15b - 2l`` or ``0``."""
        parts: list[str] = []
        for coeff, var in ((self.c0, ""), (self.cb, "b"), (self.cl, "l")):
            if coeff == 0:
                continue
            mag = abs(coeff)
            body = f"{'' if mag == 1 and var else mag}{var}"
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"{'-' if coeff < 0 else '+'} {body}")
        return " ".join(parts) if parts else "0"


# Past this rank the text form aggregates equal degrees as "d x mult".
_FORMAT_EXPAND_LIMIT = 1000


def parse_splitting(text: str) -> SplittingType:
    """Parse ``[d1,d2,...]`` (possibly ``[]``) or ``ext(sub,quot,split|nonsplit)``.

    Whitespace is tolerated around the text and around each comma-separated
    entry, but not inside an entry, inside ``ext`` or before its ``(``.  An
    ``ext`` form is the middle term of 0 -> O(sub) -> E -> O(quot) -> 0, as
    ``classify_extension`` gives it, so it raises ``AmbiguousExtensionError``
    for a nonsplit gap of -4 or wider; every other refusal is a
    ``SplittingParseError``.  The ``ext`` form is tried only where the
    bracket test fails, so a bracket input never reaches it.

    Each degree reads as ``parse_int`` reads it.  The bracket form does so
    in one pass: ``int`` of each stripped token, once the body has no "_",
    no token has a non-ASCII character, and none has more than
    ``_INT_DIGITS`` digits.  On those tokens ``int`` takes exactly what
    ``parse_int`` takes, so a token either refuses is bad, and only then
    does a walk through ``parse_int`` name the first bad one.
    """
    trimmed = text.strip()
    if len(trimmed) < 2 or not (trimmed.startswith("[") and trimmed.endswith("]")):
        if not (trimmed.startswith("ext(") and trimmed.endswith(")")):
            raise SplittingParseError(f"expected [d1,d2,...], got {text!r}")
        entries = list(map(str.strip, trimmed[4:-1].split(",")))
        if len(entries) != 3 or entries[2] not in ("split", "nonsplit"):
            raise SplittingParseError(f"expected ext(sub,quot,split|nonsplit), got {text!r}")
        try:
            sub, quot = parse_int(entries[0]), parse_int(entries[1])
        except ValueError:
            raise SplittingParseError(
                f"expected integer degrees in ext(...), got {text!r}"
            ) from None
        return classify_extension(sub, quot, entries[2] == "nonsplit")
    body = trimmed[1:-1].strip()
    if not body:
        return SplittingType()
    tokens = list(map(str.strip, body.split(",")))
    if (
        "_" not in body
        and (body.isascii() or all(map(str.isascii, tokens)))
        and (
            len(body) <= _INT_DIGITS
            or max(map(len, map(str.lstrip, tokens, repeat("+-")))) <= _INT_DIGITS
        )
    ):
        try:
            return SplittingType(map(int, tokens))
        except ValueError:
            pass
    for token in tokens:
        try:
            parse_int(token)
        except ValueError:
            raise SplittingParseError(f"bad degree {token!r} in {text!r}") from None
    raise AssertionError(f"int() refused a degree parse_int reads in {text!r}")


def format_splitting(s: SplittingType) -> str:
    """Canonical text form; round-trips through parse_splitting when expanded.

    The expanded form repeats one ``"d,"`` string per pair.
    """
    if s.rank <= _FORMAT_EXPAND_LIMIT:
        return "[" + "".join([f"{d}," * r for d, r in s.pairs])[:-1] + "]"
    return "[" + ", ".join([f"{d} x {r}" for d, r in s.pairs]) + "]"
