"""Picard lattice of the Hirzebruch surface F_e.

F_e is the ruled surface P(O + O(-e)) over P^1.  Its Picard group is free
of rank 2; we fix the basis C, F where C is the section with C.C = -e and
F is the class of a fiber of the ruling.  A divisor class is the exact
integer pair (a, b) standing for a*C + b*F, and the intersection form is
determined by

    C.C = -e,   C.F = 1,   F.F = 0.

The positivity cones of F_e are rational polyhedral in this basis:

    nef:    a >= 0 and b >= e*a     (dual to the Mori cone spanned by C, F)
    ample:  a > 0  and b > e*a      (interior of the nef cone)
    psef:   a >= 0 and b >= 0       (effective cone, spanned by C and F)
    big:    a > 0  and b > 0        (interior of the effective cone)

Everything here is pure integer arithmetic on immutable values.
"""

from __future__ import annotations

import re


class ClassParseError(ValueError):
    """A divisor-class string does not match the ``[n]C±[m]F`` grammar."""


class Value:
    """Base of the immutable value classes: equal, hashed and shown by slots.

    A plain ``__slots__`` class, not a tuple or a dataclass, so importing the
    value classes does not load dataclasses (and inspect) at every CLI start.
    Each subclass names its fields in ``__slots__`` and sets them in
    ``__init__`` through ``object.__setattr__``, or, in ``DivisorClass``,
    ``SurfaceContext`` and ``SplittingType``, through the cheaper setter of
    the slot itself.  ``__reduce__`` rebuilds an instance through
    ``__init__`` (``SplittingType`` through ``from_pairs``), since copy and
    pickle would set the slots directly.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class DivisorClass(Value):
    """An integral class ``a*C + b*F`` in Pic(F_e)."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        _set_a(self, a)
        _set_b(self, b)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, -self.b)

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass(self.a * n, self.b * n)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_class(self)


# The slots' own setters skip the name lookup of object.__setattr__, which
# took about half the time of building a class: every parsed, summed or
# scaled class is built here.
_set_a, _set_b = DivisorClass.a.__set__, DivisorClass.b.__set__

#: The section class (self-intersection -e) and the fiber class.
C = DivisorClass(1, 0)
F = DivisorClass(0, 1)
ZERO = DivisorClass(0, 0)


class SurfaceContext(Value):
    """The Hirzebruch surface F_e: the twist e plus everything derived from it."""

    __slots__ = ("e",)

    def __init__(self, e: int = 2) -> None:
        if e < 0:
            raise ValueError(f"Hirzebruch twist must be nonnegative, got e={e}")
        _set_e(self, e)

    @property
    def canonical_class(self) -> DivisorClass:
        return DivisorClass(-2, -(self.e + 2))

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> int:
        """Symmetric bilinear intersection pairing of two classes."""
        return -self.e * d1.a * d2.a + d1.a * d2.b + d2.a * d1.b

    def is_nef(self, d: DivisorClass) -> bool:
        return d.a >= 0 and d.b >= self.e * d.a

    def is_ample(self, d: DivisorClass) -> bool:
        # On a Hirzebruch surface ample and very ample coincide.
        return d.a > 0 and d.b > self.e * d.a

    def is_psef(self, d: DivisorClass) -> bool:
        return d.a >= 0 and d.b >= 0

    def is_big(self, d: DivisorClass) -> bool:
        return d.a > 0 and d.b > 0


_set_e = SurfaceContext.e.__set__  # as _set_a above


#: Every integer of every input grammar: an optional sign, then ASCII
#: digits.  ``int`` alone would also take "1_0", digits of other scripts
#: and surrounding whitespace.
_INT_RE = re.compile(r"[+-]?[0-9]+")

#: The most digits an integer of any input grammar may have: Python's
#: default bound on converting between int and str, kept here so that what
#: the grammar accepts does not depend on PYTHONINTMAXSTRDIGITS.  ``cli.main``
#: sets the interpreter's own limit to it, so what it prints does not either.
_INT_DIGITS = 4300

_TERM_RE = re.compile(r"([+-]?)([0-9]*)([CF])")


def parse_int(text: str) -> int:
    """The integer ``text`` spells as ``[+-]?[0-9]+``; anything else raises ValueError.

    More than ``_INT_DIGITS`` digits are refused, whatever the interpreter's
    own limit.
    """
    if _INT_RE.fullmatch(text) is None:
        raise ValueError(f"expected an integer, got {text!r}")
    if len(text) > _INT_DIGITS and len(text.lstrip("+-")) > _INT_DIGITS:
        raise ValueError(f"integer has more than {_INT_DIGITS} digits")
    return int(text)


def parse_class(text: str) -> DivisorClass:
    """Parse ``[n]C±[m]F`` (each term optional, at most once) into a class.

    Whitespace is ignored.  Terms after the first must carry an explicit
    sign, and repeating a generator is an error, so the map from accepted
    strings to classes is unambiguous.
    """
    compact = "".join(text.split())
    if not compact:
        raise ClassParseError("empty divisor-class string")
    coeffs: dict[str, int] = {}
    pos = 0
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if m is None:
            raise ClassParseError(
                f"unexpected token {compact[pos:]!r} at position {pos} in {text!r}"
            )
        sign, digits, gen = m.groups()
        if pos and not sign:
            raise ClassParseError(
                f"missing '+' or '-' before term {m.group(0)!r} in {text!r}"
            )
        if gen in coeffs:
            raise ClassParseError(f"repeated {gen} term {m.group(0)!r} in {text!r}")
        if len(digits) > _INT_DIGITS:
            raise ClassParseError(f"{gen} coefficient has more than {_INT_DIGITS} digits")
        coeffs[gen] = int(sign + digits) if digits else (-1 if sign == "-" else 1)
        pos = m.end()
    return DivisorClass(coeffs.get("C", 0), coeffs.get("F", 0))


def format_class(d: DivisorClass) -> str:
    """Canonical text form; ``parse_class(format_class(d)) == d``."""
    if d.a == 0 and d.b == 0:
        return "0C+0F"
    parts: list[str] = []
    for coeff, gen in ((d.a, "C"), (d.b, "F")):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        parts.append(f"{sign}{'' if mag == 1 else mag}{gen}")
    return "".join(parts)
