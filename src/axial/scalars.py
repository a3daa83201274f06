"""Exact scalars over the rationals and the Gaussian rationals.

Every scalar is a pair of exact rationals (real and imaginary part) together
with a field tag.  Plain-rational scalars must have zero imaginary part.
Arithmetic between scalars with different tags raises FieldMismatchError.

Rationals are gmpy2.mpq when gmpy2 is importable, fractions.Fraction
otherwise; both are arbitrary precision and expose numerator/denominator.
"""

from __future__ import annotations

import enum
import math
import re

from .errors import FieldMismatchError, ScalarParseError

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - fallback when gmpy2 is absent
    from fractions import Fraction as Rat

_RAT_ZERO = Rat(0)
_RAT_ONE = Rat(1)


class FieldTag(enum.Enum):
    QQ = "rationals"
    QI = "gaussian-rationals"

    def __repr__(self):
        return f"FieldTag.{self.name}"


class Scalar:
    """Immutable exact scalar: re + im*i over the field named by tag."""

    __slots__ = ("re", "im", "tag")

    def __init__(self, re, im=0, tag=FieldTag.QQ):
        re = Rat(re)
        im = Rat(im)
        if tag is FieldTag.QQ and im != 0:
            raise FieldMismatchError("nonzero imaginary part in a plain-rational scalar")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "tag", tag)

    # fast internal constructor: skips Rat() coercion and the QQ check
    @classmethod
    def _make(cls, re, im, tag):
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "tag", tag)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @classmethod
    def zero(cls, tag):
        return cls._make(_RAT_ZERO, _RAT_ZERO, tag)

    @classmethod
    def one(cls, tag):
        return cls._make(_RAT_ONE, _RAT_ZERO, tag)

    @classmethod
    def i(cls, tag=FieldTag.QI):
        if tag is not FieldTag.QI:
            raise FieldMismatchError("imaginary unit requires the Gaussian rationals")
        return cls._make(_RAT_ZERO, _RAT_ONE, tag)

    @classmethod
    def rational(cls, num, den=1, tag=FieldTag.QQ):
        return cls._make(Rat(num, den), _RAT_ZERO, tag)

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.tag is not other.tag:
            raise FieldMismatchError(f"mixed fields: {self.tag.value} vs {other.tag.value}")

    def __add__(self, other):
        self._check(other)
        return Scalar._make(self.re + other.re, self.im + other.im, self.tag)

    def __sub__(self, other):
        self._check(other)
        return Scalar._make(self.re - other.re, self.im - other.im, self.tag)

    def __neg__(self):
        return Scalar._make(-self.re, -self.im, self.tag)

    def __mul__(self, other):
        self._check(other)
        if self.im == 0 and other.im == 0:
            return Scalar._make(self.re * other.re, _RAT_ZERO, self.tag)
        return Scalar._make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.tag,
        )

    def inverse(self):
        if self.im == 0:
            if self.re == 0:
                raise ZeroDivisionError("scalar inverse of zero")
            return Scalar._make(1 / Rat(self.re), _RAT_ZERO, self.tag)
        nrm = self.re * self.re + self.im * self.im
        return Scalar._make(self.re / nrm, -self.im / nrm, self.tag)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def conjugate(self):
        return Scalar._make(self.re, -self.im, self.tag)

    def is_zero(self):
        return not (self.re or self.im)

    def is_one(self):
        return self.re == 1 and self.im == 0

    def is_rational(self):
        return self.im == 0

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.tag is other.tag and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im, self.tag))

    def __repr__(self):
        return f"Scalar({render_scalar(self)!r}, {self.tag.name})"

    def __str__(self):
        return render_scalar(self)


def sort_key(s):
    """Deterministic total order on scalars of one field (for canonical output)."""
    return (s.re, s.im)


_RAT_RE = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^\s*(?P<re>{_RAT_RE})\s*(?:(?P<sign>[+-])\s*(?P<im>(?:\d+(?:/\d+)?)?)\s*i)?\s*$"
)
_PURE_IM_RE = re.compile(rf"^\s*(?P<im>(?:{_RAT_RE})?|-)\s*i\s*$")


def _rat(part, text):
    try:
        return Rat(part)
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in scalar literal: {text!r}") from None


def parse_scalar(text, tag=FieldTag.QQ):
    """Parse 'a', 'a/b', 'a+b/ci', 'a-bi', 'bi' into a canonical Scalar.

    parse_scalar(render_scalar(x), x.tag) == x for all x.
    """
    if not isinstance(text, str):
        raise ScalarParseError(f"expected string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text)
    if m:
        re_part = _rat(m.group("re"), text)
        im_part = _RAT_ZERO
        if m.group("im") is not None:
            im_part = _rat(m.group("im"), text) if m.group("im") else _RAT_ONE
            if m.group("sign") == "-":
                im_part = -im_part
    else:
        m = _PURE_IM_RE.match(text)
        if not m:
            raise ScalarParseError(f"malformed scalar literal: {text!r}")
        re_part = _RAT_ZERO
        raw = m.group("im")
        if raw in ("", None):
            im_part = _RAT_ONE
        elif raw == "-":
            im_part = -_RAT_ONE
        else:
            im_part = _rat(raw, text)
    if im_part != 0 and tag is not FieldTag.QI:
        raise ScalarParseError(f"imaginary literal {text!r} in a plain-rational context")
    return Scalar._make(re_part, im_part, tag)


def render_scalar(s):
    """Canonical text form; lowest terms, '/1' omitted, 'i' suffix for the imaginary part."""
    if s.im == 0:
        return str(s.re)
    im = "" if s.im == 1 else ("-" if s.im == -1 else str(s.im))
    if s.re == 0:
        return f"{im}i"
    if s.im < 0:
        return f"{s.re}-{str(-s.im) if s.im != -1 else ''}i"
    return f"{s.re}+{im}i"


def _rat_sqrt(x):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(int(num)), math.isqrt(int(den))
    if rn * rn != num or rd * rd != den:
        return None
    return Rat(rn, rd)


def scalar_sqrt(s):
    """A square root of s inside its own field, or None.

    Over QQ only perfect squares have roots.  Over QI, s = a+bi has a root
    c+di exactly when sqrt(a^2+b^2) is rational and the resulting c^2, d^2
    are perfect rational squares.
    """
    if s.is_zero():
        return Scalar.zero(s.tag)
    if s.im == 0:
        r = _rat_sqrt(s.re)
        if r is not None:
            return Scalar._make(r, _RAT_ZERO, s.tag)
        if s.tag is FieldTag.QI:
            r = _rat_sqrt(-s.re)
            if r is not None:
                return Scalar._make(_RAT_ZERO, r, s.tag)
        return None
    # s.im != 0, so tag is QI.  Want (c+di)^2 = a+bi.
    nrm = _rat_sqrt(s.re * s.re + s.im * s.im)
    if nrm is None:
        return None
    c2 = (nrm + s.re) / 2
    c = _rat_sqrt(c2)
    if c is None or c == 0:
        return None
    d = s.im / (2 * c)
    return Scalar._make(c, d, s.tag)
