"""Exact field elements over the rationals and the Gaussian rationals.

A rational, over either field, is a bare ``Rat``: ``gmpy2.mpq`` when gmpy2
is importable, ``fractions.Fraction`` otherwise.  A Gaussian rational with a
nonzero imaginary part is a ``Scalar``, a slotted (re, im) pair of Rats.  Every
operation returns the canonical form: a result whose imaginary part is zero
is a bare Rat, so equal elements are equal, hash alike and sort alike without
special cases.

Elements carry no field.  The field is a ``FieldTag`` held once by each
object built from elements (an algebra, a matrix, a subspace, a fusion law);
it supplies only the membership check, which runs when such an object is
built rather than on every operation.  Zero and one are ``ZERO`` and ``ONE``
in both fields, an inverse is ``ONE / x``, and parsing, rendering and the
canonical order are ``parse_scalar(text, tag)``, ``render_scalar`` and
``sort_key``.
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

ZERO = Rat(0)
ONE = Rat(1)


class FieldTag(enum.Enum):
    """The base field, ℚ or ℚ(i), of the objects that hold it."""

    QQ = "rationals"
    QI = "gaussian-rationals"

    def __repr__(self):
        return f"FieldTag.{self.name}"

    def check(self, x):
        """x itself when it is an element of this field in canonical form,
        else FieldMismatchError."""
        t = type(x)
        if t is Rat or (t is Scalar and self is FieldTag.QI
                        and type(x.re) is Rat and type(x.im) is Rat and x.im):
            return x
        raise FieldMismatchError(
            f"{x!r} ({t.__name__}) is not an element of the {self.value}")


class Scalar:
    """A Gaussian rational re + im*i with im != 0.

    Construct with ``Scalar(re, im)``, which returns a bare Rat when im is
    zero, or with ``Scalar.rational`` and ``Scalar.i``; the arithmetic takes
    Rats and pairs on either side.  The field's zero and one are the Rats
    ``ZERO`` and ``ONE``.
    """

    __slots__ = ("re", "im")
    tag = FieldTag.QI

    def __new__(cls, re, im=0):
        re, im = Rat(re), Rat(im)
        return _pair(re, im) if im else re

    @staticmethod
    def rational(num, den=1):
        return Rat(num, den)

    @staticmethod
    def i():
        return _pair(ZERO, ONE)

    def __add__(self, other):
        if type(other) is Scalar:
            im = self.im + other.im
            return _pair(self.re + other.re, im) if im else self.re + other.re
        return _pair(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Scalar:
            im = self.im - other.im
            return _pair(self.re - other.re, im) if im else self.re - other.re
        return _pair(self.re - other, self.im)

    def __rsub__(self, other):
        return _pair(other - self.re, -self.im)

    def __neg__(self):
        return _pair(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is Scalar:
            a, b, c, d = self.re, self.im, other.re, other.im
            im = a * d + b * c
            return _pair(a * c - b * d, im) if im else a * c - b * d
        if not other:  # the zero of other's kind: an integer 0 keeps a kernel integral
            return other
        return _pair(self.re * other, self.im * other)

    __rmul__ = __mul__

    def inverse(self):
        nrm = self.re * self.re + self.im * self.im
        return _pair(self.re / nrm, -self.im / nrm)

    def __truediv__(self, other):
        if type(other) is Scalar:
            return self * other.inverse()
        return _pair(self.re / other, self.im / other)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def conjugate(self):
        return _pair(self.re, -self.im)

    # numerator / denominator as for a Rat: the numerator is a Gaussian
    # integer, a Scalar with integer parts, which only the kernels hold

    @property
    def denominator(self):
        return math.lcm(self.re.denominator, self.im.denominator)

    @property
    def numerator(self):
        re, im, d = self.re, self.im, self.denominator
        return _pair(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator))

    def __floordiv__(self, other):
        """A Gaussian integer divided by an integer that divides both parts."""
        return _pair(self.re // other, self.im // other)

    def __bool__(self):
        return True  # the imaginary part is nonzero

    def __eq__(self, other):
        if type(other) is not Scalar:
            return NotImplemented  # a rational is never equal to a pair
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({render_scalar(self)!r})"

    def __str__(self):
        return render_scalar(self)


_new = object.__new__


def _pair(re, im):
    """The pair re + im*i for Rats re and im != 0, unchecked."""
    g = _new(Scalar)
    g.re = re
    g.im = im
    return g


def over(num, den):
    """The canonical element num / den for an integer or Gaussian-integer
    numerator num and a positive integer den."""
    if type(num) is Scalar:
        return _pair(Rat(num.re, den), Rat(num.im, den))
    return Rat(num, den)


def clear_denominators(v):
    """(nums, den) for a sparse vector {k: element}: den is the lcm of its
    denominators and v[k] == nums[k] / den, nums[k] an integer or a Gaussian
    integer.  The kernels of algebra, spectral and linalg run on such
    integer vectors and build an element, by over, only for each entry they
    return."""
    den = 1
    for a in v.values():
        d = a.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return {k: a.numerator for k, a in v.items()}, 1
    return {k: a.numerator * (den // a.denominator) for k, a in v.items()}, den


def common_denominator(vectors):
    """(nums, den): the sparse vectors as a tuple of integer vectors over one
    common denominator den, vectors[t][k] == nums[t][k] / den."""
    cleared = [clear_denominators(v) for v in vectors]
    den = math.lcm(1, *(d for _, d in cleared))
    return tuple(nums if d == den else {k: a * (den // d) for k, a in nums.items()}
                 for nums, d in cleared), den


def sort_key(s):
    """Deterministic total order on field elements (for canonical output):
    by real part, then imaginary part."""
    if type(s) is Scalar:
        return (s.re, s.im)
    return (s, ZERO)


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
    """Parse 'a', 'a/b', 'a+b/ci', 'a-bi', 'bi' into a canonical element.

    parse_scalar(render_scalar(x), tag) == x for every x of the field tag.
    """
    if not isinstance(text, str):
        raise ScalarParseError(f"expected string, got {type(text).__name__}")
    m = _SCALAR_RE.match(text)
    if m:
        re_part = _rat(m.group("re"), text)
        im_part = ZERO
        if m.group("im") is not None:
            im_part = _rat(m.group("im"), text) if m.group("im") else ONE
            if m.group("sign") == "-":
                im_part = -im_part
    else:
        m = _PURE_IM_RE.match(text)
        if not m:
            raise ScalarParseError(f"malformed scalar literal: {text!r}")
        re_part = ZERO
        raw = m.group("im")
        if raw in ("", None):
            im_part = ONE
        elif raw == "-":
            im_part = -ONE
        else:
            im_part = _rat(raw, text)
    if not im_part:
        return re_part
    if tag is not FieldTag.QI:
        raise ScalarParseError(f"imaginary literal {text!r} in a plain-rational context")
    return _pair(re_part, im_part)


def render_scalar(s):
    """Canonical text form; lowest terms, '/1' omitted, 'i' suffix for the imaginary part."""
    if type(s) is not Scalar:
        return str(s)
    im = "" if s.im == 1 else ("-" if s.im == -1 else str(s.im))
    if s.re == 0:
        return f"{im}i"
    if s.im < 0:
        return f"{s.re}-{str(-s.im) if s.im != -1 else ''}i"
    return f"{s.re}+{im}i"

