"""Exact scalars: rationals, Gaussian rationals and quaternions.

A quaternion is stored in the split normal form ``z1 + j*z2`` with
complex rational components ``z1, z2``.  Since ``j*a == conj(a)*j`` for
complex ``a``, the product of two quaternions in this form is

    (z1 + j*z2)(w1 + j*w2) = (z1*w1 - conj(z2)*w2) + j*(conj(z1)*w2 + z2*w1)

and every operation below is evaluated exactly with that rule.  No
floating point appears anywhere in the package.

Values are immutable by contract: operations return fresh objects and
instances are hashable.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import MalformedInputError


def as_fraction(value) -> Fraction:
    """Coerce an int, a ``p/q`` string or a Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def integral(value):
    """``value`` as an ``int`` when its denominator is 1, else unchanged."""
    return value.numerator if value.denominator == 1 else value


def format_rational(value) -> str:
    """Serialize as ``p/q``, with ``/q`` omitted when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_PLAIN_INT = re.compile(r"-?[0-9]+")


def parse_rational(text: str):
    """Inverse of :func:`format_rational`; round-trips bit-exactly.

    Integral values come back as ``int``, the rest as ``Fraction``.  A
    plain ASCII integer string, the bulk of an artifact, goes straight to
    ``int``; every other string is validated through ``Fraction``.
    """
    try:
        if isinstance(text, str) and _PLAIN_INT.fullmatch(text):
            return int(text)  # ValueError past the interpreter's digit limit
        return integral(Fraction(text.strip()))
    except (AttributeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"not a rational string: {text!r}") from exc


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __eq__(self, other):
        return (
            isinstance(other, GaussianRational)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        other = as_fraction(other)
        return GaussianRational(self.re * other, self.im * other)

    __rmul__ = __mul__

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


class Quaternion:
    """Quaternion in ``z1 + j*z2`` normal form over the Gaussian rationals.

    The four real coordinates (re z1, im z1, re z2, im z2) determine the
    element; ``1, i, j, k`` correspond to (1,0,0,0), (0,1,0,0), (0,0,1,0)
    and (0,0,0,-1) respectively, because ``k = i*j = j*(-i)``.
    """

    __slots__ = ("z1", "z2")

    def __init__(self, z1: GaussianRational = GR_ZERO, z2: GaussianRational = GR_ZERO):
        self.z1 = z1
        self.z2 = z2

    @classmethod
    def from_coords(cls, a, b, c, d) -> "Quaternion":
        """Build from the four real coordinates (re z1, im z1, re z2, im z2)."""
        return cls(GaussianRational(a, b), GaussianRational(c, d))

    def to_coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.z1.re, self.z1.im, self.z2.re, self.z2.im)

    def __repr__(self):
        return f"Quaternion({self.z1!r} + j*{self.z2!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Quaternion)
            and self.z1 == other.z1
            and self.z2 == other.z2
        )

    def __hash__(self):
        return hash((self.z1, self.z2))

    def __add__(self, other):
        return Quaternion(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other):
        return Quaternion(self.z1 - other.z1, self.z2 - other.z2)

    def __neg__(self):
        return Quaternion(-self.z1, -self.z2)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        if isinstance(other, GaussianRational):
            return quat_mul(self, Quaternion(other, GR_ZERO))
        other = as_fraction(other)
        return Quaternion(self.z1 * other, self.z2 * other)

    def scale(self, value: Fraction) -> "Quaternion":
        return Quaternion(self.z1 * value, self.z2 * value)

    def conj(self) -> "Quaternion":
        """Quaternionic conjugation (negates the i, j, k parts)."""
        return Quaternion(self.z1.conj(), -self.z2)

    def is_zero(self) -> bool:
        return self.z1.is_zero() and self.z2.is_zero()

    @property
    def real(self) -> Fraction:
        return self.z1.re


def quat_mul(x: Quaternion, y: Quaternion) -> Quaternion:
    """Exact quaternion product in ``z1 + j*z2`` form; of two complex
    quaternions (both z2 zero) only ``z1*w1`` is computed."""
    if x.z2.is_zero() and y.z2.is_zero():
        return Quaternion(x.z1 * y.z1, GR_ZERO)
    return Quaternion(
        x.z1 * y.z1 - x.z2.conj() * y.z2,
        x.z1.conj() * y.z2 + x.z2 * y.z1,
    )


def quat_J(x: Quaternion) -> Quaternion:
    """Left multiplication by j: ``z1 + j*z2 -> -z2 + j*z1``."""
    return Quaternion(-x.z2, x.z1)


Q_ZERO = Quaternion(GR_ZERO, GR_ZERO)
Q_ONE = Quaternion(GR_ONE, GR_ZERO)
Q_I = Quaternion(GR_I, GR_ZERO)
Q_J = Quaternion(GR_ZERO, GR_ONE)
Q_K = Quaternion(GR_ZERO, GaussianRational(0, -1))
