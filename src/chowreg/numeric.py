"""Controlled-precision complex arithmetic with error radii.

All analytic evaluation in the package flows through :class:`ComplexApprox`,
a midpoint/radius ("ball") representation: an mpmath complex midpoint at the
current working precision plus a float upper bound on the distance to the
true value.  Radii propagate sub-additively through addition and by the
product rule through multiplication; a radius of 0 is reserved for exactly
representable values.

Precision is configured per call tree with :func:`workprec`, which wraps
``mpmath.mp.workprec`` and holds a precision to the supported range,
53-1024 bits: above it the float error radii underflow to 0.  The guard
bits that internal steps add above a supported precision use
``mpmath.mp.workprec`` directly.
"""

from __future__ import annotations

import math

import mpmath as mp

from .errors import PrecisionError

# Multiplicative slop applied to every propagated radius so that float
# rounding in the radius arithmetic itself stays on the safe side.
_SLOP = 1.0 + 2.0 ** -40


def workprec(bits):
    """Context manager setting the mpmath working precision in bits;
    PrecisionError outside the supported 53-1024 bits."""
    if not 53 <= bits <= 1024:
        raise PrecisionError("working precision must be >= 53 and <= 1024 "
                             f"bits, got {bits} bits")
    return mp.workprec(int(bits))


def kept(obj, key, build):
    """``obj._memo[key]``, made by ``build()`` on the first call only: the
    package's one get-or-build.  A build that raises keeps nothing."""
    if key not in obj._memo:
        obj._memo[key] = build()
    return obj._memo[key]


def ulp_radius(z):
    """Upper bound on the rounding error of one arithmetic op on z."""
    m = abs(z if type(z) is mp.mpc else mp.mpc(z))
    return (float(m) + 1e-300) * 2.0 ** (2 - mp.mp.prec)


def double_image(z):
    """z 2^(-mag z) as a Python complex, for an mpf or mpc z: a double that
    neither overflows nor underflows at any exponent of z, each part of it
    rounded once from the exact binary value; 0j for z = 0."""
    if not z:
        return 0j
    e = mp.mag(z)
    return complex(float(mp.ldexp(z.real, -e)), float(mp.ldexp(z.imag, -e)))


def pi_const(precision_bits=None):
    """pi at the working precision, radius one ulp."""
    if precision_bits is None:
        precision_bits = mp.mp.prec
    with workprec(precision_bits):
        v = +mp.pi
        return ComplexApprox(v, float(v) * 2.0 ** (1 - precision_bits))


class ComplexApprox:
    """A complex value with a rigorous error radius.

    Attributes
    ----------
    value : mpmath.mpc
        Midpoint, carried at the working precision.
    radius : float
        Bound on ``|value - true value|``; 0 only for exact values.
    """

    __slots__ = ("value", "radius")

    def __init__(self, value, radius=0.0):
        # an mpc is kept as it is: mp.mpc copies it without rounding
        self.value = value if type(value) is mp.mpc else mp.mpc(value)
        if radius < 0 or math.isnan(radius):
            raise ValueError(f"invalid error radius {radius}")
        self.radius = float(radius)

    def __repr__(self):
        return f"ComplexApprox({mp.nstr(self.value, 12)}, rad={self.radius:.3g})"

    def _coerce(self, other):
        if isinstance(other, ComplexApprox):
            return other
        return ComplexApprox(other, 0.0)

    def __add__(self, other):
        o = self._coerce(other)
        v = self.value + o.value
        rad = (self.radius + o.radius) * _SLOP
        if rad:
            rad += ulp_radius(v)
        elif not _dyadic_exact(self.value, o.value, v):
            rad = ulp_radius(v)
        return ComplexApprox(v, rad)

    __radd__ = __add__

    def __neg__(self):
        return ComplexApprox(-self.value, self.radius)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = float(abs(self.value)), float(abs(o.value))
        v = self.value * o.value
        rad = (a * o.radius + b * self.radius + self.radius * o.radius) * _SLOP
        if rad or not (self.radius == o.radius == 0.0):
            rad += ulp_radius(v)
        elif self.radius == o.radius == 0.0:
            # product of exact dyadics stays exact at full precision only if
            # no rounding occurred; detect by round trip
            if not _product_exact(self.value, o.value, v):
                rad = ulp_radius(v)
        return ComplexApprox(v, rad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        den = float(abs(o.value))
        if den <= o.radius:
            raise PrecisionError("division by a value whose ball contains zero")
        v = self.value / o.value
        num = float(abs(self.value))
        rad = ((self.radius + num * o.radius / den) / (den - o.radius)) * _SLOP
        rad += ulp_radius(v)
        return ComplexApprox(v, rad)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def abs_lower(self):
        return max(float(abs(self.value)) - self.radius, 0.0)

    def contains_zero(self):
        return float(abs(self.value)) <= self.radius

    def distance(self, other):
        o = self._coerce(other)
        return float(abs(self.value - o.value))

    def overlaps(self, other):
        o = self._coerce(other)
        return self.distance(o) <= self.radius + o.radius


def _dyadic_exact(a, b, s):
    # addition of exact dyadic values is exact iff it round-trips
    return (s - b) == a and (s - a) == b


def _product_exact(a, b, p):
    if a == 0 or b == 0:
        return True
    # cheap sufficient check: one factor is a power of two times a Gaussian unit
    for f in (a, b):
        if f in (1, -1, mp.mpc(0, 1), mp.mpc(0, -1)):
            return True
    return False
