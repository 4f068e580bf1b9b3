"""Exact arithmetic in cyclotomic fields Q(zeta_N) and their complex embedding.

Elements are residues modulo the N-th cyclotomic polynomial, stored as
phi(N) integer numerators over one positive denominator in lowest terms, so
the ring operations, equality and hashing run on Python ints; Phi_N is monic
with integer coefficients, so reduction modulo it stays integral.  The complex
embedding is fixed globally as zeta_N -> exp(2*pi*i/N); Galois-conjugate
embeddings would change regulator values, so the choice is part of the field
contract, not a knob.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .errors import ChowregError, PrecisionError
from .numeric import ComplexApprox

Rational = Fraction


def euler_phi(n):
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_int(num, den):
    """Exact division of integer polynomials (ascending coeffs), den monic-ish."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        if c % lead:
            raise ArithmeticError("non-exact integer polynomial division")
        c //= lead
        q[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num[len(den) - 1:]):
        raise ArithmeticError("non-exact integer polynomial division")
    return q


@lru_cache(maxsize=256)
def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n, ascending, computed by recursive division."""
    if n < 1:
        raise ValueError("cyclotomic_polynomial needs n >= 1")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]          # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce_mod_phi(work, n):
    """Reduce an integer coefficient list modulo the monic Phi_n (in place);
    returns the phi(n) coefficients as a tuple."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            for j in range(deg):
                work[k - deg + j] -= c * phi[j]
    return tuple(work[:deg]) + (0,) * (deg - len(work))


def _element(order, num, den):
    """The element sum_k num[k] zeta^k / den; (num, den) must be canonical."""
    x = object.__new__(CyclotomicNumber)
    x.order, x.num, x.den = order, num, den
    return x


def _canonical(order, num, den):
    """The element sum_k num[k] zeta^k / den for reduced integer ``num`` and
    nonzero ``den``, brought to den > 0 and gcd(den, *num) = 1."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return _element(order, num, den)


class CyclotomicNumber:
    """An element of Q(zeta_N) in the power basis 1, zeta, ..., zeta^(phi-1).

    It is stored as ``num``, phi(N) integer numerators, over one integer
    denominator ``den``, in canonical form: den > 0 and gcd(den, *num) = 1.
    Equality, hashing and the ring operations therefore run on ints only;
    ``coeffs`` gives the coefficients as reduced Fractions.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs):
        """``coeffs`` are ints or Fractions in the power basis of any length;
        powers of zeta from phi(N) on are reduced modulo Phi_N."""
        self.order = int(order)
        coeffs, den = tuple(coeffs), 1
        for c in coeffs:
            den = den * c.denominator // math.gcd(den, c.denominator)
        work = [c.numerator * (den // c.denominator) for c in coeffs]
        x = _canonical(self.order, _reduce_mod_phi(work, self.order), den)
        self.num, self.den = x.num, x.den

    @classmethod
    def from_rational(cls, q, order=1):
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        phi = len(cyclotomic_polynomial(order)) - 1
        return _element(order, (q.numerator,) + (0,) * (phi - 1), q.denominator)

    @classmethod
    def zero(cls, order=1):
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order=1):
        return cls.from_rational(1, order)

    @classmethod
    def zeta(cls, order):
        """The distinguished primitive root zeta_N (the basis element itself)."""
        return cls(order, (0, 1))

    @property
    def coeffs(self):
        """The power-basis coefficients as reduced Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ChowregError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and self.is_rational()

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            a, b = promote_pair(self, other) if self.order != other.order else (self, other)
            return a.num == b.num and a.den == b.den
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def _require_same_order(self, other):
        if not isinstance(other, CyclotomicNumber):
            if not isinstance(other, (int, Fraction)):
                raise TypeError(f"cannot combine CyclotomicNumber with {type(other)!r}")
            other = CyclotomicNumber.from_rational(other, self.order)
        if other.order != self.order:
            raise ChowregError(
                f"mismatched cyclotomic orders {self.order} and {other.order}; "
                "promote to a common order first"
            )
        return other

    def __add__(self, other):
        o = self._require_same_order(other)
        d, e = self.den, o.den
        if d == e:
            return _canonical(self.order, tuple(a + b for a, b in zip(self.num, o.num)), d)
        return _canonical(self.order,
                          tuple(a * e + b * d for a, b in zip(self.num, o.num)), d * e)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.order, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self + (-self._require_same_order(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._require_same_order(other)
        b = o.num
        prod = [0] * (2 * len(b) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _canonical(self.order, _reduce_mod_phi(prod, self.order), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: the product c of the other Galois
        conjugates over the norm x * c, which is rational."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_N)")
        n = self.order
        if self.is_rational():
            return _canonical(n, (self.den,) + self.num[1:], self.num[0])
        c = CyclotomicNumber.one(n)
        for j in range(2, n):
            if math.gcd(j, n) == 1:
                c = c * self.galois(j)
        norm = self * c
        return _canonical(n, tuple(a * norm.den for a in c.num), c.den * norm.num[0])

    def __truediv__(self, other):
        o = self._require_same_order(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._require_same_order(other) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = CyclotomicNumber.one(self.order)
        base, n = self, k
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def galois(self, j):
        """Apply the automorphism zeta -> zeta^j, gcd(j, N) = 1."""
        n = self.order
        if math.gcd(j, n) != 1:
            raise ChowregError(f"zeta -> zeta^{j} is not an automorphism of Q(zeta_{n})")
        work = [0] * n
        for k, c in enumerate(self.num):
            work[k * j % n] += c
        return _canonical(n, _reduce_mod_phi(work, n), self.den)

    def conjugate(self):
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    def promote(self, new_order):
        """Re-express in Q(zeta_M) for N | M via zeta_N = zeta_M^(M/N)."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ChowregError(f"cannot promote order {self.order} to non-multiple {new_order}")
        step = new_order // self.order
        work = [0] * ((len(self.num) - 1) * step + 1)
        for k, c in enumerate(self.num):
            work[k * step] = c
        return _canonical(new_order, _reduce_mod_phi(work, new_order), self.den)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*zeta" if c != 1 else "zeta")
            else:
                parts.append(f"{c}*zeta^{k}" if c != 1 else f"zeta^{k}")
        return " + ".join(parts)

    __repr__ = __str__


def promote_pair(a, b):
    """Promote two cyclotomic numbers to their lcm order."""
    m = a.order * b.order // math.gcd(a.order, b.order)
    return a.promote(m), b.promote(m)


def cyclo_arith(a, b, op):
    """Field arithmetic dispatch with explicit order and zero-divisor errors."""
    ops = {
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "mul": lambda x, y: x * y,
        "div": lambda x, y: x / y,
    }
    if op not in ops:
        raise ChowregError(f"unknown field operation {op!r}")
    if a.order != b.order:
        raise ChowregError(
            f"mismatched cyclotomic orders {a.order} and {b.order}; use promote_pair"
        )
    if op == "div" and b.is_zero():
        raise ZeroDivisionError("division by zero in Q(zeta_N)")
    return ops[op](a, b)


def _fraction_exact_mpf(q, prec):
    """Return (mpf, True) when q is exactly representable at prec bits."""
    den = q.denominator
    if den & (den - 1) == 0 and abs(q.numerator).bit_length() <= prec:
        return mp.mpf(q.numerator) / mp.mpf(den), True
    return mp.mpf(q.numerator) / mp.mpf(den), False


def embed(a, precision_bits=None):
    """Numerically embed via zeta_N -> exp(2*pi*i/N).

    The result is a :class:`ComplexApprox` whose radius bounds the combined
    rounding error of the Horner evaluation; exactly representable values
    (dyadic rationals, Gaussian dyadics for N | 4) get radius 0.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if precision_bits < 53:
        raise PrecisionError("embedding precision must be >= 53 bits")
    n = a.order
    with mp.workprec(precision_bits):
        if a.is_rational():
            v, ok = _fraction_exact_mpf(a.coeffs[0], precision_bits)
            if ok:
                return ComplexApprox(mp.mpc(v), 0.0)
        if n % 4 == 0 and n <= 4 and len(a.coeffs) == 2:
            re, ok_re = _fraction_exact_mpf(a.coeffs[0], precision_bits)
            im, ok_im = _fraction_exact_mpf(a.coeffs[1], precision_bits)
            if ok_re and ok_im:
                return ComplexApprox(mp.mpc(re, im), 0.0)
    guard = 40
    with mp.workprec(precision_bits + guard):
        zeta = mp.e ** (2j * mp.pi / n)
        acc = mp.mpc(0)
        size = mp.mpf(0)
        for c in reversed(a.coeffs):
            cv = mp.mpf(c.numerator) / mp.mpf(c.denominator)
            acc = acc * zeta + cv
            size += abs(cv)
    with mp.workprec(precision_bits):
        value = +acc
    n_ops = 3 * len(a.coeffs) + 6
    radius = n_ops * (float(size) + 1e-300) * 2.0 ** (-(precision_bits + guard // 2))
    radius += (float(abs(value)) + 1e-300) * 2.0 ** (1 - precision_bits)
    return ComplexApprox(value, radius)
