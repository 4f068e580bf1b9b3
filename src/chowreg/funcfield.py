"""Univariate polynomial and rational-function algebra over Q(zeta_N).

Rational functions are kept in canonical form (coprime numerator and
denominator, monic denominator), so equality is structural and 0/0 can never
survive evaluation.  Divisors on P^1 carry exact locations whenever a root
lies in the coefficient field (found by reconstruct-and-verify), and refined
complex clusters otherwise; every numeric cluster remembers the exact
squarefree factor it came from, which lets downstream code decide incidence
questions (is some other coordinate 0, 1 or oo here?) by exact gcds instead
of numerics.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import mpmath as mp

from .errors import ChowregError, ConvergenceError
from .field import CyclotomicNumber, embed
from .numeric import ComplexApprox, kept, workprec


class _Infinity:
    """The point at infinity on P^1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


class Poly:
    """Polynomial over Q(zeta_N), ascending coefficients, trimmed."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_rationals(cls, order, values):
        return cls(order, [CyclotomicNumber.from_rational(Fraction(v), order) for v in values])

    @classmethod
    def constant(cls, value):
        return cls(value.order, [value])

    @classmethod
    def zero(cls, order):
        return cls(order, [])

    @classmethod
    def one(cls, order):
        return cls(order, [CyclotomicNumber.one(order)])

    @classmethod
    def x(cls, order):
        return cls(order, [CyclotomicNumber.zero(order), CyclotomicNumber.one(order)])

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def lead(self):
        if self.is_zero():
            raise ChowregError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        zero = CyclotomicNumber.zero(self.order)
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Poly(self.order, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            return Poly(self.order, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.order)
        out = [CyclotomicNumber.zero(self.order)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return Poly(self.order, out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.order), self
        quot = [CyclotomicNumber.zero(self.order)] * (dq + 1)
        inv_lead = other.lead().inverse()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quot[k] = c
            if not c.is_zero():
                for j, d in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * d
        return Poly(self.order, quot), Poly(self.order, rem[: max(other.degree, 0)])

    def __floordiv__(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ChowregError("non-exact polynomial division")
        return q

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.lead().inverse()
        return Poly(self.order, [c * inv for c in self.coeffs])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        if self.degree < 1:
            return Poly.zero(self.order)
        return Poly(
            self.order,
            [c * CyclotomicNumber.from_rational(k, self.order)
             for k, c in enumerate(self.coeffs)][1:],
        )

    def eval_exact(self, a):
        acc = CyclotomicNumber.zero(self.order)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def deflate(self, a):
        """Exact division by (x - a); the caller guarantees a is a root."""
        n = len(self.coeffs)
        out = [CyclotomicNumber.zero(self.order)] * (n - 1)
        acc = CyclotomicNumber.zero(self.order)
        for k in range(n - 1, 0, -1):
            acc = acc * a + self.coeffs[k]
            out[k - 1] = acc
        if not (acc * a + self.coeffs[0]).is_zero():
            raise ChowregError("deflation at a non-root")
        return Poly(self.order, out)

    def squarefree_decomposition(self):
        """[(g, m)] with self = lc * prod g^m, g monic squarefree, pairwise coprime."""
        if self.degree < 1:
            return []
        c = self.gcd(self.derivative())
        w = (self // c).monic()
        out = []
        m = 1
        while w.degree > 0:
            y = w.gcd(c)
            fac = w // y
            if fac.degree > 0:
                out.append((fac.monic(), m))
            w, c = y, c // y
            m += 1
        return out

    def __str__(self):
        return poly_to_expr(self)

    __repr__ = __str__


def mpf_to_fraction(x):
    sign, man, exp, _ = mp.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(-man if sign else man)
    return v * Fraction(2) ** exp


def reconstruct_in_field(z, order, max_den=10 ** 6):
    """Candidate exact field elements near a complex value.

    Tries, in order: a rational, a rational multiple of a power of zeta, and
    a Gaussian rational (when 4 | N).  Results are only candidates; callers
    must verify exactly.
    """
    candidates = []
    z = mp.mpc(z)
    scale = max(1.0, float(abs(z)))
    near_tol = scale * 2.0 ** (-mp.mp.prec // 3)

    def near_real_fraction(w):
        if abs(w.imag) > near_tol:
            return None
        q = mpf_to_fraction(w.real).limit_denominator(max_den)
        if abs(w.real - mp.mpf(q.numerator) / q.denominator) > near_tol:
            return None
        return q

    q = near_real_fraction(z)
    if q is not None:
        candidates.append(CyclotomicNumber.from_rational(q, order))
    if order > 2:
        zeta_val = mp.e ** (2j * mp.pi / order)
        zpow = mp.mpc(1)
        for j in range(1, order):
            zpow *= zeta_val
            q = near_real_fraction(z / zpow)
            if q is not None and q != 0:
                candidates.append(
                    CyclotomicNumber.from_rational(q, order) * CyclotomicNumber.zeta(order) ** j
                )
    if order % 4 == 0:
        qr = near_real_fraction(mp.mpc(z.real))
        qi = near_real_fraction(mp.mpc(z.imag))
        if qr is not None and qi is not None and qi != 0:
            i_unit = CyclotomicNumber.zeta(order) ** (order // 4)
            candidates.append(
                CyclotomicNumber.from_rational(qr, order)
                + CyclotomicNumber.from_rational(qi, order) * i_unit
            )
    return candidates


def _roots_with_factors(p, precision_bits):
    """Roots as (ball, multiplicity, squarefree factor) triples."""
    if p.is_zero():
        raise ChowregError("roots of the zero polynomial")
    out = []
    with workprec(precision_bits):
        for fac, mult in p.squarefree_decomposition():
            coeffs = [embed(c, precision_bits + 32).value for c in reversed(fac.coeffs)]
            try:
                roots, err = mp.polyroots(
                    coeffs, maxsteps=200, extraprec=precision_bits // 2 + 40, error=True
                )
            except (mp.libmp.NoConvergence, ZeroDivisionError) as exc:
                raise ConvergenceError(
                    f"root refinement failed at {precision_bits} bits for degree "
                    f"{fac.degree}: {exc}"
                ) from exc
            radius = max(float(err) * 4.0, 2.0 ** (4 - precision_bits))
            for r in roots:
                out.append((ComplexApprox(mp.mpc(r), radius), mult, fac))
    return out


def roots_numeric(p, precision_bits=None):
    """All complex roots with certified radii; multiplicities from exact
    squarefree decomposition."""
    if precision_bits is None:
        precision_bits = mp.mp.prec
    return [(ball, mult) for ball, mult, _ in _roots_with_factors(p, precision_bits)]


# precision of the numeric root pass that proposes ``linear_factors``'
# candidates; every candidate is then verified exactly
_PROBE_BITS = 128


def linear_factors(p):
    """Extract verified roots of p lying in Q(zeta_N).

    Returns ([(root, multiplicity)], remaining_poly).  Candidates come from a
    modest-precision numeric pass plus rational reconstruction; each candidate
    is verified by exact evaluation, so the extraction is sound (merely not
    guaranteed complete for roots with large reconstruction height).
    """
    found = []
    rem = p.monic()
    with workprec(_PROBE_BITS):
        for ball, _mult, _fac in _roots_with_factors(rem, _PROBE_BITS):
            # a candidate met again finds its root deflated already
            for cand in reconstruct_in_field(ball.value, p.order):
                mult = 0
                while rem.degree > 0 and rem.eval_exact(cand).is_zero():
                    rem = rem.deflate(cand)
                    mult += 1
                if mult:
                    found.append((cand, mult))
    return found, rem


@dataclass(frozen=True)
class DivisorPoint:
    """A zero (positive multiplicity) or pole (negative) on P^1.

    ``factor`` is the exact squarefree polynomial whose root this is, kept for
    numeric clusters so incidence questions stay exact.
    """

    location: object
    multiplicity: int
    factor: object = dataclass_field(default=None, repr=False)

    @property
    def is_exact(self):
        return isinstance(self.location, CyclotomicNumber) or self.location is INF

    def __repr__(self):
        if self.location is INF:
            loc = "INF"
        elif isinstance(self.location, CyclotomicNumber):
            loc = str(self.location)
        else:
            loc = mp.nstr(self.location.value, 10)
        return f"({loc}, {self.multiplicity:+d})"


class RationalFunction:
    """Element of Q(zeta_N)(t) in canonical form: gcd(num, den)=1, den monic.

    Instances are immutable, so ``numeric.kept`` keeps in ``_memo``, per
    precision, ``divisor``, ``critical_values``, ``evaluator`` and
    ``regulator._log_lead`` ("log_lead"), and ``inverse`` once; a precycle
    keeps its facet restrictions the same way, as ("facets", bits).
    """

    __slots__ = ("order", "num", "den", "_memo")

    def __init__(self, num, den=None):
        self._memo = {}
        if den is None:
            den = Poly.one(num.order)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.order = num.order
        if num.is_zero():
            self.num = num
            self.den = Poly.one(num.order)
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead_inv = den.lead().inverse()
        self.num = num * lead_inv
        self.den = den * lead_inv

    @classmethod
    def constant(cls, value):
        return cls(Poly.constant(value))

    @classmethod
    def t(cls, order):
        return cls(Poly.x(order))

    @classmethod
    def from_rational(cls, q, order=1):
        return cls.constant(CyclotomicNumber.from_rational(Fraction(q), order))

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree <= 0

    def constant_value(self):
        if not self.is_constant():
            raise ChowregError(f"{self} is not constant")
        if self.num.is_zero():
            return CyclotomicNumber.zero(self.order)
        return self.num.coeffs[0] * self.den.coeffs[0].inverse()

    def is_one(self):
        return self.is_constant() and not self.is_zero() and self.constant_value().is_one()

    @property
    def degree_map(self):
        """Degree as a map P^1 -> P^1."""
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if k < 0:
            return (RationalFunction.from_rational(1, self.order) / self) ** (-k)
        out = RationalFunction.from_rational(1, self.order)
        base, n = self, k
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, CyclotomicNumber):
            return RationalFunction.constant(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_rational(other, self.order)
        raise TypeError(f"cannot combine RationalFunction with {type(other)!r}")

    def derivative(self):
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def compose(self, g):
        """self(g(t)) by homogeneous substitution; g must be nonconstant."""
        if not isinstance(g, RationalFunction):
            g = self._coerce(g)
        if g.is_constant():
            raise ChowregError("compose requires a nonconstant inner function")
        d = max(self.num.degree, self.den.degree, 0)
        gn_pow = [Poly.one(self.order)]
        gd_pow = [Poly.one(self.order)]
        for _ in range(d):
            gn_pow.append(gn_pow[-1] * g.num)
            gd_pow.append(gd_pow[-1] * g.den)

        def substitute(p):
            acc = Poly.zero(self.order)
            for k, c in enumerate(p.coeffs):
                if not c.is_zero():
                    acc = acc + gn_pow[k] * gd_pow[d - k] * c
            return acc

        return RationalFunction(substitute(self.num), substitute(self.den))

    def inverse(self):
        """The compositional inverse of a Moebius function (degree 1 as a
        map): f^-1(w) = (d0 w - n0) / (n1 - d1 w) for
        f = (n0 + n1 t) / (d0 + d1 t), exactly.  Built once."""
        if self.degree_map != 1:
            raise ChowregError(
                f"{self} has degree {self.degree_map} as a map: only a "
                "Moebius function has a compositional inverse")

        def build():
            zero = CyclotomicNumber.zero(self.order)
            n0, n1 = (*self.num.coeffs, zero, zero)[:2]
            d0, d1 = (*self.den.coeffs, zero, zero)[:2]
            return RationalFunction(Poly(self.order, [-n0, d0]),
                                    Poly(self.order, [n1, -d1]))
        return kept(self, "inverse", build)

    def eval(self, at, precision_bits=None):
        """Value at a point of P^1: exact element, INF, or a complex ball."""
        if at is INF:
            dn, dd = self.num.degree, self.den.degree
            if self.num.is_zero():
                return CyclotomicNumber.zero(self.order)
            if dn > dd:
                return INF
            if dn < dd:
                return CyclotomicNumber.zero(self.order)
            return self.num.lead() * self.den.lead().inverse()
        if isinstance(at, CyclotomicNumber):
            dv = self.den.eval_exact(at)
            nv = self.num.eval_exact(at)
            if dv.is_zero():
                if nv.is_zero():
                    raise ChowregError("0/0 after cancellation; canonical form violated")
                return INF
            return nv * dv.inverse()
        ball = at if isinstance(at, ComplexApprox) else ComplexApprox(at, 0.0)
        if precision_bits is None:
            precision_bits = mp.mp.prec
        ev = self.evaluator(precision_bits)
        with workprec(precision_bits):
            t = ball.value
            nv = ev._horner(ev.nc, t)
            dv = ev._horner(ev.dc, t)
            if abs(dv) == 0:
                return INF
            v = nv / dv
            # first-order radius: |f'(t)| * r_t plus rounding slack
            npv = ev._horner(ev.npc, t)
            dpv = ev._horner(ev.dpc, t)
            fp = (npv * dv - nv * dpv) / (dv * dv)
            size = max(1.0, float(abs(v)))
            rad = 2.0 * float(abs(fp)) * ball.radius
            rad += 8 * (self.num.degree + self.den.degree + 2) * size * 2.0 ** (2 - precision_bits)
            return ComplexApprox(v, rad)

    def divisor(self, precision_bits=None):
        """Zeros minus poles on P^1, infinity included; total degree 0.

        Computed once per precision; each call returns a new list of the
        (frozen) points."""
        if self.is_zero():
            raise ChowregError("divisor of the zero function")
        if precision_bits is None:
            precision_bits = mp.mp.prec

        def build():
            points = []
            for poly, sign in ((self.num, 1), (self.den, -1)):
                if poly.degree < 1:
                    continue
                exact, rem = linear_factors(poly)
                for root, mult in exact:
                    points.append(DivisorPoint(root, sign * mult))
                if rem.degree > 0:
                    for ball, mult, fac in _roots_with_factors(rem, precision_bits):
                        points.append(DivisorPoint(ball, sign * mult, factor=fac))
            dn, dd = self.num.degree, self.den.degree
            if dn != dd:
                points.append(DivisorPoint(INF, dd - dn))
            return tuple(points)
        return list(kept(self, ("divisor", precision_bits), build))

    def critical_values(self, precision_bits=None):
        """(critical point, value) pairs of a nonconstant function away from
        its zeros and poles, as complex balls.

        The finite critical points are the roots of the Wronskian
        num' den - num den' once every factor it shares with num den
        (multiple zeros and poles) is divided out exactly.  When
        deg num = deg den, f(oo) is finite and nonzero and the level set
        through it loses a branch to t = oo, so it is returned with point
        None.  Computed once per precision; each call returns a new list of
        the pairs.
        """
        if precision_bits is None:
            precision_bits = mp.mp.prec

        def build():
            wronskian = self.num.derivative() * self.den - self.num * self.den.derivative()
            zeros_and_poles = self.num * self.den
            shared = wronskian.gcd(zeros_and_poles)
            while shared.degree > 0:
                wronskian = wronskian // shared
                shared = wronskian.gcd(zeros_and_poles)
            out = [(ball, self.eval(ball, precision_bits))
                   for ball, _mult in roots_numeric(wronskian, precision_bits)]
            if self.num.degree == self.den.degree:
                out.append((None, embed(self.eval(INF), precision_bits)))
            return tuple(out)
        return list(kept(self, ("critical_values", precision_bits), build))

    def evaluator(self, precision_bits):
        """This function's ``RFEvaluator``, built once per precision."""
        return kept(self, ("evaluator", precision_bits),
                    lambda: RFEvaluator(self, precision_bits))

    def __str__(self):
        return rf_to_expr(self)

    __repr__ = __str__


def rf_arith(f, g, op):
    """Rational-function arithmetic dispatch matching the operation contract."""
    ops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "compose": lambda a, b: a.compose(b),
    }
    if op not in ops:
        raise ChowregError(f"unknown rational-function operation {op!r}")
    return ops[op](f, g)


def derivative(f):
    return f.derivative()


def join_coordinates(f, g):
    """f*g / (f + g - 1), the coordinate-joining substitution.

    Errors when the denominator vanishes identically (f + g = 1).
    """
    den = f + g - RationalFunction.from_rational(1, f.order)
    if den.is_zero():
        raise ChowregError("join undefined: f + g - 1 vanishes identically")
    return (f * g) / den


class RFEvaluator:
    """Embedded numeric view of a rational function at a fixed precision.

    Caches complex coefficient arrays for num, den and their derivatives so
    repeated evaluation (path tracing, crossings) costs only Horner loops.
    ``solve`` is Newton on num - w den for f(t) = w from a given start:
    each iteration evaluates num and den once in ``residual`` and hands them
    to ``newton_step``, which adds only num' and den': four Horner passes.
    """

    __slots__ = ("rf", "precision_bits", "nc", "dc", "npc", "dpc", "mags")

    def __init__(self, rf, precision_bits):
        self.rf = rf
        self.precision_bits = precision_bits
        with mp.workprec(precision_bits + 20):
            self.nc = [embed(c, precision_bits + 20).value for c in rf.num.coeffs]
            self.dc = [embed(c, precision_bits + 20).value for c in rf.den.coeffs]
            self.npc = [embed(c, precision_bits + 20).value for c in rf.num.derivative().coeffs]
            self.dpc = [embed(c, precision_bits + 20).value for c in rf.den.derivative().coeffs]
        # (k, binary magnitude of c_k) of the nonzero coefficients of num
        # and den, which size ``is_resolved``'s rounding floor
        self.mags = tuple([(k, mp.mag(c)) for k, c in enumerate(cs) if c]
                          for cs in (self.nc, self.dc))

    @staticmethod
    def _horner(coeffs, t):
        # seeding with +c_top rounds exactly as 0 * t + c_top would
        if not coeffs:
            return mp.mpc(0)
        acc = +coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * t + c
        return acc

    def value(self, t):
        return self._horner(self.nc, t) / self._horner(self.dc, t)

    def is_resolved(self, t, n=None, d=None, floor=None):
        """False when num(t) or den(t) lies within the rounding error of its
        Horner pass, about 2^floor max_k |c_k| |t|^k with floor = 4 - prec
        (compared by binary magnitude): at the working precision t is then
        not told apart from a zero or pole.  A caller that needs more
        relative accuracy passes a higher ``floor``.  ``n`` and ``d`` are
        num(t) and den(t) when the caller already has them."""
        if n is None:
            n = self._horner(self.nc, t)
            d = self._horner(self.dc, t)
        e = mp.mag(t)
        if floor is None:
            floor = 4 - mp.mp.prec
        for mags, v in zip(self.mags, (n, d)):
            size = max(m + k * e for k, m in mags)
            if not v or mp.mag(v) <= size + floor:
                return False
        return True

    def dlog(self, t, n=None, d=None):
        """f'/f at t; caller keeps t away from zeros and poles.  ``n`` and
        ``d`` are num(t) and den(t) when the caller already has them."""
        if n is None:
            n = self._horner(self.nc, t)
            d = self._horner(self.dc, t)
        np_ = self._horner(self.npc, t)
        dp = self._horner(self.dpc, t)
        return np_ / n - dp / d

    def newton_step(self, t, w, n, d):
        """One Newton step for num(t) - w den(t) = 0:
        t - (n - w d) / (n' - w d'), given n = num(t) and d = den(t) from
        ``residual``."""
        np_ = self._horner(self.npc, t)
        dp = self._horner(self.dpc, t)
        slope = np_ - w * dp
        if slope == 0:
            raise ZeroDivisionError("critical point in Newton step")
        return t - (n - w * d) / slope

    def residual(self, t, w, scale):
        """(|n - w d| / (|d| scale), n, d) with n = num(t), d = den(t); the
        caller passes scale = |w| + 1."""
        n = self._horner(self.nc, t)
        d = self._horner(self.dc, t)
        return abs(n - w * d) / (abs(d) * scale), n, d

    def solve(self, t, w, tol, max_steps):
        """f(t) = w at the working precision by Newton on num - w den from
        the start ``t``: (t, num(t), den(t)) for the first iterate whose
        relative residual |n - w d| / (|d| (|w| + 1)) is below ``tol``, or
        for the one reached by a step at the rounding floor of t, about
        2^(4 - prec) |t| (compared by binary magnitude), where the residual
        stops falling; None when ``max_steps`` steps do neither.  A critical
        point raises ZeroDivisionError.
        """
        scale = abs(w) + 1
        floor = 4 - mp.mp.prec
        for _ in range(max_steps):
            res, n, d = self.residual(t, w, scale)
            if res < tol:
                return t, n, d
            t_next = self.newton_step(t, w, n, d)
            if mp.mag(t_next - t) <= mp.mag(t) + floor:
                return (t_next, self._horner(self.nc, t_next),
                        self._horner(self.dc, t_next))
            t = t_next
        return None


def _cyclo_to_expr(c):
    if c.is_rational():
        q = c.as_rational()
        if q.denominator == 1:
            return str(q.numerator) if q >= 0 else f"({q.numerator})"
        return f"({q.numerator}/{q.denominator})"
    parts = []
    for k, coef in enumerate(c.coeffs):
        if coef == 0:
            continue
        if k == 0:
            parts.append(f"({coef.numerator}/{coef.denominator})"
                         if coef.denominator != 1 else str(coef.numerator))
        else:
            base = "zeta" if k == 1 else f"zeta^{k}"
            if coef == 1:
                parts.append(base)
            elif coef.denominator == 1:
                parts.append(f"{coef.numerator}*{base}")
            else:
                parts.append(f"({coef.numerator}/{coef.denominator})*{base}")
    return "(" + "+".join(parts) + ")"


def poly_to_expr(p, var="t"):
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        if k == 0:
            parts.append(_cyclo_to_expr(c))
        else:
            tpow = var if k == 1 else f"{var}^{k}"
            if c.is_one():
                parts.append(tpow)
            else:
                parts.append(f"{_cyclo_to_expr(c)}*{tpow}")
    return "+".join(parts)


def rf_to_expr(f):
    if f.den.degree <= 0 and not f.den.is_zero() and f.den.coeffs[0].is_one():
        return poly_to_expr(f.num)
    return f"({poly_to_expr(f.num)})/({poly_to_expr(f.den)})"
