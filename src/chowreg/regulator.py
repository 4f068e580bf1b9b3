"""Evaluation of the regulator over a point: line integrals along traced cut
loci, signed crossing sums, lattice reduction, phase-independence checks, and
torsion recognition.

For a closed normalized curve in the 3-cube the value of one component is

    mult * ( L  -  2*pi*i * P ),   where
    L = integral over the first cut locus of log^{eps_2}(f_2) dlog f_3
        (pole -> zero orientation), and
    P = sum over crossings of the first two loci of sign * log^{eps_3}(f_3).

The relative coefficient -2*pi*i between the two terms is forced: varying
eps_2 sweeps the second cut across the path, and the branch jump of the line
integral at each crossing must cancel against the motion of the crossing sum
for the total to be schedule-independent.  The overall orientation convention
is pinned by the classical value pi^2/6 of the Totaro curve, after which
every other fixture is a zero-freedom check.

Evaluation reads the first cut loci and their crossings from the
admissibility report that accepted the schedule, so the pipeline builds and
intersects each schedule's cut loci once, inside the schedule search.  A
path there is the exact inverse of a Moebius first coordinate, which every
shipped 3-cube fixture has, or the traced branch of one of higher degree.

``quadrature`` takes every line integral, along a polygon from the pole of
f_1 to its zero that is split at the crossings into stretches on which the
branch of log f_2 is fixed.  A Moebius path is such a polygon already: in
the chart r = f_1 / direction it is the ray from r = oo to r = 0.  A traced
path is replaced by a polygon in t through its trace samples.  Along a
chord f_2 is c prod (x - s_k)^{n_k} and dlog f_3 is sum_j m_j dx / (x - rho_j),
so the chord integral is a sum of logs and dilogarithms at its two ends, or
their limits at an end at 0 or oo (Lewin 1981; Zagier 2007), and every line
integral is a finite sum of closed-form terms.

On a Moebius path most of those terms are chart invariants.  With a = f_1
at a zero or pole of f_2 and b = f_1 at one of f_3, the places on the ray
are s = a / direction and rho = b / direction, so log(-rho), log(rho - s)
and the dilogarithms at r = 0, Li2(b / (b - a)) or Li2((b - a) / b), move
with the schedule only by i theta, theta = arg(direction), and a multiple
of 2 pi i.  They are computed once per component and precision, in the
chart, and each schedule adds -i theta and the multiple, which the
half-plane of the log's argument fixes: the sign of Im rho at r = 0, that
of Im delta for c = log(-1/delta) at r = oo.  The same per-component
line plan (``_ChartTerms``, kept by ``_chart_terms``) holds everything
else of the line that no schedule moves: the places a and b, their
Python complex images, which of them are 0 (a rho = 0 is an end that
drops its pairs), and which pairs have s = rho.  The K of a stretch is
log c + N log(scale) + 2 pi i m for f_2 = c scale^N prod (lambda - s)^n
on its line, the scale the direction or a traced chord's vector, with
the integer m from the side of the cut on which the branch of log f_2
lies (``_sided_k``).

The side that fixes K is read in doubles on every line first, from f_2
evaluated by Horner's rule on the coefficient images of the evaluator
that reads it, its chart on a Moebius path and f_2 itself on a traced
one, with a running error bound (``_chart_image``); f_2 is evaluated at
the working precision only where the doubles leave that side open.  On a
Moebius line without crossings every other decision is read in doubles
too: the inversions of the pairs and the half-planes at r = 0 and
r = oo, from the images times conj(direction) (``_line_images``), and
the guards that refuse a diverging end, from the double image of the
slope of log lambda or of log f_2 (``_diverges``).  The places are
divided by the direction at the working precision only on a line with
crossing stops, where they enter the balls.  A decision whose quantity
lies within 2^-40 of its threshold, relative to its scale (plus the
Horner bound for K's side), is left to the working-precision comparison,
so every decision is the one that comparison takes and every ball keeps
its working-precision expression.  The integers are rounded from
double-precision imaginary parts.  A term that vanishes identically (the
crossing term of a component without crossings, G at r = oo, a log of 1)
is carried as the integer 0, and no product by a multiplicity of 1 or sum
with such a 0 is made (``_plus``, ``_minus``, ``_times``): at the
working precision each would give its operand bit for bit.  A rotation,
at the working precision or at _EXTRA_BITS above it, and the direction
are made once per phase and precision (``wavefront._rotation``,
``wavefront._direction``), and i arg(direction) with the direction's image
once per direction and precision (``_direction_terms``).
``make_schedule`` builds each schedule of the search's ladder once per
process, so a warm evaluation makes no rotation, direction or phase;
2 pi i and (2 pi i)^2 are made once per precision (``_constants``), and
pi^2 / 6 is ``special``'s.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import operator
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import mpmath as mp

from .cycles import (_divisor_locations_equal, check_face_proper,
                     is_closed, is_normalized, normalize)
from .errors import ChowregError, PrecisionError, PropernessError, ScheduleError
from .field import embed
from .funcfield import INF, mpf_to_fraction
from .numeric import ComplexApprox, double_image, kept, workprec
from .special import BranchSpec, _pi2_6, li2, log_eps
from .wavefront import (_BAND, AdmissibilityReport, PhaseSchedule, _chart,
                        _coefficient_images, _coordinate_value_at, _rotation,
                        admissible, search_admissible)


@dataclass
class RegulatorValue:
    """A value in C modulo (2*pi*i)^p with error accounting.

    ``value`` is the canonical representative (lattice coefficient in
    [-1/2, 1/2)); ``breakdown`` lists per-component line-integral and crossing
    contributions, which sum to the pre-reduction value.
    ``precision_bits`` is the working precision the value was computed at,
    at which its readers work; None reads it at the caller's precision.
    """

    p: int
    value: ComplexApprox
    schedule_used: object
    breakdown: list = dataclass_field(default_factory=list)
    lattice_multiple: int = 0
    agreement: list = dataclass_field(default_factory=list)
    precision_bits: int = None

    def q_value(self):
        """value / (2*pi*i)^p, at the value's own precision."""
        with mp.workprec(self.precision_bits or mp.mp.prec):
            return self.value.value / _generator(self.p)


@dataclass
class TorsionResult:
    order: object
    certificate: object
    residual: float


def _generator(p):
    """(2 pi i)^p for p = 1 or 2 at the working precision, as (2 pi)^p i^p:
    one real power, the value that the mpc power gives, read from
    ``_constants``."""
    if p not in (1, 2):
        raise ChowregError(
            f"the lattice (2 pi i)^p needs p = 1 or 2, got {p!r}")
    return _constants(mp.mp.prec)[p - 1]


def _canonical_mod_lattice(value, p):
    """Shift ``value``, at the working precision, by the lattice so the
    generator coefficient lies in [-1/2, 1/2)."""
    gen = _generator(p)
    coeff = value.real / gen.real if p % 2 == 0 else value.imag / gen.imag
    k = int(mp.floor(coeff + 0.5))
    # value is at the working precision, where value - 0 gen is value
    return (value - k * gen if k else value), k


def lattice_difference(a, b, p):
    """(a - b) reduced mod (2*pi*i)^p: returns (integer multiple, residual)."""
    canon, k = _canonical_mod_lattice(mp.mpc(a) - mp.mpc(b), p)
    return k, abs(canon)


def reg_n1(Z, phase, precision_bits=None):
    """Sum of perturbed logs over a point-level cycle in the 1-cube."""
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if not (Z.is_point_level and Z.n == 1):
        raise ChowregError("reg_n1 needs a point-level cycle in the 1-cube")
    branch = BranchSpec(mp.mpf(phase))
    with workprec(precision_bits):
        total = ComplexApprox(mp.mpc(0), 0.0)
        breakdown = []
        for pt in Z.components:
            (v,) = pt.coords
            if v is INF:
                raise ChowregError("reg_n1 undefined at a coordinate equal to oo")
            ball = v if isinstance(v, ComplexApprox) else embed(v, precision_bits)
            if ball.contains_zero():
                raise ChowregError("reg_n1 undefined at a coordinate equal to 0")
            lg = log_eps(ball, branch)
            total = total + pt.mult * lg
            breakdown.append({"point": str(pt), "log": lg, "mult": pt.mult})
        canon, k = _canonical_mod_lattice(total.value, 1)
        return RegulatorValue(
            p=1,
            value=ComplexApprox(canon, total.radius),
            schedule_used=PhaseSchedule(mp.mpf(1), (mp.mpf(phase),)),
            breakdown=breakdown,
            lattice_multiple=k,
            precision_bits=precision_bits,
        )


# the closed forms of the line integral run this many bits above the
# working precision, along a polygon through every _POLYGON_STRIDE-th
# trace sample of a traced branch
_EXTRA_BITS = 16
_POLYGON_STRIDE = 40


# a process that evaluates at a handful of precisions reads each at its
# working precision and at _EXTRA_BITS above it: a precision sweep of five
# reads ten
@functools.lru_cache(maxsize=32)
def _constants(prec):
    """(2 pi i, (2 pi i)^2, pi^2 / 6) at ``prec`` bits, made once per
    precision; each power of 2 pi i is (2 pi)^p i^p, one real power, and
    pi^2 / 6 is the one that ``li2`` reads (``special._pi2_6``)."""
    with mp.workprec(prec):
        two_pi = 2 * mp.pi
        return (mp.mpc(0, two_pi), mp.mpc(-two_pi ** 2, 0), _pi2_6(prec))


@functools.lru_cache(maxsize=256)
def _direction_terms(direction, precision_bits):
    """(i arg(direction) at _EXTRA_BITS above ``precision_bits``, direction
    as a Python complex number), where the closed form on a Moebius path
    reads them, made once per direction and precision: ``direction`` is
    the exact binary value (``_mpc_``) of the mpc, since an mpc's hash
    and equality run in Python."""
    direction = mp.make_mpc(direction)
    with mp.workprec(precision_bits + _EXTRA_BITS):
        return mp.mpc(0, mp.arg(direction)), complex(direction)


def _is_zero(z):
    """Whether z is the integer 0, the exact zero that the closed form
    carries where a term vanishes identically: no operation with it is
    made."""
    return type(z) is int and not z


def _plus(a, b):
    """a + b, or one operand where the other is the integer 0: every
    operand here is at the working precision, where that sum is it bit
    for bit."""
    return b if _is_zero(a) else a if _is_zero(b) else a + b


def _minus(a, b):
    """a - b, or a where b is the integer 0 (``_plus``)."""
    return a if _is_zero(b) else -b if _is_zero(a) else a - b


def _times(a, b):
    """a b, or the integer 0 where either is 0 as an integer, or the other
    where one is the integer 1: the product by a multiplicity of 1 is the
    operand bit for bit."""
    if _is_zero(a) or _is_zero(b):
        return 0
    return b if type(a) is int and a == 1 else a if (
        type(b) is int and b == 1) else a * b


def _arg(z):
    """arg z in double precision, of a nonzero Python complex or of an mpc
    at any exponent of z."""
    return cmath.phase(z if isinstance(z, complex) else double_image(z))


def _shifted(lg, centre):
    """lg + 2 pi i n, the n that puts its imaginary part nearest the float
    ``centre``: the log on the branch whose arguments lie within pi of it."""
    n = round((centre - float(lg.imag)) / (2 * math.pi))
    return _plus(lg, mp.mpc(0, 2 * n * mp.pi)) if n else lg


def _chart_image(images, x):
    """(w, eta): w = f_2 at x by Horner's rule in doubles, from the
    coefficient images of its evaluator, a chart's or f_2's own
    (``wavefront._coefficient_images``), at x a Python complex number, and
    eta a bound on |w - f_2(x)| / |w|, f_2(x) that evaluator's value at
    the mpc point that x images; None when eta is not below 2^-40, or when
    the evaluator has no images.

    A pass over coefficients c_k, k <= n, is off by at most
    8 (n + 1) 2^-53 sum |c_k| |x|^k, a running bound that covers the
    images of c_k and of x, each off by one unit of 2^-53, and the
    rounding of each complex product and sum, about (sqrt 5 + 1) 2^-53 a
    step; the evaluator's own value at the working precision is off by
    far less.  With a and b those bounds relative to the numerator and
    the denominator, w is off by (a + b) / (1 - b), and by a few units of
    2^-53 for the division.  A numerator or denominator below 2^-500, or
    a w above 2^500, is not read."""
    if images is None:
        return None
    ax, parts = abs(x), []
    for cs in images:
        acc, size = 0j, 0.0
        for c in reversed(cs):
            acc = acc * x + c
            size = size * ax + abs(c)
        parts.append((acc, 8 * len(cs) * 2.0 ** -53 * size))
    (num, num_err), (den, den_err) = parts
    if not (num_err < abs(num) and 2 * den_err < abs(den)
            and min(abs(num), abs(den)) > 2.0 ** -500):
        return None
    b = den_err / abs(den)
    eta = (num_err / abs(num) + b) / (1 - b) + 2.0 ** -50
    w = num / den
    return (w, eta) if eta < _BAND and abs(w) < 2.0 ** 500 else None


def _sided_k(ev, x, eps2, precision_bits, guard, side_hint, lead, lam,
             zeros2):
    """K = lead + 2 pi i m on a line where f_2 = c scale^N prod (lam - s)^n,
    given lead = log c + N log(scale) and w = f_2 at ``lam``, which the
    evaluator ``ev`` reads at x: the m that puts Im K + sum n Im log(lam -
    s) in (-pi - eps_2, pi - eps_2], so that K + sum n log(lam - s) is the
    branch of log f_2 at the second phase ``eps2``.  The hint, a sign or
    0, resolves a w inside the guard sliver around the cut by continuity
    from one side: the side is whether phi = arg(-w e^{i eps_2}) exceeds
    -guard hint.

    w is first read in doubles from the coefficient images of ``ev``
    (``wavefront._coefficient_images``) at x as a Python complex number
    (``_chart_image``), off by eta relative: with the double image of the
    rotation (``wavefront._rotation``), its phi decides the side when it
    lies more than 2^-40 + eta from -guard hint.  Otherwise w is ``ev``'s
    value at the working precision ``precision_bits``, whose phi from
    double images is off by a few units of 2^-53 and decides unless it
    lies within 2^-40 of -guard hint (or w is 0); there phi is taken at
    _EXTRA_BITS above the working precision, with the rotation made there.
    So the side is that of the working-precision comparison at every
    input, and m is rounded from double-precision arguments."""
    limit = -guard * side_hint if side_hint else 0
    rot_image = _rotation(eps2, precision_bits)[1]
    read = _chart_image(_coefficient_images(ev), complex(x))
    if read:
        w, eta = read
        phi = _arg(-w * rot_image)
    if not read or abs(phi - float(limit)) <= _BAND + eta:
        w = ev.value(x)
        phi = _arg(-double_image(w) * rot_image) if w else 0.0
    if isinstance(w, complex) or w and abs(phi - float(limit)) > _BAND:
        above = phi > float(limit)
    else:
        above = mp.arg(-w * _rotation(eps2, precision_bits + _EXTRA_BITS)[0]
                       ) > limit
    theta = math.pi - float(eps2) + phi - (2 * math.pi if above else 0.0)
    return _shifted(lead, theta - sum(n * _arg(lam - s) for n, s in zeros2))


def _log_lead(rf, precision_bits):
    """(log c, N) for rf = c prod (x - x_k)^{n_k} over its finite zeros and
    poles x_k: c the ratio of the leading coefficients, N = deg num - deg
    den, and log c the integer 0 at c = 1.  Kept on the function's memo per
    precision."""
    def build():
        c = rf.num.lead() * rf.den.lead().inverse()
        return (0 if c.is_one() else mp.log(embed(c, mp.mp.prec).value),
                rf.num.degree - rf.den.degree)
    return kept(rf, ("log_lead", precision_bits), build)


def _admitted(Z, schedule, precision_bits):
    """The admissibility report for ``schedule``: a PhaseSchedule is checked
    here, an AdmissibilityReport is taken as it is.  ScheduleError unless
    the report is ok."""
    rep = schedule
    if not isinstance(rep, AdmissibilityReport):
        rep = admissible(Z, schedule, precision_bits=precision_bits)
    if not rep.ok:
        raise ScheduleError(
            "cycle is not admissible at the requested schedule: "
            + "; ".join(f.kind for f in rep.failures))
    return rep


@dataclass
class _ChartTerms:
    """What the closed form on a Moebius path of one component takes at
    one precision and no schedule moves (``_chart_terms``).

    ``places`` holds the places (n, a) of f_2 and (m, b) of f_3, a or b
    the value of f_1 at a zero or pole of order n or m at which f_1 is
    finite.  ``zero`` tells per a and per b whether it is 0, and ``same``
    per pair, in the order of ``_dilog_pairs``, whether a = b.
    ``images`` holds the places as (n, a) with a a Python complex number,
    or is None when a place that is not 0 has a size outside 2^+-500.
    ``neg_logs`` holds log(-b) per b (None at b = 0), ``gaps`` log(b - a)
    per pair (None where a = b), and ``dilogs`` is the ``_stop_dilogs``
    cache of the dilogarithm balls at the end r = 0."""

    places: tuple
    zero: tuple
    same: list
    images: tuple
    neg_logs: list
    gaps: list
    dilogs: dict


def _chart_terms(comp, precision_bits):
    """The ``_ChartTerms`` of ``comp`` at ``precision_bits``: built on the
    first Moebius quadrature of a precision and kept on the component."""
    def build():
        places = tuple(
            [(pt.multiplicity, v)
             for pt in comp.coords[k - 1].divisor(precision_bits)
             if (v := _coordinate_value_at(comp, 1, pt)) is not INF]
            for k in (2, 3))
        zero = tuple([a == 0 for _, a in ps] for ps in places)
        images = tuple([(n, complex(a)) for n, a in ps] for ps in places)
        inside = all(2.0 ** -500 < abs(z) < 2.0 ** 500 or a == 0
                     for ps, zs in zip(places, images)
                     for (_, a), (_, z) in zip(ps, zs))
        pairs = [(a, b) for _, b in places[1] for _, a in places[0]]
        same = [a == b for a, b in pairs]
        return _ChartTerms(
            places, zero, same, images if inside else None,
            [None if z else mp.log(-b)
             for z, (_, b) in zip(zero[1], places[1])],
            [None if eq else mp.log(b - a)
             for eq, (a, b) in zip(same, pairs)],
            {})
    return kept(comp, ("chart_terms", precision_bits), build)


def _stop_dilogs(cache, v, pairs, xs, ys, at_v=None):
    """The dilogarithm ball of each ``_dilog_pairs`` pair at the stop v,
    with x and y the places of the pair's zero or pole of f_2 and of f_3
    in the coordinate of v: Li2((v - y) / (x - y)) or, inverted,
    Li2((x - y) / (v - y)), or None for a pair that needs none or whose y
    is v, which ``at_v``, when given, tells per y.  ``cache`` keeps them
    by (v, pair, inverted) for every line."""
    balls = []
    for i, (_, j, delta, inverted, _) in enumerate(pairs):
        x, y = xs[i % len(xs)], ys[j]
        if delta is not None and not (y == v if at_v is None else at_v[j]) \
                and (v, i, inverted) not in cache:
            cache[v, i, inverted] = li2((x - y) / (v - y) if inverted
                                        else (v - y) / (x - y))
        balls.append(cache.get((v, i, inverted)))
    return balls


def _log(z):
    """The principal log of z in double precision, enough to fix the
    integer multiple of 2 pi i between two logs."""
    return cmath.log(complex(z))


def _dilog_pairs(zeros2, zeros3, log_gaps=None, log_scale=0, flags=None):
    """How each pair of a zero or pole s of f_2 and rho of f_3 on a line
    (in lambda, the radius r on a Moebius path) enters the antiderivative, as
    (n m, index of rho in ``zeros3``, delta, inverted, D).

    The pair contributes n m times an antiderivative of
    log(r - s) / (r - rho) on r > 0, all logs principal (Lewin 1981;
    Zagier 2007).  It is log^2(r - s) / 2 when s = rho (delta is None).
    Else, with delta = s - rho and z = (r - rho) / delta, it is
    D log(r - rho) - Li2(z), where log(r - s) = D + log(1 - z) with
    D = log(rho - s) + 2 pi i q.  When the line z(r), r real, meets the
    real axis right of 1, it misses [0, 1] instead, and the pair is
    inverted, in w = 1 / z: log^2(r - rho) / 2 + Li2(w) + D log(r - rho),
    where log(r - s) = log(r - rho) + log(1 - w) + D with D = 2 pi i q.
    Either way no dilogarithm meets its cut [1, oo) for r > 0, every log
    is continuous there (``admissible`` keeps s and rho off the positive
    real axis), and the integer q is fixed once, at r = 1, from logs in
    double precision.  ``log_gaps``, when given, holds a log of
    (rho - s) scale per pair in order and ``log_scale`` one of the line's
    scale, on any branch: q absorbs the multiple of 2 pi i.  ``flags``,
    when given, holds per pair None where s = rho and else whether the
    pair is inverted, as ``_line_images`` decides them on Python complex
    places; else they are decided here, on mpc places at the working
    precision.
    """
    two_pi_i = _generator(1)
    pairs = []
    for j, (m, rho) in enumerate(zeros3):
        for n, s in zeros2:
            if s == rho if flags is None else flags[len(pairs)] is None:
                pairs.append((m * n, j, None, False, 0))
                continue
            delta = s - rho
            if flags is None:
                # the real r at which z(r) is real, or 1 when the line z(r)
                # is parallel to the real axis
                r_real = (-(rho * delta.conjugate()).imag / delta.imag
                          if delta.imag else 1)
                inverted = ((r_real - rho) / delta).real > 1
            else:
                inverted = flags[len(pairs)]
            z1 = (1 - rho) / delta
            if inverted:
                d = 0
                rest = _log(1 - rho) + _log(1 - 1 / z1)
            else:
                d = (mp.log(rho - s) if log_gaps is None
                     else log_gaps[len(pairs)] - log_scale)
                rest = complex(d) + _log(1 - z1)
            q = round((_log(1 - s) - rest).imag / (2 * math.pi))
            pairs.append((m * n, j, delta, inverted,
                          _plus(d, two_pi_i * q) if q else d))
    return pairs


def _line_images(terms, direction):
    """(zeros2, zeros3, flags) for the Moebius line of ``quadrature``
    without crossings, from double images, or None when a decision falls
    within the band: the places s = a / direction of f_2 and
    rho = b / direction of f_3 as Python complex numbers, the chart places
    times conj(direction), and, per ``_dilog_pairs`` pair in order, None
    where a = b and else whether the pair is inverted.

    Each image is off by a few units of 2^-53 relative, and a decision
    stands when its quantity lies outside 2^-40 of its scale from the
    threshold, far beyond that and beyond the rounding of the
    working-precision test, so it is the one that test takes.  A pair is
    inverted exactly when Im delta Im s < 0 (delta = s - rho; at s = 0 the
    working-precision test finds z = 1 at r = 0, not inverted), so this
    asks |Im delta| |Im s| > 2^-40 S^2 with S = |s| + |rho|, or
    |Im delta| > 2^-40 S at s = 0: the rounding of that test grows like
    S |rho| / |Im delta|^2 relative to its margin.  Then Im delta is clear
    of 0 for the half-plane at r = oo, and |Im rho| > 2^-40 |rho| is asked
    for the one at r = 0.  The places' images, and which a = b, come
    from ``terms``, the ``_ChartTerms`` of the component, and
    ``direction`` is a Python complex number; None when a place of size
    outside 2^+-500 is not imaged there."""
    if terms.images is None:
        return None
    conj = direction.conjugate()
    zeros2, zeros3 = ([(n, z * conj) for n, z in images]
                      for images in terms.images)
    flags = []
    for _, rho in zeros3:
        if rho and abs(rho.imag) <= _BAND * abs(rho):
            return None
        for _, s in zeros2:
            if terms.same[len(flags)]:
                flags.append(None)
                continue
            delta, size = s - rho, abs(s) + abs(rho)
            if (abs(delta.imag) * (abs(s.imag) if s else size)
                    <= _BAND * size * size):
                return None
            flags.append(delta.imag * s.imag < 0)
    return zeros2, zeros3, flags


def _antiderivative(r, zeros3, pairs, dilogs=None, logs=None):
    """(H, G, radius, size) at the radius r > 0: G = sum_j m_j log(r - rho_j)
    over ``zeros3``, and H an antiderivative of
    (sum_k n_k log(r - s_k)) sum_j m_j / (r - rho_j), summed over the
    ``_dilog_pairs``.  ``radius`` adds the dilogarithms' radii and ``size``
    the absolute values of the terms of H and G.  ``dilogs``, when given,
    holds the dilogarithm ball of each pair, and ``logs`` the principal
    log(r - rho_j) of each rho_j, which are then not computed.  H or G is
    the integer 0 where no term enters it."""
    if logs is None:
        logs = [mp.log(r - rho) for _, rho in zeros3]
    halves = {}

    def half(j):
        if j not in halves:
            halves[j] = logs[j] ** 2 / 2
        return halves[j]

    h, g, radius, size = 0, 0, 0.0, 0.0
    for i, (coeff, j, delta, inverted, d) in enumerate(pairs):
        if delta is None:
            term = _times(coeff, half(j))
        else:
            rho = zeros3[j][1]
            li = dilogs[i] if dilogs else li2(
                delta / (r - rho) if inverted else (r - rho) / delta)
            term = _times(coeff, _plus(_times(d, logs[j]), (
                half(j) + li.value if inverted else -li.value)))
            radius += abs(coeff) * li.radius
        h = _plus(h, term)
        size += abs(complex(term))
    for (m, _), lr in zip(zeros3, logs):
        term = _times(m, lr)
        g = _plus(g, term)
        size += abs(complex(term))
    return h, g, radius, size


def _location(pt):
    """The place of a DivisorPoint at the working precision: INF or mpc."""
    loc = pt.location
    return loc if loc is INF else loc.value if isinstance(
        loc, ComplexApprox) else embed(loc, mp.mp.prec).value


def _branch_ends(f1, path, precision_bits):
    """(pole, zero): the DivisorPoints of f_1 nearest the first and the last
    sample of the traced branch ``path``, where it starts and ends."""
    return tuple(min(
        (pt for pt in f1.divisor(precision_bits)
         if sign * pt.multiplicity > 0),
        key=lambda pt: 1 / abs(t) if (x := _location(pt)) is INF
        else abs(t - x) / (1 + abs(x)))
        for sign, t in ((-1, path.points[0]), (1, path.points[-1])))


def _in_or_near_loop(z, loop):
    """Whether z lies inside the polygon ``loop`` closed by the chord from
    its last point back to its first (a nonzero winding number), or within
    one sample spacing of it: of an edge, its length."""
    winding = cmath.phase((loop[0] - z) / (loop[-1] - z))
    for p, q in zip(loop, loop[1:]):
        lam = min(max(((z - p) / (q - p)).real, 0.0), 1.0) if q != p else 0.0
        if abs(z - p - lam * (q - p)) <= abs(q - p):
            return True
        winding += cmath.phase((q - z) / (p - z))
    return abs(winding) > math.pi


def _antiderivative_at_0(zeros3, pairs, k, precision_bits, dilogs, logs):
    """``_antiderivative`` at lambda = 0, where f_3 may vanish or have a
    pole (rho_j = 0) at an exact end of the first locus.  There log lambda
    has the factor m_j (K + sum_k n_k D_k) = m_j log f_2, which the limit
    drops, as f_2 = 1 on a properly meeting cycle (else ChowregError); the
    pair is not inverted and its Li2(0) is 0.  ``dilogs`` and ``logs`` are
    ``_antiderivative``'s, over every pair and rho_j; a log of None marks a
    rho_j = 0, which is then not compared.  Where no rho_j is 0 no pair is
    dropped, and there is nothing to check."""
    keep = {j: i for i, j in enumerate(
        j for j, (_, rho) in enumerate(zeros3)
        if (logs[j] is not None if logs else rho != 0))}
    if len(keep) == len(zeros3):
        return _antiderivative(mp.mpf(0), zeros3, pairs, dilogs, logs)
    dropped = [p for p in pairs if p[1] not in keep]
    ds = 0
    for coeff, _, _, _, d in dropped:
        ds = _plus(ds, _times(coeff, d))
    log_f2 = _plus(_times(k, sum(m for j, (m, _) in enumerate(zeros3)
                                 if j not in keep)), ds)
    if any(p[2] is None for p in dropped) or _diverges(
            log_f2, lambda: sum(abs(p[0]) * (abs(k) + abs(p[4]))
                                for p in dropped), precision_bits):
        raise ChowregError("the line integral diverges at an end of the "
                           "first cut locus, where f_3 is 0 or oo")
    kept = [i for i, p in enumerate(pairs) if p[1] in keep]
    return _antiderivative(
        mp.mpf(0), [zeros3[j] for j in keep],
        [(pairs[i][0], keep[pairs[i][1]], *pairs[i][2:]) for i in kept],
        dilogs and [dilogs[i] for i in kept], logs and [logs[j] for j in keep])


def _antiderivative_at_oo(zeros3, pairs, k, precision_bits):
    """``_antiderivative`` as lambda -> oo, at a chord end at oo: (H, 0,
    0.0, size), H the limit of H + K G.  With L = log lambda,
    log(lambda - rho) = L + o(1), and the L^2/2 and L terms of the pairs and of
    K G cancel on a properly meeting cycle (else ChowregError).  An
    inverted pair's Li2 tends to 0; one that is not adds pi^2/6 + c^2/2 by
    the inversion formula of Li2 (Zagier 2007), log(-z) = L + c + o(1):
    c = log(-1/delta) = -D + 2 pi i n, whose imaginary part lies in the
    half-plane of -1/delta, fixed by the sign of Im delta; on a real delta
    it is 0 when delta < 0 and pi when delta > 0, or -pi when Im rho < 0,
    where log(-z) tends to the negative real axis from below.  H is the
    integer 0 where no pair adds to it."""
    first = slope = _times(k, sum(m for m, _ in zeros3))
    h, size, ds = 0, 0.0, []
    for coeff, j, delta, inverted, d in pairs:
        if delta is not None and not inverted:
            neg = -d
            c = _shifted(neg, math.pi / 2 if delta.imag > 0
                         else -math.pi / 2 if delta.imag < 0
                         else 0.0 if delta.real < 0
                         else -math.pi if zeros3[j][1].imag < 0 else math.pi)
            # c = -d exactly when no multiple of 2 pi i moves it: d + c = 0
            d = 0 if c is neg else d + c
            term = _times(coeff, _constants(mp.mp.prec)[2] + c ** 2 / 2)
            h = _plus(h, term)
            size += abs(complex(term))
        ds.append((coeff, d))
        slope = _plus(slope, _times(coeff, d))

    def scale():
        total = abs(first)
        for coeff, d in ds:
            total += abs(coeff) * abs(d)
        return total

    if sum(p[0] for p in pairs) or _diverges(slope, scale, precision_bits):
        raise ChowregError("the line integral diverges at an end of the "
                           "first cut locus at oo, where f_3 is 0 or oo")
    return h, 0, 0.0, size


def _diverges(value, scale, precision_bits):
    """Whether |value| > 2^(16 - precision_bits) (1 + scale()), the test
    that an end of the first locus refuses, on the slope of log lambda or
    on log f_2.  The double image of |value| is off by a few units of
    2^-53, so below 1 - 2^-40 times 2^(16 - precision_bits), the least
    the threshold can be, it decides that the test fails, and neither the
    working-precision |value| nor ``scale`` is made; else the test is
    taken at the working precision."""
    if abs(complex(value)) < math.ldexp(1 - _BAND, 16 - precision_bits):
        return False
    return abs(value) > mp.ldexp(1, 16 - precision_bits) * (1 + scale())


def _line(zeros3, pairs, stops, ks, precision_bits, shared=None):
    """The ball of [H + K G] over each stretch of a line, between its stops
    ``stops[i]`` and ``stops[i + 1]`` (lambda values in path order) with
    K = ``ks[i]``: the closed form of the integral of log f_2 dlog f_3
    along it, whose zeros and poles on the line are ``zeros3`` and the
    ``_dilog_pairs`` ``pairs``.  A stop at INF takes the limit of
    ``_antiderivative_at_oo`` with the K of its stretch, one at 0 that of
    ``_antiderivative_at_0``, and any other is ``_antiderivative`` there,
    each computed once for the two stretches that meet at it.
    ``shared[i]``, when given, is None or the (logs, dilogs) of stop i
    that other lines share, either of them None.  The radius adds the
    dilogarithms' radii and 2^(8 - precision_bits) times the size of the
    terms at both ends, K G included; a K, H or G that is the integer 0
    enters no operation."""
    sums = []
    for i, lam in enumerate(stops):
        k = ks[max(i - 1, 0)]
        logs, dilogs = shared and shared[i] or (None, None)
        sums.append(_antiderivative_at_oo(zeros3, pairs, k, precision_bits)
                    if lam is INF else _antiderivative_at_0(
                        zeros3, pairs, k, precision_bits, dilogs, logs)
                    if lam == 0 else
                    _antiderivative(lam, zeros3, pairs, dilogs, logs))
    rounding = 2.0 ** (8 - precision_bits)
    return [ComplexApprox(
        _plus(_minus(h1, h0), _times(k, _minus(g1, g0))),
        r0 + r1 + rounding * (z0 + z1 + (0.0 if _is_zero(k) else float(
            abs(k)) * (float(abs(g0)) + float(abs(g1))))))
        for k, (h0, g0, r0, z0), (h1, g1, r1, z1) in zip(ks, sums, sums[1:])]


def quadrature(comp, path, xs, eps2, precision_bits=None):
    """The line integral along a first-locus ``path`` with its crossings
    ``xs`` (in path order), as (stretch index, x_a, x_b, ball) for each
    chord of a polygon from the pole of f_1 to its zero, in path order, x_a
    and x_b the places of the chord's ends: the radius r on a Moebius path,
    t on a traced one.

    The polygon is homotopic to the path where the integrand is holomorphic
    (Kerr-Lewis-Mueller-Stach 2006).  A Moebius path is one already: in the
    chart r = f_1 / direction it is the ray from the pole r = oo through
    the crossing radii to the zero r = 0, one line whose zeros and poles of
    f_2 and f_3 are f_1 / direction at theirs.  A traced path is replaced
    by the polygon in t from the exact pole of f_1 through every
    ``_POLYGON_STRIDE``-th trace sample and each crossing to the exact
    zero: a chord is t = t_a + lambda (t_b - t_a), lambda from 0 to 1 with
    an exact end at 0, or, with an end at t = oo, the ray t = lambda v from
    its finite vertex v (lambda = 1).  With the zeros and poles s_k of f_2
    and rho_j of f_3 on the line (lambda = r on a Moebius path), ``_line``
    takes the chord integrals between its stops: r = oo, each crossing
    radius and r = 0 on a Moebius path, the two ends of a traced chord.
    On the line f_2 = c scale^N prod (lambda - s)^n, the scale the
    direction on a Moebius path (log i theta, theta its argument) and the
    chord's vector on a traced one, and K = log c + N log(scale) + 2 pi i m
    (``_log_lead``, ``_sided_k``).  The integer m puts log f_2 on its sided
    branch at a vertex on the path, a sample if there is one, else a
    crossing, with the side hint of the stretch it opens or closes, or at
    r = 1 on a Moebius path without crossings; f_2 is read there in t on a
    traced path and in its chart (``wavefront._chart``) at w = r direction
    on a Moebius one, in doubles unless they leave the side open
    (``_sided_k``).  On a Moebius path the logs of rho - s, the logs and
    dilogarithms at r = 0 and c at r = oo come from the chart terms
    (``_chart_terms``) less i theta, and no schedule takes them anew.  A
    traced chord is halved while a zero or pole of f_2 or f_3 lies in or
    about one sample spacing from the loop of the chord and the samples it
    skips, or on the chord; PrecisionError if it skips none.  The radius is
    ``_line``'s, plus, at each vertex ball of a traced chord, the integrand
    times its radius.

    The rotations of ``eps2`` (``wavefront._rotation``) and i arg(direction)
    with the direction's image (``_direction_terms``) are made once per
    phase or direction and precision.  On a Moebius path without crossings
    the places, the pairs' inversions and the half-planes come from double
    images (``_line_images``), and the places are divided by the direction
    at the working precision only when a decision falls within the band
    there, or when crossings put stops on the line."""
    if precision_bits is None:
        precision_bits = mp.mp.prec
    f1, f2, f3 = comp.coords
    points = path.points
    # f_2 in t on a traced path, and in its chart w = f_1 on a Moebius one
    rf2 = f2 if points else _chart(comp, 1, 2)
    ev2 = rf2.evaluator(precision_bits)
    with mp.workprec(precision_bits + _EXTRA_BITS):
        guard = mp.ldexp(1, -precision_bits // 2)
        log_c, degree = _log_lead(rf2, precision_bits)

        def branch_k(x, lam, hint, zeros2, log_scale):
            """K on a line where f_2 = c scale^N prod (lambda - s)^n, with
            ``log_scale`` a log of its scale, from the sided branch of log
            f_2 at the point of the path where ``ev2`` reads f_2 at x,
            which sits at lambda on the line."""
            return _sided_k(ev2, x, eps2, precision_bits, guard, hint,
                            _plus(log_c, _times(degree, log_scale)), lam,
                            zeros2)

        if not points:
            # one line with a stop at each crossing radius, on which
            # f_1 = r direction: f_k = c prod (r - s)^n over its places
            # (n, a), s = a / direction (a point where f_1 = oo only moves
            # c), and admissible keeps every s off the positive real axis
            # (face-on-cut), so log(r - s) is continuous on the path
            terms = _chart_terms(comp, precision_bits)
            log_dir, direction = _direction_terms(path.direction._mpc_,
                                                  precision_bits)
            images = None if xs else _line_images(terms, direction)
            if images is None:
                zeros2, zeros3 = ([(n, mp.mpc(0) if z else a / path.direction)
                                   for (n, a), z in zip(places, zero)]
                                  for places, zero in zip(terms.places,
                                                          terms.zero))
                flags = None
            else:
                zeros2, zeros3, flags = images
            pairs = _dilog_pairs(zeros2, zeros3, terms.gaps, log_dir, flags)
            # the chart terms move with the direction by -i theta and a
            # multiple of 2 pi i: at r = 0, log(-rho) lies in the half-plane
            # of -rho that the sign of Im rho fixes (0 on a negative rho;
            # admissible keeps rho off the positive axis), None at rho = 0
            at_0 = ([None if lg is None else _shifted(
                lg - log_dir, -math.pi / 2 if rho.imag > 0
                else math.pi / 2 if rho.imag < 0 else 0.0)
                for lg, (_, rho) in zip(terms.neg_logs, zeros3)],
                _stop_dilogs(terms.dilogs, 0, pairs,
                             *([a for _, a in ps] for ps in terms.places),
                             terms.zero[1]))
            radii = [INF, *(mp.exp(c.sigma) for c in xs), mp.mpf(0)]
            if xs:
                # K at the crossing that opens the stretch, else at the
                # one that closes it
                ks = [branch_k(r * path.direction, r, hint, zeros2, log_dir)
                      for r, hint in [(radii[1], -xs[0].sign),
                                      *((r, c.sign) for r, c
                                        in zip(radii[1:], xs))]]
            else:
                # K at r = 1, read in doubles where they decide its side
                ks = [branch_k(path.direction, 1, 0, zeros2, log_dir)]
            balls = _line(zeros3, pairs, radii, ks, precision_bits,
                          [None] * (len(radii) - 1) + [at_0])
            return [(seg, a, b, ball) for seg, (a, b, ball)
                    in enumerate(zip(radii, radii[1:], balls))]

        ends = _branch_ends(f1, path, precision_bits)
        # (n, place, whether it is each end) per zero or pole of f_2, f_3
        divisors = [[(pt.multiplicity, _location(pt),
                      [_divisor_locations_equal(pt, e) for e in ends])
                     for pt in f.divisor(precision_bits)] for f in (f2, f3)]
        # a log of y - x per pair gives one of rho - s on every chord, and
        # the dilogarithm argument (t - y) / (x - y) at a vertex is the same
        # on the chords that meet there: both are computed once
        finite = [[x for _, x, _ in div if x is not INF] for div in divisors]
        gaps = [None if x == y else mp.log(y - x)
                for y in finite[1] for x in finite[0]]
        dilogs, last = {}, len(points) - 1

        def chord(a, b, left_sign, right_sign):
            """The closed form over the chord from vertex a to vertex b, or
            the sample vertex at which to split it; the signs are those of
            the crossings that open and close its stretch."""
            # lambda runs to 1 at the tip from the base, an end if the chord
            # has one: from 0, or from oo along the ray t = lambda tip on a
            # chord to t = oo
            base, tip = (b, a) if b[3] is not None else (a, b)
            ray = base[1] is INF
            exact = base[3] is not None and not ray
            c0, delta = (0, tip[1]) if ray else (base[1], tip[1] - base[1])
            zeros2, zeros3 = (
                [(n, mp.mpc(0) if exact and is_end[base[3]]
                  else (x - c0) / delta)
                 for n, x, is_end in div if x is not INF]
                for div in divisors)
            skipped = [k for k in range(math.floor(a[0]) + 1, math.ceil(b[0]))
                       if points[k] not in (a[1], b[1])]
            # the loop only steers splitting: double precision will do
            loop = [0j, *(complex(points[k] - c0) / complex(delta)
                          for k in skipped), 1 + 0j]
            lo, hi = (1, mp.inf) if ray else (0, 1 + guard)
            for _, s in zeros2 + zeros3:
                if exact and s == 0:
                    continue
                on_chord = abs(s - lo) <= guard or (
                    lo < s.real <= hi and abs(s.imag) <= guard * s.real)
                if skipped and (on_chord or abs(s) <= 3 * max(map(abs, loop))
                                and _in_or_near_loop(complex(s), loop)):
                    return (skipped[len(skipped) // 2],
                            points[skipped[len(skipped) // 2]], 0.0, None)
                if on_chord:
                    raise PrecisionError(
                        f"coordinate 1: the cut locus near t = "
                        f"{mp.nstr(tip[1], 8)} runs onto a zero or pole of "
                        f"f_2 or f_3 at {precision_bits} bits; raise the "
                        "working precision")
            # K is fixed at a vertex on the path, a sample if there is one,
            # with the side hint of the stretch end it opens or closes
            at = next((v for v in (a, b) if v[0] % 1 == 0 and v[3] is None),
                      a if a[3] is None else b)
            log_delta = mp.log(delta)
            k = branch_k(at[1], int(at is tip),
                         left_sign if at is a else right_sign, zeros2,
                         log_delta)
            # an exact end shares nothing with a neighbour
            pairs = _dilog_pairs(zeros2, zeros3, None if exact else gaps,
                                 log_delta)
            # the stops run from a to b, lambda from the base to the tip
            lams = [INF if ray else mp.mpf(0), mp.mpf(1)]
            if base is b:
                lams.reverse()
            (ball,) = _line(zeros3, pairs, lams, [k], precision_bits, [
                None if exact or lam is INF
                else (None, _stop_dilogs(dilogs, v[1], pairs, *finite))
                for v, lam in zip((a, b), lams)])
            # moving a vertex within its ball changes about its radius times
            # the integrand, taken that far inside the chord
            radius = ball.radius
            for lam, v in ((0, base), (1, tip)):
                if v[2]:
                    eps = v[2] / abs(delta)
                    x = abs(lam - eps)
                    radius += float(eps * abs(
                        (k + sum(n * mp.log(x - s) for n, s in zeros2))
                        * sum(m / (x - rho) for m, rho in zeros3)))
            return ComplexApprox(ball.value, radius)

        # a vertex is (position among the samples, t, radius, end index or
        # None); a crossing sits half-way between the samples around it
        def end(i, pos):
            return (pos, _location(ends[i]),
                    getattr(ends[i].location, "radius", 0.0), i)

        verts = [end(0, -1)]
        for v in sorted(
                [(k, points[k], 0.0, None)
                 for k in {*range(0, last, _POLYGON_STRIDE), last}]
                + [(bisect.bisect_right(path.sigmas, -c.sigma,
                                        key=operator.neg) - 0.5,
                    c.t.value, c.t.radius, None) for c in xs],
                key=operator.itemgetter(0)):
            if v[0] % 1 or v[1] != verts[-1][1]:
                verts.append(v)
        verts.append(end(1, last + 1))
        chords, seg = [], 0
        stack = [*zip(verts, verts[1:])][::-1]
        while stack:
            a, b = stack.pop()
            piece = chord(a, b, xs[seg - 1].sign if seg else 0,
                          -xs[seg].sign if seg < len(xs) else 0)
            if isinstance(piece, tuple):
                stack += [(piece, b), (a, piece)]
            else:
                chords.append((seg, a[1], b[1], piece))
                seg += b[0] % 1 != 0  # a crossing closes the stretch
        return chords


def reg_n3(Z, schedule, precision_bits=None):
    """Regulator of a curve-level cycle in the 3-cube at a fixed schedule.

    ``schedule`` is a PhaseSchedule, which is checked for admissibility here,
    or the ok AdmissibilityReport of one, which must come from this cycle at
    this precision.  The traced first cut loci and their crossings with the
    second cut are read from the report.  The k=1 term of the current (a
    holomorphic 2-form) vanishes identically on a complex curve and is
    skipped.  Each path is integrated from the pole of f_1 to its zero by
    one ``quadrature`` call, whose chords are summed.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if not (Z.is_curve_level and Z.n == 3):
        raise ChowregError("reg_n3 needs a curve-level cycle in the 3-cube")
    rep = _admitted(Z, schedule, precision_bits)
    _, eps2, eps3 = rep.schedule.phases
    with workprec(precision_bits):
        two_pi_i = _generator(1)
        total = 0
        total_err = 0.0
        breakdown = []
        for ci, comp in enumerate(Z.components):
            f1, _, f3 = comp.coords
            constant = f1.is_constant()
            crossings = [] if constant else rep.crossings[ci]

            # crossing sum P
            p_sum, logged = ComplexApprox(mp.mpc(0), 0.0), []
            for c in crossings:
                lg = log_eps(f3.eval(c.t, precision_bits), BranchSpec(eps3))
                p_sum = p_sum + c.sign * lg
                logged.append({"t": c.t, "sign": c.sign, "log_f3": lg})

            # line integral L, split at crossings, branch fixed by continuity
            line = ComplexApprox(mp.mpc(0), 0.0)
            if not (constant or f3.is_constant()):
                for path in rep.paths[ci]:
                    xs = [c for c in crossings if c.host_path is path]
                    for *_, piece in quadrature(comp, path, xs, eps2,
                                                 precision_bits):
                        line = line + piece
            breakdown.append({"component": ci, "mult": comp.mult,
                              "line_integral": line, "crossing_sum": p_sum,
                              "crossings": logged})
            if constant:
                continue
            # without crossings P is 0: L alone, and its radius alone
            total = _plus(total, _times(comp.mult, line.value - two_pi_i
                                        * p_sum.value if crossings
                                        else line.value))
            total_err += abs(comp.mult) * (line.radius + float(2 * mp.pi)
                                           * p_sum.radius if crossings
                                           else line.radius)
        canon, k = _canonical_mod_lattice(total, 2)
        return RegulatorValue(
            p=2,
            value=ComplexApprox(canon, total_err),
            schedule_used=rep.schedule,
            breakdown=breakdown,
            lattice_multiple=k,
            precision_bits=precision_bits,
        )


def intersection_number_n2(Z, schedule, precision_bits=None):
    """Signed crossing count of the two cut loci on a curve in the 2-cube,
    read from the admissibility report of the schedule.

    ``schedule`` is a PhaseSchedule or the ok AdmissibilityReport of one,
    which must come from this cycle at this precision."""
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if not (Z.is_curve_level and Z.n == 2):
        raise ChowregError("intersection_number_n2 needs a curve in the 2-cube")
    rep = _admitted(Z, schedule, precision_bits)
    return sum(Z.components[ci].mult * sum(c.sign for c in crossings)
               for ci, crossings in rep.crossings.items())


def regulator(Z, precision_bits=None, tol=1e-8, eps_start=0.3, seed=0):
    """Top-level pipeline: normalize if needed, find a schedule, evaluate at
    three bounds shrinking by a factor 3, check pairwise lattice agreement,
    and return the smallest-bound evaluation annotated with the agreement
    report."""
    _check_tolerance(tol)
    if precision_bits is None:
        precision_bits = mp.mp.prec
    with workprec(precision_bits):
        values, bound = [], mp.mpf(eps_start)
        if Z.is_point_level and Z.n == 1:
            for _ in range(3):
                values.append((bound, reg_n1(Z, bound / 2, precision_bits)))
                bound = bound / 3
            return _reconcile(values, 1, tol)
        if Z.is_curve_level and Z.n == 2:
            raise ChowregError(
                "curves in the 2-cube carry the chain-level intersection "
                "number; use intersection_number_n2")
        if not (Z.is_curve_level and Z.n == 3):
            raise ChowregError(f"no regulator evaluation for n={Z.n}, p={Z.p}")
        proper = check_face_proper(Z)
        if not proper["ok"]:
            raise PropernessError(f"cycle is not face-proper: {proper['violations']}")
        if not is_closed(Z, precision_bits):
            raise ChowregError("cycle is not closed; the regulator needs ker(boundary)")
        if not is_normalized(Z):
            Z = normalize(Z)
        for _ in range(3):
            # the accepted report is dropped once its schedule is evaluated
            rep = search_admissible(Z, bound, seed=seed,
                                    precision_bits=precision_bits)
            values.append((bound, reg_n3(Z, rep, precision_bits=precision_bits)))
            del rep
            bound = bound / 3
        return _reconcile(values, 2, tol)


def _check_tolerance(tol):
    """ChowregError unless the agreement tolerance is finite and >= 0."""
    if not 0 <= tol < math.inf:
        raise ChowregError(f"tolerance must be finite and >= 0, got {tol!r}")


def _pairwise_agreement(values, p, tol):
    """(a, b, lattice multiple, residual, ok) for every pair of values; a pair
    agrees when its difference mod the lattice is within the two error
    radii plus tol."""
    out = []
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            k, resid = lattice_difference(values[a].value.value,
                                          values[b].value.value, p)
            budget = values[a].value.radius + values[b].value.radius + tol
            out.append((a, b, k, float(resid), float(resid) <= budget))
    return out


def _reconcile(values, p, tol):
    """Pairwise lattice agreement of evaluations at shrinking bounds; refuses
    to return anything when they disagree beyond combined errors."""
    agreement = []
    for a, b, k, resid, ok in _pairwise_agreement([v for _, v in values], p, tol):
        agreement.append({"bounds": (float(values[a][0]), float(values[b][0])),
                          "lattice_multiple": k, "residual": resid, "ok": ok})
        if not ok:
            raise ChowregError(
                "evaluations at different schedules disagree beyond "
                f"combined errors (residual {resid:.3g}); this "
                "indicates a sign or transversality defect, refusing to "
                "average")
    final = values[-1][1]
    final.agreement = agreement
    return final


def phase_independence_check(Z, schedules, precision_bits=None, tol=1e-8):
    """Evaluate at each schedule and compare pairwise mod the lattice.
    ChowregError for no schedule or a tolerance that is not finite and
    >= 0."""
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if not (Z.is_curve_level and Z.n == 3 or Z.is_point_level and Z.n == 1):
        raise ChowregError("phase independence applies to n=1 or n=3 cycles")
    _check_tolerance(tol)
    with workprec(precision_bits):
        vals = [reg_n3(Z, s, precision_bits=precision_bits) if Z.n == 3
                else reg_n1(Z, s.phases[0], precision_bits) for s in schedules]
        if not vals:
            raise ChowregError("phase independence needs a schedule")
        pairs = [{"schedules": (a, b), "lattice_multiple": k, "residual": resid,
                  "ok": ok}
                 for a, b, k, resid, ok in _pairwise_agreement(vals, vals[0].p, tol)]
        return {"ok": all(p["ok"] for p in pairs), "pairs": pairs, "values": vals}


def _cf_minimal_denominator(x, max_order, tol):
    """Smallest denominator m <= max_order with |x - p/m| < tol/m, via the
    continued-fraction convergents of x (best approximations, so the first
    qualifying convergent has the minimal denominator).  tol is read
    exactly: a float is a dyadic rational, however small."""
    tol_f = Fraction(tol)
    n, d = x.numerator, x.denominator
    p, p_last, q, q_last = 1, 0, 0, 1
    while d:
        a, n, d = n // d, d, n % d
        p, p_last, q, q_last = a * p + p_last, p, a * q + q_last, q
        if q > max_order:
            return None
        if abs(x - Fraction(p, q)) < tol_f / q:
            return q, Fraction(p, q)
    return None


def _check_torsion_args(max_order, tol):
    """ChowregError unless max_order is finite and >= 1 and tol is finite
    and > 0: the arguments ``torsion_order`` accepts, checkable before any
    evaluation.  Every comparison with nan is false, so nan fails both."""
    if not 1 <= max_order < math.inf or not 0 < tol < math.inf:
        raise ChowregError("torsion_order needs a finite max_order >= 1 and "
                           f"a finite tol > 0, got {max_order!r} and {tol!r}")


def torsion_order(value, max_order=200, tol=1e-6):
    """Least m <= max_order with m * value in the lattice, with certificate
    q = value / (2*pi*i)^p recognized as a fraction of denominator m.  q is
    read at the value's own precision, whatever the caller's."""
    if not isinstance(value, RegulatorValue):
        raise ChowregError("torsion_order expects a RegulatorValue")
    _check_torsion_args(max_order, tol)
    v = value
    if v.value.radius >= tol / (2 * max_order):
        raise PrecisionError(
            "torsion recognition needs an error radius below "
            f"{tol / (2 * max_order):.3g}, have {v.value.radius:.3g}; "
            "raise the working precision")
    with mp.workprec(v.precision_bits or mp.mp.prec):
        q = v.q_value()
        if abs(q.imag) > tol:
            return TorsionResult(order=None, certificate=None,
                                 residual=float(abs(q.imag)))
        x = mpf_to_fraction(q.real)
    hit = _cf_minimal_denominator(x, max_order, tol)
    if hit is None:
        return TorsionResult(order=None, certificate=None, residual=float("nan"))
    den, approx = hit
    return TorsionResult(order=den, certificate=approx,
                         residual=float(abs(x - approx)))
