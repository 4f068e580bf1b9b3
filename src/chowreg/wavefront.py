"""Perturbed branch-cut geometry on parametrized curves.

For a curve component t -> (f_1(t), ..., f_n(t)) and phases (eps_1, ..., eps_n),
the cut locus of coordinate i is {t : arg f_i(t) = pi - eps_i}.  Each locus is
a family of |f_i| level sets: at log-radius sigma every point solves
f_i(t) = w with w = e^sigma e^(i(pi - eps_i)), giving one oriented path per
branch, running from a pole of f_i (r -> oo) to a zero (r -> 0).  Every
point placed on a locus (trace samples and crossings) is checked by
``RFEvaluator.is_resolved`` as it is placed: one within rounding of a zero or
pole raises PrecisionError.  The line integral places no point:
``regulator.quadrature`` takes it in closed form along a polygon from the
pole to the zero, through the trace samples of a traced path, and along a
Moebius path itself, a ray in the radius.

There are two kinds of path.  On a Moebius coordinate the path is
t = f_i^-1(w) for every radius in (0, oo), with the exact inverse
``RationalFunction.inverse``: nothing is sampled or solved up front.  On a
coordinate of higher degree the locus is traced over a fixed span of
log-radii: one full root solve seeds the branches at the largest radius and
each later sample is ``RFEvaluator.solve``, Newton on num_i - w den_i from
the branch's previous one.  A step that fails, or two branches that close in
on one another, end the trace with ScheduleError.

A crossing of the first locus with the second cut is a root of
Im(e^{i eps_2} f_2) as a function of the log-radius along the path, where
Re(e^{i eps_2} f_2) < 0.  On a Moebius path the roots are those of a real
polynomial P in the radius, read from f_2 in the exact chart w = f_1, with
a companion Q whose sign there tells the cut from the positive real axis.
Descartes's rule of signs on their coefficients rules most paths out at
once (Q without a negative coefficient on double images first,
``_off_the_cut``) and isolates the rest, its counts exact on the binary
values of P, Q and the bracket ends, in Python ints; a path on which P
vanishes to rounding and Q is negative runs along the cut and is refused.
Bracketed Newton on P in the reals finds each root: in doubles first, on
P's coefficients scaled by one power of two, and from that seed in working
precision for its last steps; the path is solved once per crossing, to
place it.  On a traced path the roots are bracketed by sign changes
between samples, and bracketed Newton along the path, one solve per step,
finds each one.  One quotient q = dlog f_2 / dlog f_1 at the crossing gives its
transversality and its sign, the sign of the crossing derivative of arg f_2
along the oriented path.

The regulator integrates along the first locus and sums over its crossings
with the second cut, so the pipeline traces coordinate 1 only.  Admissibility
is one rule: a value keeps an angular margin of CUT_MARGIN from its cut ray.
It is decided on doubles, the value and the ray's rotation each scaled by a
power of two (``numeric.double_image``), and at working precision only when
the double's slack lies within 2^-40 of zero, relative to the value's size:
a component keeps one record per value, its midpoint beside its image.  A
rotation e^{i eps}, its image and the direction e^{i(pi - eps)} of a cut
ray depend on one phase and the precision alone, so they are made once per
(phase, precision) in one bounded table (``_rotation``), and every check
and evaluation reads them from the phase it is handed.  The direction is
-conj(e^{i eps}), so the rotation puts its ray on the negative real axis
exactly.
A schedule depends only on its bound, n, lambda and precision, so
``make_schedule`` builds each one of the search's ladder once per
process.  The rule is applied to every critical value of f_i (f_i at the
roots of the Wronskian num' den - num den', factors shared with num den
removed exactly, plus f_i(oo) when the degrees agree), since a locus is a
smooth union of branches exactly when none lies on its ray, and to the few
other values ``admissible`` lists.  The report of an admissibility check
carries the coordinate-1 paths and crossings, which are all the evaluation
needs: ``search_admissible`` returns the report that accepted a schedule,
and evaluation reads its paths and crossings rather than tracing again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field

import mpmath as mp

from .cycles import FACET, _incidence
from .errors import ChowregError, ConvergenceError, PrecisionError, ScheduleError
from .field import CyclotomicNumber, embed
from .funcfield import INF, RFEvaluator
from .numeric import ComplexApprox, double_image, kept, workprec

TRACE_GRID_DEFAULT = 560
SIGMA_SPAN_DEFAULT = 56.0
SCHEDULE_ATTEMPTS = 12
# the angular margin (radians) every value admissibility checks keeps from
# its cut ray
CUT_MARGIN = 1e-9
_TAN_CUT_MARGIN = math.tan(CUT_MARGIN)
# a sign read from double images stands unless its quantity lies within
# this share of its scale of the threshold; there the working-precision
# test decides
_BAND = 2.0 ** -40


@dataclass(frozen=True)
class PhaseSchedule:
    """Phases (eps_1, ..., eps_n) controlling all branch cuts.

    Construction is permissive (diagnostic schedules with zero or equal phases
    are allowed); ``is_b_nested`` reports whether the strict nesting
    inequalities eps_1 < bound, eps_{k+1} < exp(-1/eps_k) hold.
    """

    eps_bound: object
    phases: tuple

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(mp.mpf(p) for p in self.phases))
        object.__setattr__(self, "eps_bound", mp.mpf(self.eps_bound))
        # every comparison with nan is false, so finiteness is tested first
        if not all(map(mp.isfinite, (self.eps_bound,) + self.phases)):
            raise ChowregError("phases and their bound must be finite")
        for p in self.phases:
            if p < 0:
                raise ChowregError("phases must be nonnegative")

    @property
    def n(self):
        return len(self.phases)

    def is_b_nested(self):
        if not self.phases:
            return True
        if not (0 < self.phases[0] < self.eps_bound):
            return False
        for k in range(len(self.phases) - 1):
            nxt = self.phases[k + 1]
            if nxt <= 0:
                return False
            # compare via logs: log(eps_{k+1}) < -1/eps_k
            if not (mp.log(nxt) < -1 / self.phases[k]):
                return False
        return True

    def describe(self):
        return [mp.nstr(p, 12) for p in self.phases]


def make_schedule(eps_bound, n, lam, precision_bits=None):
    """Nested schedule eps_1 = lam*bound, eps_{k+1} = lam*exp(-1/eps_k).

    The recursion collapses doubly-exponentially; when 1/eps_k exceeds
    2^(2^12), so that the next phase's binary exponent, about
    -1/(eps_k ln 2), takes thousands of bits to write, the construction
    fails at once with ScheduleError rather than spend seconds on a phase
    that no evaluation can use.  ``regulator``'s own search goes
    no deeper than 1/eps_2 of about 2^1004.

    ``eps_bound`` and ``lam`` are read at the caller's precision and the
    schedule is built at ``precision_bits`` (the caller's when None).  A
    schedule depends on nothing else, so each is built once per process
    (``_built_schedule``) and equal arguments return the same object; a
    refused one raises on every call.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    return _built_schedule(mp.mpf(eps_bound), n, mp.mpf(lam), precision_bits)


# the search's ladder is a few dozen schedules per precision; a bounded
# table keeps every one an evaluation at a few precisions reads
@functools.lru_cache(maxsize=128)
def _built_schedule(eps_bound, n, lam, precision_bits):
    """``make_schedule``'s schedule of the mpf ``eps_bound`` and ``lam``
    at ``precision_bits``, built once, so the mp.exp of each of its phases
    is taken once per process."""
    if not (0 < lam < 1):
        raise ChowregError("lambda must lie in (0, 1)")
    if not 0 < eps_bound < mp.inf or n < 1:
        raise ChowregError("need 0 < eps_bound < oo and n >= 1")
    with workprec(precision_bits):
        phases = [lam * eps_bound]
        for _ in range(n - 1):
            prev = phases[-1]
            inv = 1 / prev
            # exp(-inv) has a binary exponent of about -inv/log(2), and
            # computing it takes ln 2 to about log2(inv) bits: an exact
            # comparison with 2^(2^12), not one of log2(inv) with 2^12
            if inv > mp.ldexp(1, 2 ** 12):
                raise ScheduleError(
                    "schedule underflow: 1/eps exceeds 2^4096, so exp(-1/eps) "
                    "needs an exponent beyond any usable representation; use "
                    "a larger lambda*eps"
                )
            phases.append(lam * mp.exp(-inv))
        return PhaseSchedule(eps_bound, tuple(phases))


@dataclass
class TracedPath:
    """One branch of a cut locus, oriented pole -> zero (radius decreasing).

    ``direction`` is e^(i(pi - phase)), the direction of the cut ray, the
    one object ``_rotation`` keeps for the phase and precision.
    ``solve_at`` solves the defining equation at a log-radius of the path,
    so a crossing is placed on the exact path rather than interpolated.
    On a Moebius coordinate the path holds nothing more:
    ``sigmas`` and ``points`` are empty, and ``solve_at`` evaluates the
    exact inverse f^-1 (``RationalFunction.inverse``) at any log-radius.
    On a coordinate of higher degree they are the trace's samples,
    log-radii in decreasing order and the parameter values there, which
    bound and warm-start the solve, bracket crossings and are the vertices
    of the polygon the line integral runs along.  Along a Moebius path the
    other coordinates are read in the exact chart w = f_1 (``_chart``),
    with w = e^sigma direction.
    """

    coord_index: int
    direction: object
    evaluator: RFEvaluator
    sigmas: tuple = ()
    points: tuple = ()

    def _nearest_index(self, sigma):
        """The sample nearest to ``sigma``: the trace steps down from
        ``sigmas[0]`` on a uniform grid, so one rounded division finds it."""
        last = len(self.sigmas) - 1
        k = round(float(self.sigmas[0] - sigma) * last
                  / float(self.sigmas[0] - self.sigmas[-1]))
        return min(max(k, 0), last)

    def solve_at(self, sigma, floor=None):
        """The point of this branch where f(t) = w = e^sigma direction, as
        (t, num(t), den(t)).

        On a Moebius coordinate t = f^-1(w) from the inverse's evaluator,
        at any log-radius, and num(t) and den(t) are Horner passes; w = f(oo)
        has no finite point.  Else it runs ``RFEvaluator.solve``, the solver
        the trace itself steps with, warm-started from the nearest sample
        within the traced range, and returns num(t) and den(t) as the solve
        computed them.  A stalled solve or a critical point is a
        ConvergenceError; a point that ``is_resolved`` refuses at ``floor``
        (within rounding of a zero or pole of f, where dlog f divides by num
        or den) is a PrecisionError, as for a trace sample.
        """
        sigma, sigmas, ev = mp.mpf(sigma), self.sigmas, self.evaluator
        if sigmas and not sigmas[-1] <= sigma <= sigmas[0]:
            raise ChowregError(
                f"log-radius {mp.nstr(sigma, 8)} is outside the traced range "
                f"[{mp.nstr(sigmas[-1], 8)}, {mp.nstr(sigmas[0], 8)}]")
        w = mp.exp(sigma) * self.direction
        try:
            if sigmas:
                hit = ev.solve(self.points[self._nearest_index(sigma)], w,
                               mp.ldexp(1, 12 - mp.mp.prec), 60)
            else:
                t = ev.rf.inverse().evaluator(ev.precision_bits).value(w)
                hit = t, ev._horner(ev.nc, t), ev._horner(ev.dc, t)
        except ZeroDivisionError as exc:
            raise ConvergenceError(
                f"path refinement hit a critical point at log-radius "
                f"{float(sigma):.4f}") from exc
        if hit is None:
            raise ConvergenceError(
                f"path refinement stalled at log-radius {float(sigma):.4f}")
        return _resolved(ev, self.coord_index, hit, sigma, floor)

    def samples(self):
        """(sigma, t) at the log-radii of the trace grid: the stored
        samples of a traced branch, and on a Moebius coordinate its
        ``solve_at`` points.  A Moebius path lists the grid points the
        precision resolves: those where num(t) and den(t) exceed
        2^(-2 prec/3) max_k |c_k| |t|^k, so that their relative rounding
        error, and with it the distance of arg f(t) from the cut ray, stays
        below about 2^(-prec/3).  The runs of unresolved points next to the
        pole and the zero, at the ends of the grid, are dropped; an
        unresolved point between resolved ones, or none resolved, raises
        its error."""
        if self.points:
            return list(zip(self.sigmas, self.points))
        out = []
        with workprec(self.evaluator.precision_bits):
            floor = mp.mp.prec // 3 - mp.mp.prec
            for sigma in _trace_grid(mp.mp.prec):
                try:
                    out.append((sigma, self.solve_at(sigma, floor)[0]))
                except (PrecisionError, ConvergenceError) as exc:
                    out.append(exc)
        resolved = [k for k, s in enumerate(out) if isinstance(s, tuple)]
        kept = out[resolved[0]:resolved[-1] + 1] if resolved else out[:1]
        for s in kept:
            if isinstance(s, ChowregError):
                raise s
        return kept


def _resolved(ev, coord_index, hit, sigma, floor=None):
    """``hit`` = (t, num(t), den(t)) of a point at log-radius ``sigma`` on
    a locus of coordinate ``coord_index``, or PrecisionError when
    ``ev.is_resolved`` refuses it at ``floor``."""
    if not ev.is_resolved(*hit, floor=floor):
        raise PrecisionError(
            f"coordinate {coord_index}: the point t = {mp.nstr(hit[0], 8)} "
            f"at log-radius {float(sigma):.4f} rounds onto a zero or pole at "
            f"{ev.precision_bits} bits; raise the working precision")
    return hit


# one grid, about 100 KB of mpf, serves every trace and crossing search of
# an evaluation, which runs at one precision
@functools.lru_cache(maxsize=1)
def _trace_grid(prec):
    """The trace's log-radii at ``prec`` bits: SIGMA_SPAN_DEFAULT down to
    about its negative in TRACE_GRID_DEFAULT equal steps."""
    with workprec(prec):
        sigmas = [mp.mpf(SIGMA_SPAN_DEFAULT)]
        h = 2 * sigmas[0] / TRACE_GRID_DEFAULT
        for _ in range(TRACE_GRID_DEFAULT):
            sigmas.append(sigmas[-1] - h)
    return tuple(sigmas)


def _trace_step(ev, coord_index, direction, t, sigma):
    """The checked trace sample at log-radius ``sigma`` of the branch
    through the previous sample ``t``: the solve to 2^(16 - prec) in at most
    40 steps, ScheduleError when it fails and PrecisionError when
    ``_resolved`` refuses its point."""
    try:
        hit = ev.solve(t, mp.exp(sigma) * direction,
                       mp.ldexp(1, 16 - ev.precision_bits), 40)
    except ZeroDivisionError:
        hit = None
    if hit is None:
        raise ScheduleError(
            "non-generic phase: the trace lost a branch near radius "
            f"{mp.nstr(mp.e ** sigma, 8)}")
    return _resolved(ev, coord_index, hit, sigma)[0]


def _seed_roots(ev, w, precision_bits):
    """All roots of num - w den, a polynomial of degree >= 2, by a full
    root solve; ScheduleError when its degree drops (w near f(oo))."""
    d = ev.rf.degree_map
    nc = list(ev.nc) + [mp.mpc(0)] * (d + 1 - len(ev.nc))
    dc = list(ev.dc) + [mp.mpc(0)] * (d + 1 - len(ev.dc))
    poly = [a - w * b for a, b in zip(nc, dc)]
    # the leading coefficient cancels only when w hits the value of f at
    # infinity; compare against its forming terms, not the rest
    lead_scale = abs(nc[-1]) + abs(w) * abs(dc[-1])
    if abs(poly[-1]) < lead_scale * mp.ldexp(1, -precision_bits // 2):
        raise ScheduleError(
            "non-generic phase: degree drop at the seed radius "
            f"{mp.nstr(abs(w), 8)}")
    last_exc = None
    for steps, extra in ((120, precision_bits // 2),
                         (600, precision_bits),
                         (2400, 2 * precision_bits)):
        try:
            return mp.polyroots(poly[::-1], maxsteps=steps, extraprec=extra)
        except mp.libmp.NoConvergence as exc:
            last_exc = exc
    raise ConvergenceError(f"seed root solve failed: {last_exc}") from last_exc


def _check_coordinate_index(component, index):
    """ChowregError unless ``index`` names a coordinate of ``component``,
    an int, not a bool, counted from 1."""
    if not (type(index) is int and 1 <= index <= len(component.coords)):
        raise ChowregError(f"coordinate index must lie in "
                           f"1..{len(component.coords)}, got {index!r}")


def trace_wavefront(component, coord_index, phase, precision_bits=None):
    """All branches of {t : arg f_i(t) = pi - phase}.

    Returns one TracedPath per branch (deg of f_i as a map P^1 -> P^1 in
    total), each oriented pole -> zero.

    A Moebius f_i has one branch, and ``solve_at`` evaluates the exact
    inverse of f_i at every radius in (0, oo): the path is neither sampled
    nor solved here.

    A coordinate of higher degree is traced over the log-radii of the trace
    grid, SIGMA_SPAN_DEFAULT down to its negative: one full root
    solve seeds the branches at the largest radius, and each is continued
    by ``RFEvaluator.solve`` from its previous sample.  The trace is one
    pass: every sample, seeds included, is checked as it is produced, and
    one that ``is_resolved`` does not tell apart from a pole or zero of f_i
    at the working precision raises PrecisionError there.  A step that
    fails (no convergence or a critical point) raises ScheduleError naming
    the radius, and so do two branches whose distance shrinks by more than
    2^(-prec/2) in one step: they have collided or jumped onto one another,
    at a critical value on the ray near that radius.  ChowregError unless
    ``coord_index`` is a coordinate of the component, counted from 1.
    Every path of one phase and precision holds the one direction
    e^(i(pi - phase)) that ``_rotation`` keeps.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    _check_coordinate_index(component, coord_index)
    f = component.coords[coord_index - 1]
    if f.is_constant():
        raise ChowregError("cannot trace a constant coordinate")
    with workprec(precision_bits):
        ev = f.evaluator(precision_bits)
        direction = _rotation(phase, precision_bits)[2]
        if f.degree_map == 1:
            return [TracedPath(coord_index, direction, ev)]
        sigmas = _trace_grid(mp.mp.prec)
        collision_rel = mp.ldexp(1, -precision_bits // 2)
        current = [_resolved(ev, coord_index, (t, None, None), sigmas[0])[0]
                   for t in _seed_roots(ev, mp.exp(sigmas[0]) * direction,
                                        precision_bits)]
        branches = [[t] for t in current]
        for sigma in sigmas[1:]:
            moved = [_trace_step(ev, coord_index, direction, t, sigma)
                     for t in current]
            for a in range(len(moved)):
                for b in range(a + 1, len(moved)):
                    if (abs(moved[a] - moved[b])
                            < collision_rel * abs(current[a] - current[b])):
                        raise ScheduleError(
                            "non-generic phase: branch collision (critical "
                            "value on the cut ray) near radius "
                            f"{mp.nstr(mp.e ** sigma, 8)}")
            current = moved
            for branch, t in zip(branches, current):
                branch.append(t)
        return [TracedPath(coord_index, direction, ev, sigmas, tuple(points))
                for points in branches]


@dataclass
class WavefrontIntersection:
    """A transverse crossing of two cut loci on the curve."""

    t: ComplexApprox
    sign: int
    host_path: TracedPath
    sigma: object


# keyed on the phase's exact binary value, since an mpf's hash and equality
# run in Python: a precision sweep of five reads about 60 pairs, and the
# random equal phases of a search only pass through
@functools.lru_cache(maxsize=256)
def _rotations(phase, precision_bits):
    """``_rotation``'s entry for the phase's ``_mpf_`` (or a float)."""
    with mp.workprec(precision_bits):
        rot = mp.expj(mp.mpf(phase))
        return rot, double_image(rot), -rot.conjugate()


def _rotation(phase, precision_bits):
    """(e^{i phase}, its ``double_image``, the direction e^{i(pi - phase)}
    of the phase's cut ray), made once per phase and precision.  The
    direction is -conj(e^{i phase}), exact on the rounded rotation, so
    multiplying it by the rotation gives the real -|e^{i phase}|^2: the
    rotation puts the ray on the negative real axis bit for bit."""
    return _rotations(getattr(phase, "_mpf_", phase), precision_bits)


def _chart(comp, i, k):
    """Coordinate k of ``comp`` as an exact rational function of w = f_i,
    for a Moebius f_i: g_k = f_k o f_i^-1, composed with
    ``RationalFunction.inverse``.  Along a Moebius path of coordinate i,
    w = e^sigma direction.  No schedule or precision moves it, so it is
    built once and kept on the component.  Its numerator and denominator
    give the implicit equation den_g(w) y - num_g(w) = 0 of (f_i, f_k)."""
    return kept(comp, ("chart", i, k), lambda: comp.coords[k - 1].compose(
        comp.coords[i - 1].inverse()))


def find_pair_intersections(component, paths_i, j, phase_j,
                            precision_bits=None):
    """Crossings of the traced coordinate-i loci with the coordinate-j cut.

    A crossing is a root of g = Im(e^{i phase_j} f_j) along the path where
    Re(e^{i phase_j} f_j) < 0, and each is bracketed in log-radius first.
    On a Moebius path the brackets isolate the real roots of the polynomial
    P in the radius read from the chart of f_j (``_chart``,
    ``_moebius_brackets``), and a path whose coefficients already show no
    cut crossing gets none (on double images first when Q has no negative
    coefficient, ``_off_the_cut``); on a traced path they are consecutive
    samples between which g changes sign, counted half-open (zero counts as
    positive, so a sample on the cut is one crossing, not two), and where
    the value is not on the positive real axis at both samples.
    ``_refine_crossing`` then finds the root, on P in the reals or along
    the traced path, and drops it when f_j lies on the positive real axis
    there.  With q = dlog f_j / dlog f_i at the crossing, the crossing is
    transverse when |Im q| / |q| is above 2^(-prec/3), else ScheduleError;
    its sign is -sgn Im q, the sign of d(arg f_j)/du along the pole -> zero
    orientation of the host path.  ChowregError unless j is a coordinate
    of the component other than every host path's own.  The rotation
    e^{i phase_j} and its image are ``_rotation``'s.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    _check_coordinate_index(component, j)
    if any(path.coord_index == j for path in paths_i):
        raise ChowregError(f"coordinate {j} cannot cut its own cut locus")
    transversality_rel = mp.ldexp(1, -precision_bits // 3)
    out = []
    if component.coords[j - 1].is_constant():
        return out
    with workprec(precision_bits):
        f_j_ev = component.coords[j - 1].evaluator(precision_bits)
        rot_j, rot_image, _ = _rotation(phase_j, precision_bits)
        for path in paths_i:
            if path.points:
                pq, brackets = None, _sample_brackets(path, f_j_ev, rot_j)
            else:
                chart_ev = _chart(component, path.coord_index,
                                  j).evaluator(precision_bits)
                if _off_the_cut(chart_ev, path.direction, rot_image):
                    continue
                pq, brackets = _moebius_brackets(path, chart_ev, rot_j,
                                                 precision_bits)
            for bracket, hi_positive in brackets:
                hit = _refine_crossing(path, f_j_ev, rot_j, bracket,
                                       hi_positive, pq, precision_bits)
                if hit is None:
                    continue
                sigma, t_c, q = hit
                if abs(q.imag) < transversality_rel * abs(q):
                    raise ScheduleError(
                        "non-generic schedule: tangential cut crossing near "
                        f"t = {mp.nstr(t_c, 10)}"
                    )
                out.append(
                    WavefrontIntersection(
                        t=ComplexApprox(t_c, float(mp.ldexp(1, 24 - precision_bits)
                                                   * (1 + abs(t_c)))),
                        sign=-1 if q.imag > 0 else 1,
                        host_path=path,
                        sigma=sigma,
                    )
                )
    return out


def _sample_brackets(path, f_j_ev, rot_j):
    """((sigma_k, sigma_k+1), g >= 0 at sample k) for the consecutive
    samples of a traced path between which g = Im(rot_j f_j) changes sign,
    counted half-open, unless rot_j f_j is on the positive real axis at
    both."""
    vals = [f_j_ev.value(t) * rot_j for t in path.points]
    out = []
    for k in range(len(vals) - 1):
        a, b = vals[k], vals[k + 1]
        if (a.imag >= 0) == (b.imag >= 0):
            continue
        if a.real > 0 and b.real > 0:
            continue  # positive-axis crossing, not the cut
        out.append(((path.sigmas[k], path.sigmas[k + 1]), a.imag >= 0))
    return out


def _coefficient_images(chart_ev):
    """The coefficients of the numerator and of the denominator of the
    evaluator ``chart_ev``, a chart's or a coordinate's own, as Python
    complex numbers, or None when one that is not 0 has a size outside
    2^+-500.  No schedule moves them, so they are made once per precision
    and kept on the rational function."""

    def build():
        images = tuple([complex(c) for c in cs]
                       for cs in (chart_ev.nc, chart_ev.dc))
        inside = all(2.0 ** -500 < abs(z) < 2.0 ** 500 or c == 0
                     for cs, zs in zip((chart_ev.nc, chart_ev.dc), images)
                     for c, z in zip(cs, zs))
        return images if inside else None

    return kept(chart_ev.rf, ("coefficient_images", chart_ev.precision_bits),
                build)


def _off_the_cut(chart_ev, direction, rot_image):
    """Whether the first test of ``_moebius_brackets``, no negative
    coefficient in Q, holds, decided on doubles: the coefficients of the
    chart evaluator and the direction as Python complex numbers, the
    rotation as its ``double_image``.  Each coefficient q_k of Q is then
    off by about (2 k + 6) 2^-53 of its scale, the sum of |a_i| |b_l| over
    its terms times |rotation|, and the working-precision q_k by far less:
    True only when every q_k is above 2^-40 of its scale or a sum of exact
    zeros, so that the working-precision test holds too.  False, also for
    a coefficient of size outside 2^+-500, leaves the test to
    ``_moebius_brackets``."""
    images = _coefficient_images(chart_ev)
    if images is None:
        return False
    d, (a, b) = complex(direction), ([], [])
    for zs, out in zip(images, (a, b)):
        w = 1
        for z in zs:
            out.append(z * w)
            w *= d
    scale = _BAND * abs(rot_image)
    for k in range(len(a) + len(b) - 1):
        q, size = 0j, 0.0
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            term = a[i] * b[k - i].conjugate()
            q += term
            size += abs(term)
        if size and (rot_image * q).real <= scale * size:
            return False
    return True


def _moebius_brackets(path, chart_ev, rot_j, precision_bits):
    """((P, Q), brackets) along a Moebius path: the chart polynomials below,
    and ((s_hi, s_lo), g >= 0 at s_hi) for each root of
    g = Im(rot_j f_j) that may be a cut crossing, in decreasing log-radius.

    ``chart_ev`` evaluates f_j in the chart w = f_1 (``_chart``), and
    along the path w = r direction, so f_j = A(r) / B(r), the k-th
    coefficients of A and B those of its ``nc`` and ``dc`` times
    direction^k.  P(r) = Im(rot_j A conj(B)) = |B|^2 g is a real polynomial
    of degree at most 2 deg f_j; its factors of r are dropped, as r = 0 is
    no point of the path.  At a root rot_j f_j = Q / |B|^2 with
    Q = Re(rot_j A conj(B)), and the root is on the cut when Q < 0 there.
    Both are lists of coefficients, constant term first.

    The coefficients decide first, by Descartes's rule of signs on (0, oo):
    with no negative coefficient in Q (Q >= 0 for every r > 0), or no sign
    variation in P, the path has no cut crossing and no bracket.  When every
    coefficient of P lies within 2^(8 - prec) sum |a_i| sum |b_k| of zero,
    compared by binary magnitudes, f_j is real along the whole path to
    rounding, and Q(1) < 0 puts the path on the cut, not across it: that
    raises ScheduleError (non-generic schedule).  Else,
    by Cauchy's bound every root of P lies in the log-radii
    +-log(1 + max |p_k| / min(|p_0|, |p_n|)), and those in (0, oo) are
    isolated there by Descartes's rule on each bracket (Collins-Akritas):
    a bracket that holds several roots is halved in log-radius.  A bracket
    narrower than 2^(-prec/2) that still holds several roots is kept when P
    changes sign across it, as one crossing, and dropped else.  A bracket
    with one root on which Q has no sign variation and is positive holds a
    crossing of the positive real axis, not of the cut: it is dropped
    before it is split or refined.  The counts are exact on the binary
    values of P, Q and the bracket ends e^s: P and Q are written once as
    Python ints over one power of two (``_binary_ints``), and each bracket
    end's exponential is computed once.
    """
    powers = [path.direction ** k
              for k in range(max(len(chart_ev.nc), len(chart_ev.dc)))]
    a, b = ([c * w for c, w in zip(cs, powers)]
            for cs in (chart_ev.nc, chart_ev.dc))
    rotated = [rot_j * c for c in _poly_mul(a, [c.conjugate() for c in b])]
    p = [c.imag for c in rotated]
    q = [c.real for c in rotated]
    while p and not p[-1]:
        p.pop()
    while p and not p[0]:
        p.pop(0)
    if min(q) >= 0:
        return (p, q), []
    floor = 8 - precision_bits + max(map(mp.mag, a)) + max(map(mp.mag, b))
    if all(mp.mag(c) <= floor for c in p) and sum(q) < 0:
        raise ScheduleError(
            "non-generic schedule: the first cut locus runs along the "
            "second cut (Im(e^{i eps_2} f_2) vanishes to rounding on it)")
    if _variations(p) == 0:
        return (p, q), []
    (p_ints, _), (q_ints, _) = _binary_ints(p), _binary_ints(q)
    bound = mp.log(1 + max(map(abs, p)) / min(abs(p[0]), abs(p[-1])))
    min_width = mp.ldexp(1, -precision_bits // 2)
    out = []
    # bracket ends as (log-radius, radius)
    stack = [((bound, mp.exp(bound)), (-bound, mp.exp(-bound)))]
    while stack:
        hi, lo = stack.pop()
        (s_hi, r_hi), (s_lo, r_lo) = hi, lo
        roots = _sign_variations(p_ints, r_lo, r_hi)
        if roots == 0 or (roots == 1
                          and _sign_variations(q_ints, r_lo, r_hi) == 0
                          and mp.polyval(q[::-1], r_hi) > 0):
            continue
        if roots == 1 or s_hi - s_lo < min_width:
            hi_positive, lo_positive = (mp.polyval(p[::-1], r) >= 0
                                        for r in (r_hi, r_lo))
            if hi_positive != lo_positive:
                out.append(((s_hi, s_lo), hi_positive))
            continue
        s_mid = (s_hi + s_lo) / 2
        mid = (s_mid, mp.exp(s_mid))
        stack.append((mid, lo))
        stack.append((hi, mid))
    return (p, q), out


def _binary_ints(values):
    """(n, e) with values[k] = n[k] 2^e, Python ints n[k] and e the least
    binary exponent of the nonzero mpf values: their sign bits and
    mantissas, read from ``_mpf_`` (``mpf.man_exp`` drops the sign)."""
    parts = [v._mpf_ for v in values]
    e = min(exp for _, man, exp, _ in parts if man)
    return [(-man if sign else man) << (exp - e) if man else 0
            for sign, man, exp, _ in parts], e


def _poly_mul(a, b):
    """The product of two coefficient lists, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


def _taylor_shift(p, c):
    """Coefficients of p(x + c), constant term first; exact on Python
    ints."""
    p = list(p)
    for i in range(len(p) - 1):
        for k in range(len(p) - 2, i - 1, -1):
            p[k] += c * p[k + 1]
    return p


def _variations(coeffs):
    """Sign variations in a list of real coefficients, zeros skipped: by
    Descartes's rule of signs a bound on the number of positive roots, of
    the same parity, and exact when it is 0 or 1."""
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _sign_variations(p, a, b):
    """Sign variations in the coefficients of (1 + y)^n p((a + b y)/(1 + y)),
    n = len(p) - 1: by Descartes's rule of signs a bound on the number of
    roots of p in (a, b), of the same parity, and exact when it is 0 or 1.

    ``p`` holds Python ints (``_binary_ints``) and the ends are positive
    mpf values, written as a = A 2^e and b = B 2^e with Python ints A, B.
    With x = X 2^e, 2^(-e n) p(x) for e < 0, or p(x) for e >= 0, has the
    integer coefficients p_k 2^(e k - n min(e, 0)) in X, so the count is
    exact on the binary values of p, a and b."""
    (a, b), e = _binary_ints((a, b))
    n = len(p) - 1
    q = _taylor_shift([c << (e * k - n * min(e, 0)) for k, c in enumerate(p)],
                      a)
    scale = b - a
    q = [c * scale ** k for k, c in enumerate(q)]
    return _variations(_taylor_shift(q[::-1], 1))


def _refine_crossing(path, f_j_ev, rot_j, bracket, hi_positive, pq,
                     precision_bits):
    """The root of g(sigma) = Im(rot_j f_j(t(sigma))) in the log-radius
    bracket (s_hi, s_lo) of the path, with t(sigma) the path's
    ``solve_at``: (sigma, t, q) with q = dlog f_j / dlog f_i at t, or None
    when f_j lies on the positive real axis there rather than on its cut.

    ``rot_j`` is the second phase's ``_rotation``; g changes sign, counted
    half-open, across the bracket, and ``hi_positive`` is whether g >= 0 at
    s_hi.  Newton steps from a start in the bracket, and bisection replaces
    a step that leaves it.  Once a step falls below 2^(-prec/2), quadratic
    convergence puts the next iterate at the rounding floor, and that
    iterate is the crossing.

    On a Moebius path ``pq`` holds the chart polynomials (P, Q) of
    ``_moebius_brackets``, and the steps run on P(e^sigma), which has the
    sign of g, in the reals: no point of the path is placed until the root
    is found.  The start is the root in double precision
    (``_double_seed``), so the working-precision steps only finish the
    work: 2, 3 and 4 evaluations of P at 53, 128 and 256 bits where the
    middle of the bracket took about 7 to 9; the middle is the start when
    the double iteration fails.  The root is on the cut when Q < 0 there,
    and only then does one ``solve_at`` place it.  On a traced path ``pq``
    is None, Newton starts from the middle of the bracket and each step
    solves the path: along it dt/dsigma = 1 / dlog f_i, so the slope is
    g' = Im(rot_j f_j q).
    """
    f_i_ev = path.evaluator
    small = mp.ldexp(1, -precision_bits // 2)
    s_hi, s_lo = bracket
    seed = None
    if pq is not None:
        p, q_chart = (c[::-1] for c in pq)
        seed = _double_seed(p, s_hi, s_lo, hi_positive)
    sigma = ((s_hi + s_lo) / 2 if seed is None
             else min(max(mp.mpf(seed), s_lo), s_hi))
    converged = False
    # enough for bisection alone to bring a step below ``small``
    for _ in range(precision_bits):
        if pq is not None:
            r = mp.exp(sigma)
            g, slope = mp.polyval(p, r, derivative=True)
            slope *= r
        else:
            t, n, d = path.solve_at(sigma)
            v = f_j_ev.value(t) * rot_j
            q = f_j_ev.dlog(t) / f_i_ev.dlog(t, n, d)
            g, slope = v.imag, (v * q).imag
        if converged:
            break
        if (g >= 0) == hi_positive:
            s_hi = sigma
        else:
            s_lo = sigma
        nxt = sigma - g / slope if slope else None
        if nxt is None or not s_lo <= nxt <= s_hi:
            nxt = (s_hi + s_lo) / 2
        converged = abs(nxt - sigma) < small
        sigma = nxt
    else:
        raise ConvergenceError("crossing refinement did not converge")
    if pq is None:
        return (sigma, t, q) if v.real < 0 else None
    if mp.polyval(q_chart, r) >= 0:
        return None
    t, n, d = path.solve_at(sigma)
    return sigma, t, f_j_ev.dlog(t) / f_i_ev.dlog(t, n, d)


def _double_seed(p, s_hi, s_lo, hi_positive):
    """The root of P(e^sigma) in the log-radius bracket (s_hi, s_lo) to
    double precision, or None: ``_refine_crossing``'s safeguarded Newton
    iteration run in floats, on the coefficients of P (highest degree
    first) as doubles scaled by one power of two so that none overflows.
    It stops once a step falls below 2^-45 (1 + |sigma|), and fails when
    e^sigma overflows, a value is not finite or 120 steps do not get there.
    Its bracket updates follow the double signs of P, so the seed is only a
    start: the working-precision iteration keeps the whole bracket."""
    e = max(mp.mag(c) for c in p if c)
    cs = [float(mp.ldexp(c, -e)) for c in p]
    hi, lo = float(s_hi), float(s_lo)
    sigma = (hi + lo) / 2
    for _ in range(120):
        try:
            r = math.exp(sigma)
        except OverflowError:
            return None
        g = slope = 0.0
        for c in cs:
            slope = slope * r + g
            g = g * r + c
        slope *= r
        if not (math.isfinite(g) and math.isfinite(slope)):
            return None
        if (g >= 0) == hi_positive:
            hi = sigma
        else:
            lo = sigma
        nxt = sigma - g / slope if slope else None
        if nxt is None or not lo <= nxt <= hi:
            nxt = (hi + lo) / 2
        if abs(nxt - sigma) < 2.0 ** -45 * (1 + abs(sigma)):
            return nxt
        sigma = nxt
    return None


@dataclass
class AdmissibilityFailure:
    kind: str
    component: int
    detail: str
    witness: object = None

    def to_dict(self):
        """The failure as plain data; the witness's midpoint is printed as
        it was computed, at the precision of the check, whatever the
        caller's precision."""
        w = None
        if self.witness is not None:
            v = self.witness.value
            w = {"re": mp.nstr(v.real, 20), "im": mp.nstr(v.imag, 20)}
        return {"kind": self.kind, "component": self.component,
                "detail": self.detail, "witness": w}


@dataclass
class AdmissibilityReport:
    """Verdict of ``admissible``.  ``paths`` and ``crossings`` hold, per
    component index, the traced coordinate-1 branches and their crossings with
    the second cut; evaluation reads them from an ok report."""

    ok: bool
    failures: list
    schedule: PhaseSchedule
    warnings: list = dataclass_field(default_factory=list)
    paths: dict = dataclass_field(default_factory=dict, repr=False)
    crossings: dict = dataclass_field(default_factory=dict, repr=False)

    def to_dict(self):
        return {
            "ok": self.ok,
            "phases": self.schedule.describe(),
            "failures": [f.to_dict() for f in self.failures],
            "warnings": [f.to_dict() for f in self.warnings],
        }


def _on_cut_margin(value, rot):
    """Angular distance of a nonzero finite mpc value from a cut ray, given
    the ray's phase as its ``_rotation``: |arg(rot value) - pi|, with the
    difference wrapped to (-pi, pi]."""
    return float(abs(mp.arg(-value * rot)))


def _in_sector(value, rot):
    """Whether -rot value lies in the sector |Im| <= tan(CUT_MARGIN) Re
    around the positive real axis, at the working precision."""
    w = -value * rot
    return abs(w.imag) <= _TAN_CUT_MARGIN * w.real


def _near_cut(value, rot, image, rot_image):
    """Whether ``_on_cut_margin(value, rot)`` is below CUT_MARGIN, decided
    without an arctangent: the sector test ``_in_sector``, on doubles
    first.

    ``image`` and ``rot_image`` are the ``double_image``s of value and rot,
    and w = -image rot_image is -rot value scaled by a power of two, to a
    few units of 2^-53 |w|.  The sector test on w decides when its slack
    tan(CUT_MARGIN) Re w - |Im w| lies outside _BAND |w| of zero, a band far
    wider than that error and than the working-precision rounding of
    -rot value; inside the band ``_in_sector`` decides at the working
    precision.  So the verdict is the one of ``_in_sector`` at every input
    and precision."""
    w = -image * rot_image
    slack = _TAN_CUT_MARGIN * w.real - abs(w.imag)
    if abs(slack) > _BAND * abs(w):
        return slack > 0
    return _in_sector(value, rot)


def _coordinate_value_at(component, j, point):
    """Coordinate j at a ``DivisorPoint``; returns mpc, INF, or exact zero.

    At a numeric cluster where ``cycles._incidence`` finds coordinate j 0 or
    oo, the value is decided exactly, not read from a rounded residue: INF
    when the cluster's squarefree factor shares a factor with its
    denominator, 0 else."""
    f = component.coords[j - 1]
    if not point.is_exact and _incidence(f, point) == FACET:
        return INF if point.factor.gcd(f.den).degree > 0 else 0
    v = f.eval(point.location)
    if isinstance(v, CyclotomicNumber):
        return 0 if v.is_zero() else embed(v, mp.mp.prec).value
    return v.value if isinstance(v, ComplexApprox) else v


def _off_cut_entries(comp, precision_bits):
    """(k, kind, value, witness, detail, image) for each value of ``comp``
    that ``admissible`` keeps off cut ray k at every schedule, built once
    per precision and kept on the component: ``value`` is the mpc midpoint
    and ``image`` its ``double_image``.  A zero or pole of a coordinate
    other than f_1 is a facet parameter (f_1 there keeps off the first
    ray), and one of f_1 is an endpoint of the first locus (f_k there keeps
    off ray k); a value 0 or oo there lies on no ray."""

    def build():
        entries, facets = [], []
        f1 = comp.coords[0]
        with workprec(precision_bits):
            for i, f in enumerate(comp.coords, 1):
                if f.is_constant():
                    cval = embed(f.constant_value(), precision_bits)
                    entries.append((i, "constant-on-cut", cval.value, cval,
                                    f"coordinate {i} is constant on its cut"))
                    continue
                entries += [(i, "critical-value", value.value, point,
                             f"coordinate {i} has a critical value on its cut")
                            for point, value in f.critical_values(precision_bits)]
                if i > 1 and not f1.is_constant():
                    facets += [(1, pt, "face-on-cut", f"coordinate {i} "
                                "facet parameter lies on the first cut")
                               for pt in f.divisor(precision_bits)]
            if not f1.is_constant():
                facets += [(k, pt, "endpoint-on-cut", "endpoint of the "
                            f"first cut locus lies on cut {k}")
                           for pt in f1.divisor(precision_bits)
                           for k in range(2, comp.n + 1)]
            for k, pt, kind, detail in facets:
                v = _coordinate_value_at(comp, k, pt)
                if v is not INF and v != 0:
                    witness = None if pt.is_exact else pt.location
                    entries.append((k, kind, mp.mpc(v), witness, detail))
        # one value on one ray is one fact: a constant coordinate is also its
        # value at every endpoint, and f_k(oo) can be both a critical value and
        # an endpoint value; the first entry listed reports it
        firsts = {}
        for entry in entries:
            firsts.setdefault((entry[0], entry[2]), entry)
        return [entry + (double_image(entry[2]),) for entry in firsts.values()]
    return kept(comp, ("off_cut", precision_bits), build)


def _keep_off_cuts(entries, rots, ci, failures, warnings):
    """The one rule of ``admissible``: each entry (k, kind, value, witness,
    detail, image) keeps its value an angular margin of CUT_MARGIN from cut
    ray k, else it fails with its kind, as a warning for an endpoint on a
    cut beyond the second, which no nested cut-prefix condition reaches.
    ``image`` is the ``double_image`` of the value, and ``rots[k - 1]`` is
    (rotation, its image, direction) for ray k (``_rotation``):
    ``_near_cut`` decides most entries in doubles, and at working precision
    those whose slack falls in its band."""
    for k, kind, value, witness, detail, image in entries:
        rot, rot_image, _ = rots[k - 1]
        if _near_cut(value, rot, image, rot_image):
            margin = _on_cut_margin(value, rot)
            (warnings if kind == "endpoint-on-cut" and k > 2
             else failures).append(AdmissibilityFailure(
                 kind, ci, f"{detail} (margin {margin:.2e})", witness))


def admissible(Z, schedule, precision_bits=None):
    """Check proper position of a curve precycle with respect to the perturbed
    cuts of a specific schedule.

    One rule decides (``_keep_off_cuts``): per component, the constant
    coordinates, the critical values of the others (so every cut locus is
    a smooth union of branches), f_1 at the facet parameters, the
    coordinates >= 2 at the endpoints of the first locus and, at each
    crossing of the first locus with the second cut, the coordinates >= 3
    (no triple point) keep an angular margin of CUT_MARGIN from their cut
    rays.  All but the last are built once per component and precision
    (``_off_cut_entries``), each with the double image the margin test
    reads first.  A crossing must also be transverse.

    Only the first locus is traced, and only for a component that no entry
    has failed yet (a warning does not count): the schedule is refused
    already, so a failed component's report lists the kinds of its off-cut
    entries and no trace, tangency or triple-point failure.  The paths and
    crossings of the traced components are kept in the report for
    evaluation.  A PrecisionError from the trace propagates: no other
    schedule can repair a working precision that is too low.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if not Z.is_curve_level:
        raise ChowregError("admissibility applies to curve-level precycles")
    if schedule.n != Z.n:
        raise ChowregError(f"schedule has {schedule.n} phases, cycle needs {Z.n}")
    failures, warnings, paths, crossings = [], [], {}, {}
    with workprec(precision_bits):
        rots = [_rotation(p, precision_bits) for p in schedule.phases]
        for ci, comp in enumerate(Z.components):
            failed = len(failures)
            _keep_off_cuts(_off_cut_entries(comp, precision_bits), rots, ci,
                           failures, warnings)
            if comp.coords[0].is_constant() or len(failures) > failed:
                continue
            try:
                paths[ci] = trace_wavefront(comp, 1, schedule.phases[0],
                                            precision_bits=precision_bits)
            except (ScheduleError, ConvergenceError) as exc:
                failures.append(AdmissibilityFailure(
                    "trace", ci, f"coordinate 1: {exc}"))
                continue
            if Z.n < 2:
                continue
            try:
                crossings[ci] = find_pair_intersections(
                    comp, paths[ci], 2, schedule.phases[1],
                    precision_bits=precision_bits)
            except ScheduleError as exc:
                failures.append(AdmissibilityFailure("tangency", ci, str(exc)))
                crossings[ci] = []
            triples = []
            for c in crossings[ci]:
                for k, f in enumerate(comp.coords[2:], 3):
                    # f has no pole at a crossing: the face-on-cut
                    # entries keep f_1 at its poles off the first ray
                    v = f.evaluator(precision_bits).value(c.t.value)
                    if v != 0:
                        triples.append((k, "triple", v, c.t,
                                        f"triple point: cuts 1,2,{k} meet",
                                        double_image(v)))
            _keep_off_cuts(triples, rots, ci, failures, warnings)
    return AdmissibilityReport(ok=not failures, failures=failures,
                               schedule=schedule, warnings=warnings,
                               paths=paths, crossings=crossings)


def search_admissible(Z, eps_start=0.3, seed=0, precision_bits=None):
    """Find a nested schedule at which the cycle is admissible and return
    the ok admissibility report that accepted it.

    Deterministic for a fixed seed: a fixed ladder of lambda values and
    shrinking bounds, with seed-derived jitter on later attempts.  Exhausting
    the attempt budget raises ScheduleError carrying the last failure report;
    failure does not certify inadmissibility.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    base_lams = [0.5, 0.35, 0.65, 0.8, 0.25, 0.45, 0.7, 0.3, 0.55, 0.6]
    rng_state = (seed * 2654435761 + 1013904223) % (2 ** 32)
    lams = []
    for k in range(SCHEDULE_ATTEMPTS):
        if k < len(base_lams):
            lams.append(base_lams[k])
        else:
            rng_state = (rng_state * 1664525 + 1013904223) % (2 ** 32)
            lams.append(0.2 + 0.6 * (rng_state / 2 ** 32))
    last_report = None
    eps = mp.mpf(eps_start)
    with workprec(precision_bits):
        for k, lam in enumerate(lams):
            try:
                s = make_schedule(eps, Z.n, lam, precision_bits)
            except ScheduleError:
                eps = eps * mp.mpf("0.6")
                continue
            report = admissible(Z, s, precision_bits=precision_bits)
            if report.ok:
                return report
            last_report = report
            if (k + 1) % 3 == 0:
                eps = eps * mp.mpf("0.6")
    detail = ""
    if last_report is not None:
        detail = "; last failures: " + "; ".join(
            f.kind + " (component " + str(f.component) + ")"
            for f in last_report.failures[:4])
    raise ScheduleError(
        f"no admissible schedule found in {SCHEDULE_ATTEMPTS} attempts from "
        f"bound {eps_start}{detail}")


def search_schedule(Z, eps_start=0.3, seed=0, precision_bits=None):
    """The schedule of ``search_admissible``'s accepted report."""
    return search_admissible(Z, eps_start, seed=seed,
                             precision_bits=precision_bits).schedule
