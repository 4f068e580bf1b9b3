"""Perturbed branch-cut geometry on parametrized curves.

For a curve component t -> (f_1(t), ..., f_n(t)) and phases (eps_1, ..., eps_n),
the cut locus of coordinate i is {t : arg f_i(t) = pi - eps_i}.  Each locus is
traced as |f_i| level sets: for log-spaced radii r we solve f_i(t) = w with
w = r * exp(i(pi - eps_i)) and join solutions by nearest-neighbor
continuation, giving one oriented path per branch, running from a pole of f_i
(r -> oo) to a zero (r -> 0).  On a Moebius coordinate the level-set
polynomial num_i - w den_i is linear and each point is its root in closed
form, t = (w d0 - n0) / (n1 - w d1), seed included.  On a coordinate of
higher degree the seed comes from a full root solve and each later point
from Newton on num_i - w den_i, warm-started from the previous sample.
Crossings of the first locus with the second cut are refined by a
two-dimensional Newton iteration on the two argument conditions; their sign
is the sign of the crossing derivative of arg f_2 along the oriented path.

The regulator integrates along the first locus and sums over its crossings
with the second cut, so the pipeline traces coordinate 1 only.  Admissibility
checks every coordinate exactly instead: a locus is a smooth union of branches
exactly when no critical value of f_i lies on its ray, and the critical values
are f_i at the roots of the Wronskian num' den - num den' (factors shared with
num den removed exactly) plus f_i(oo) when the degrees agree.  The report of
an admissibility check carries the coordinate-1 paths and crossings, which
are all the evaluation needs: ``search_admissible`` returns the report that
accepted a schedule, and evaluation reads its paths and crossings rather than
tracing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import mpmath as mp

from .errors import ChowregError, ConvergenceError, PrecisionError, ScheduleError
from .field import CyclotomicNumber, embed
from .funcfield import INF, RFEvaluator, roots_numeric
from .numeric import ComplexApprox, workprec

TRACE_GRID_DEFAULT = 560
SIGMA_SPAN_DEFAULT = 56.0
SCHEDULE_ATTEMPTS = 12


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

    The recursion collapses doubly-exponentially; when the next phase would
    need an exponent beyond any sane representation the construction fails
    loudly rather than producing zeros.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    eps_bound = mp.mpf(eps_bound)
    lam = mp.mpf(lam)
    if not (0 < lam < 1):
        raise ChowregError("lambda must lie in (0, 1)")
    if eps_bound <= 0 or n < 1:
        raise ChowregError("need eps_bound > 0 and n >= 1")
    with workprec(precision_bits):
        phases = [lam * eps_bound]
        for _ in range(n - 1):
            prev = phases[-1]
            inv = 1 / prev
            # exp(-inv) has a binary exponent of about -inv/log(2); keep the
            # exponent integer itself representable in sane memory
            if mp.log(inv, 2) > mp.mpf(2) ** 20:
                raise ScheduleError(
                    "schedule underflow: exp(-1/eps) needs an exponent beyond "
                    "any usable representation; use a larger lambda*eps or "
                    "higher precision"
                )
            phases.append(lam * mp.exp(-inv))
        return PhaseSchedule(eps_bound, tuple(phases))


@dataclass
class TracedPath:
    """One branch of a cut locus, oriented pole -> zero (radius decreasing).

    ``sigmas`` are log-radii in decreasing order; ``points`` the corresponding
    parameter values.  ``point_at`` re-solves the defining equation at any
    log-radius, so downstream quadrature can sample the exact path rather
    than interpolating.  It runs ``RFEvaluator.solve``, the solver the trace
    itself steps with: in closed form on a Moebius coordinate, and else by
    Newton warm-started from the nearest sample.  ``solve_at`` also hands on
    the num(t) and den(t) that the solve computed.
    """

    coord_index: int
    phase: object
    evaluator: RFEvaluator
    sigmas: list
    points: list
    arg_residuals: list
    _direction: object = dataclass_field(default=None, repr=False)

    def __post_init__(self):
        if self._direction is None:
            self._direction = mp.expj(mp.pi - mp.mpf(self.phase))

    @property
    def sigma_hi(self):
        return self.sigmas[0]

    @property
    def sigma_lo(self):
        return self.sigmas[-1]

    def _nearest_index(self, sigma):
        """The sample nearest to ``sigma``: the trace steps down from
        ``sigmas[0]`` on a uniform grid, so one rounded division finds it."""
        last = len(self.sigmas) - 1
        k = round(float(self.sigmas[0] - sigma) * last
                  / float(self.sigmas[0] - self.sigmas[-1]))
        return min(max(k, 0), last)

    def _newton_to(self, t, sigma, tol):
        w = mp.exp(mp.mpf(sigma)) * self._direction
        try:
            hit = self.evaluator.solve(t, w, tol, 60)
        except ZeroDivisionError as exc:
            raise ConvergenceError(
                f"path refinement hit a critical point at log-radius "
                f"{float(sigma):.4f}") from exc
        if hit is None:
            raise ConvergenceError(
                f"path refinement stalled at log-radius {float(sigma):.4f}"
            )
        return hit

    def point_at(self, sigma, tol=None):
        """Solve f(t) = e^sigma * e^(i(pi-phase)) on this branch."""
        return self.solve_at(sigma, tol)[0]

    def solve_at(self, sigma, tol=None):
        """``point_at`` as (t, num(t), den(t)), the last two as the solve
        computed them."""
        if tol is None:
            tol = mp.mpf(2) ** (12 - mp.mp.prec)
        sigma = mp.mpf(sigma)
        if sigma > self.sigmas[0] or sigma < self.sigmas[-1]:
            raise ChowregError(
                f"log-radius {mp.nstr(sigma, 8)} is outside the traced range "
                f"[{mp.nstr(self.sigmas[-1], 8)}, {mp.nstr(self.sigmas[0], 8)}]")
        start = None
        if self.evaluator.linear is None:
            start = self.points[self._nearest_index(sigma)]
        return self._newton_to(start, sigma, tol)


def _chordal(a, b):
    if a is None or b is None:
        return float("inf")
    return float(abs(a - b) / mp.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2)))


def _match_nearest(points, candidates):
    """Assign each point the nearest candidate; small sets, brute force on
    conflicts."""
    if len(candidates) <= 1:
        return [0] * len(points)
    choice = []
    for t in points:
        dists = [_chordal(t, c) for c in candidates]
        choice.append(dists.index(min(dists)))
    return choice


def trace_wavefront(component, coord_index, phase, grid=None,
                    precision_bits=None):
    """Trace all branches of {t : arg f_i(t) = pi - phase}.

    Returns one TracedPath per branch (deg of f_i as a map P^1 -> P^1 in
    total), each oriented pole -> zero.  A critical value of f_i on the ray
    (two branches colliding) raises ScheduleError naming the radius; a sample
    that the working precision cannot tell apart from a pole or zero of f_i
    (``RFEvaluator.resolved_value``) raises PrecisionError.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if grid is None:
        grid = TRACE_GRID_DEFAULT
    f = component.coords[coord_index - 1]
    if f.is_constant():
        raise ChowregError("cannot trace a constant coordinate")
    with workprec(precision_bits):
        ev = RFEvaluator(f, precision_bits)
        d = f.degree_map
        direction = mp.expj(mp.pi - mp.mpf(phase))
        sigma_hi = mp.mpf(SIGMA_SPAN_DEFAULT)
        sigma_lo = -mp.mpf(SIGMA_SPAN_DEFAULT)
        steps = int(grid)
        h = (sigma_hi - sigma_lo) / steps
        tol = mp.mpf(2) ** (16 - precision_bits)
        collision_tol = mp.mpf(2) ** (-precision_bits // 2)

        def w_at(sigma):
            return mp.exp(sigma) * direction

        def full_solve(sigma):
            w = w_at(sigma)
            coeffs_asc = list(ev.nc) + [mp.mpc(0)] * (d + 1 - len(ev.nc))
            dco = list(ev.dc) + [mp.mpc(0)] * (d + 1 - len(ev.dc))
            poly = [a - w * b for a, b in zip(coeffs_asc, dco)]
            # the leading coefficient cancels only when w hits the value of f
            # at infinity; compare against its forming terms, not the rest
            lead_scale = abs(coeffs_asc[-1]) + abs(w) * abs(dco[-1])
            if abs(poly[-1]) < lead_scale * mp.mpf(2) ** (-precision_bits // 2):
                return None  # degree drop; caller jitters sigma
            last_exc = None
            for steps, extra in ((120, precision_bits // 2),
                                 (600, precision_bits),
                                 (2400, 2 * precision_bits)):
                try:
                    return mp.polyroots(list(reversed(poly)), maxsteps=steps,
                                        extraprec=extra)
                except mp.libmp.NoConvergence as exc:
                    last_exc = exc
            raise ConvergenceError(
                f"seed root solve failed: {last_exc}") from last_exc

        def seed_solve(sigma):
            if ev.linear is None:
                return full_solve(sigma)
            try:
                hit = ev.solve(None, w_at(sigma), tol, 40)
            except ZeroDivisionError:
                return None  # w = f(oo): degree drop
            if hit is None:
                raise ConvergenceError("seed solve stalled")
            return [hit[0]]

        # seed at the largest radius, jittering past degree-drop radii
        sigma0 = sigma_hi
        roots = None
        for _ in range(6):
            roots = seed_solve(sigma0)
            if roots is not None:
                break
            sigma0 += h / 7
        if roots is None:
            raise ScheduleError("could not seed the trace: persistent degree drop")

        branches = [[(sigma0, r)] for r in roots]
        current = list(roots)
        sigma = sigma0
        while sigma > sigma_lo + h / 2:
            sigma = sigma - h
            w = w_at(sigma)
            new_pts = []
            for t in current:
                try:
                    hit = ev.solve(t, w, tol, 40)
                except ZeroDivisionError:
                    hit = None
                new_pts.append(None if hit is None else hit[0])
            ok = all(t is not None for t in new_pts)
            # detect collisions / lost branches
            if ok and d > 1:
                for a in range(d):
                    for b in range(a + 1, d):
                        if abs(new_pts[a] - new_pts[b]) < collision_tol * (
                            1 + abs(new_pts[a])
                        ):
                            ok = False
            if not ok:
                solved = full_solve(sigma)
                if solved is None:
                    raise ScheduleError(
                        "non-generic phase: degree drop while tracing at radius "
                        f"{mp.nstr(mp.e ** sigma, 8)}"
                    )
                assign = _match_nearest(current, solved)
                if len(set(assign)) != len(current):
                    raise ScheduleError(
                        "non-generic phase: branch collision (critical value on "
                        f"the cut ray) near radius {mp.nstr(mp.e ** sigma, 8)}"
                    )
                new_pts = [solved[k] for k in assign]
            current = new_pts
            for k in range(d):
                branches[k].append((sigma, current[k]))

        rot = _rotation(phase)
        paths = []
        for samples in branches:
            sigmas = [s for s, _ in samples]
            points = [t for _, t in samples]
            residuals = []
            for s, t in samples:
                val = ev.resolved_value(t)
                if val is None:
                    raise PrecisionError(
                        f"coordinate {coord_index}: traced sample t = "
                        f"{mp.nstr(t, 8)} at radius {mp.nstr(mp.e ** s, 8)} is "
                        f"not told apart from a pole or zero at {precision_bits} "
                        "bits; raise the working precision")
                residuals.append(_on_cut_margin(val, rot))
            paths.append(
                TracedPath(
                    coord_index=coord_index,
                    phase=mp.mpf(phase),
                    evaluator=ev,
                    sigmas=sigmas,
                    points=points,
                    arg_residuals=residuals,
                )
            )
        return paths


@dataclass
class WavefrontIntersection:
    """A transverse crossing of two cut loci on the curve."""

    t: ComplexApprox
    sign: int
    host_path: TracedPath
    sigma: object


def _rotation(phase):
    """e^{i phase} at the working precision: multiplying a value by it puts
    the phase's cut ray on the negative real axis."""
    return mp.expj(mp.mpf(phase))


def _principal_arg_residual(value, rot):
    """arg(rot value) - pi, wrapped to (-pi, pi]; ``rot`` is the phase's
    ``_rotation``."""
    return mp.arg(-value * rot)


def find_pair_intersections(component, paths_i, j, phase_j,
                            precision_bits=None):
    """Crossings of the traced coordinate-i loci with the coordinate-j cut.

    The crossing sign is the sign of d(arg f_j)/du along the pole -> zero
    orientation of the host path; tangential crossings raise ScheduleError.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    transversality_rel = float(mp.mpf(2) ** (-precision_bits // 3))
    out = []
    if component.coords[j - 1].is_constant():
        return out
    with workprec(precision_bits):
        f_j_ev = RFEvaluator(component.coords[j - 1], precision_bits)
        rot_j = _rotation(phase_j)
        for path in paths_i:
            f_i_ev = path.evaluator
            ims = []
            res = []
            for t in path.points:
                v = f_j_ev.value(t) * rot_j
                ims.append(v.imag)
                res.append(v.real)
            for k in range(len(ims) - 1):
                a, b = ims[k], ims[k + 1]
                if a == 0 and b == 0:
                    continue
                if (a > 0 and b > 0) or (a < 0 and b < 0):
                    continue
                if res[k] > 0 and res[k + 1] > 0:
                    continue  # positive-axis crossing, not the cut
                t_c = _refine_crossing(path, f_j_ev, rot_j, path.sigmas[k],
                                       path.sigmas[k + 1], precision_bits)
                if t_c is None:
                    continue
                g_i = f_i_ev.dlog(t_c)
                g_j = f_j_ev.dlog(t_c)
                cross = (mp.conj(g_i) * g_j).imag
                rel = float(abs(cross) / (abs(g_i) * abs(g_j)))
                if rel < transversality_rel:
                    raise ScheduleError(
                        "non-generic schedule: tangential cut crossing near "
                        f"t = {mp.nstr(t_c, 10)}"
                    )
                sign = -1 if cross > 0 else 1
                dup = False
                for prev in out:
                    if prev.host_path is path and abs(prev.t.value - t_c) < mp.mpf(2) ** (
                        -precision_bits // 2
                    ) * (1 + abs(t_c)):
                        dup = True
                        break
                if dup:
                    continue
                fi_val = f_i_ev.value(t_c)
                out.append(
                    WavefrontIntersection(
                        t=ComplexApprox(t_c, float(mp.mpf(2) ** (24 - precision_bits)
                                                   * (1 + abs(t_c)))),
                        sign=sign,
                        host_path=path,
                        sigma=mp.log(abs(fi_val)),
                    )
                )
    return out


def _refine_crossing(path, f_j_ev, rot_j, s_hi, s_lo, precision_bits):
    """Bisection bracket then 2d Newton on both argument conditions;
    ``rot_j`` is the second phase's ``_rotation``."""
    f_i_ev = path.evaluator
    rot_i = _rotation(path.phase)

    def im_j(sigma):
        return (f_j_ev.value(path.point_at(sigma)) * rot_j).imag

    a, b = s_hi, s_lo
    fa = im_j(a)
    for _ in range(14):
        m = (a + b) / 2
        fm = im_j(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    t = path.point_at((a + b) / 2)
    tol = mp.mpf(2) ** (16 - precision_bits)
    for _ in range(80):
        r1 = _principal_arg_residual(f_i_ev.value(t), rot_i)
        r2 = _principal_arg_residual(f_j_ev.value(t), rot_j)
        if abs(r1) < tol and abs(r2) < tol:
            break
        g1 = f_i_ev.dlog(t)
        g2 = f_j_ev.dlog(t)
        det = g1.imag * g2.real - g1.real * g2.imag
        if det == 0:
            return None
        dx = (-r1 * g2.real + r2 * g1.real) / det
        dy = (-g1.imag * r2 + g2.imag * r1) / det
        t = t + mp.mpc(dx, dy)
    else:
        raise ConvergenceError("crossing refinement did not converge")
    v = f_j_ev.value(t) * rot_j
    if v.real >= 0:
        return None
    return t


@dataclass
class AdmissibilityFailure:
    kind: str
    component: int
    detail: str
    witness: object = None

    def to_dict(self):
        w = None
        if self.witness is not None:
            v = self.witness.value if isinstance(self.witness, ComplexApprox) else self.witness
            w = {"re": mp.nstr(mp.mpc(v).real, 20), "im": mp.nstr(mp.mpc(v).imag, 20)}
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
    """Angular distance of a nonzero finite value from a cut ray, given the
    ray's phase as its ``_rotation``."""
    v = value.value if isinstance(value, ComplexApprox) else mp.mpc(value)
    return float(abs(_principal_arg_residual(v, rot)))


def _critical_values(f, precision_bits):
    """(critical point, value) pairs of a nonconstant f away from its zeros
    and poles.

    The finite critical points are the roots of the Wronskian
    num' den - num den' once every factor it shares with num den (multiple
    zeros and poles) is divided out exactly.  When deg num = deg den, f(oo)
    is finite and nonzero and the level set through it loses a branch to
    t = oo (the trace's degree drop), so it is returned with point None.
    """
    wronskian = f.num.derivative() * f.den - f.num * f.den.derivative()
    zeros_and_poles = f.num * f.den
    shared = wronskian.gcd(zeros_and_poles)
    while shared.degree > 0:
        wronskian = wronskian // shared
        shared = wronskian.gcd(zeros_and_poles)
    out = [(ball, f.eval(ball, precision_bits))
           for ball, _mult in roots_numeric(wronskian, precision_bits)]
    if f.num.degree == f.den.degree:
        out.append((None, embed(f.eval(INF), precision_bits)))
    return out


def _coordinate_value_at(component, j, location):
    """Coordinate j at a divisor location; returns mpc, INF, or exact zero."""
    f = component.coords[j - 1]
    v = f.eval(location)
    if v is INF:
        return INF
    if isinstance(v, CyclotomicNumber):
        if v.is_zero():
            return 0
        return embed(v, mp.mp.prec).value
    return v.value if isinstance(v, ComplexApprox) else v


def admissible(Z, schedule, precision_bits=None, tol=1e-9):
    """Check proper position of a curve precycle with respect to the perturbed
    cuts of a specific schedule.

    Verifies, per component: (a) no nonconstant coordinate has a critical
    value within ``tol`` (angularly) of its cut ray, decided from the exact
    critical points rather than by tracing, so every cut locus is a smooth
    union of branches; constant coordinates sit off their cut; (b) crossings
    of the first cut locus with the second cut are transverse; (c) no crossing
    also satisfies a later coordinate's argument condition (no triple point);
    (d) parameters where any coordinate hits 0 or oo stay off the first cut,
    and endpoints of the first locus stay off the second cut (keeping the
    crossing set away from chain boundaries).  An endpoint sitting on a cut
    beyond the second is outside every nested cut-prefix condition, so it is
    reported as a warning rather than a failure.

    Only the first locus is traced.  Its paths and crossings are kept in the
    report for evaluation.  A PrecisionError from the trace propagates: no
    other schedule can repair a working precision that is too low.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if not Z.is_curve_level:
        raise ChowregError("admissibility applies to curve-level precycles")
    if schedule.n != Z.n:
        raise ChowregError(f"schedule has {schedule.n} phases, cycle needs {Z.n}")
    failures = []
    warnings = []
    paths = {}
    crossings = {}
    cut_tol = max(float(tol), 1e-12)
    with workprec(precision_bits):
        rots = [_rotation(p) for p in schedule.phases]
        for ci, comp in enumerate(Z.components):
            # (a) no critical value on a cut ray; off-cut constants
            for i in range(1, Z.n + 1):
                f = comp.coords[i - 1]
                if f.is_constant():
                    cval = embed(f.constant_value(), precision_bits)
                    if _on_cut_margin(cval, rots[i - 1]) < cut_tol:
                        failures.append(AdmissibilityFailure(
                            "constant-on-cut", ci,
                            f"coordinate {i} is constant on its cut",
                            cval))
                    continue
                for point, value in _critical_values(f, precision_bits):
                    margin = _on_cut_margin(value, rots[i - 1])
                    if margin < cut_tol:
                        failures.append(AdmissibilityFailure(
                            "critical-value", ci,
                            f"coordinate {i} has a critical value on its cut "
                            f"(margin {margin:.2e})",
                            point))
            f1 = comp.coords[0]
            if not f1.is_constant():
                try:
                    paths[ci] = trace_wavefront(comp, 1, schedule.phases[0],
                                                precision_bits=precision_bits)
                except (ScheduleError, ConvergenceError) as exc:
                    failures.append(AdmissibilityFailure(
                        "trace", ci, f"coordinate 1: {exc}"))

            # (d) facet parameters, where any coordinate hits 0 or oo, keep
            # off the first cut; endpoints of the first locus (its divisor)
            # avoid the later cuts
            if not f1.is_constant():
                divisors = {k: comp.coords[k - 1].divisor()
                            for k in range(1, Z.n + 1)
                            if not comp.coords[k - 1].is_constant()}
                for k, points in divisors.items():
                    if k == 1:
                        continue
                    for pt in points:
                        v = _coordinate_value_at(comp, 1, pt.location)
                        if v is INF or v == 0:
                            continue
                        margin = _on_cut_margin(v, rots[0])
                        if margin < cut_tol:
                            failures.append(AdmissibilityFailure(
                                "face-on-cut", ci,
                                f"coordinate {k} facet parameter lies on the "
                                f"first cut (margin {margin:.2e})",
                                pt.location if isinstance(pt.location, ComplexApprox)
                                else None))

                for pt in divisors[1]:
                    for k in range(2, Z.n + 1):
                        v = _coordinate_value_at(comp, k, pt.location)
                        if v is INF or v == 0:
                            continue
                        margin = _on_cut_margin(v, rots[k - 1])
                        if margin < cut_tol:
                            entry = AdmissibilityFailure(
                                "endpoint-on-cut", ci,
                                f"endpoint of the first cut locus lies on cut {k} "
                                f"(margin {margin:.2e})",
                                pt.location if isinstance(pt.location, ComplexApprox)
                                else None)
                            (failures if k == 2 else warnings).append(entry)

            # (b) + (c) crossings: transversality and no triple points
            if Z.n >= 2 and ci in paths:
                try:
                    crossings[ci] = find_pair_intersections(
                        comp, paths[ci], 2, schedule.phases[1],
                        precision_bits=precision_bits)
                except ScheduleError as exc:
                    failures.append(AdmissibilityFailure("tangency", ci, str(exc)))
                    crossings[ci] = []
                later = {k: RFEvaluator(comp.coords[k - 1], precision_bits)
                         for k in range(3, Z.n + 1)
                         if not comp.coords[k - 1].is_constant()}
                for c in crossings[ci]:
                    for k in range(3, Z.n + 1):
                        if k in later:
                            v = later[k].value(c.t.value)
                        else:
                            v = embed(comp.coords[k - 1].constant_value(),
                                      precision_bits).value
                        if v == 0:
                            continue
                        margin = _on_cut_margin(v, rots[k - 1])
                        if margin < cut_tol:
                            failures.append(AdmissibilityFailure(
                                "triple", ci,
                                f"triple point: cuts 1,2,{k} meet "
                                f"(margin {margin:.2e})",
                                c.t))
    return AdmissibilityReport(ok=not failures, failures=failures,
                               schedule=schedule, warnings=warnings,
                               paths=paths, crossings=crossings)


def search_admissible(Z, eps_start=0.3, seed=0, precision_bits=None,
                      tol=1e-9):
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
            report = admissible(Z, s, precision_bits=precision_bits, tol=tol)
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


def search_schedule(Z, eps_start=0.3, seed=0, precision_bits=None, tol=1e-9):
    """The schedule of ``search_admissible``'s accepted report."""
    return search_admissible(Z, eps_start, seed=seed,
                             precision_bits=precision_bits, tol=tol).schedule
