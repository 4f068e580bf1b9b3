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

Evaluation reads the traced first cut loci and their crossings from the
admissibility report that accepted the schedule, so the pipeline traces and
intersects each schedule's cut loci once, inside the schedule search.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import mpmath as mp

from .cycles import check_face_proper, is_closed, is_normalized, normalize
from .errors import (
    ChowregError,
    ConvergenceError,
    PrecisionError,
    PropernessError,
    ScheduleError,
)
from .field import embed
from .funcfield import INF, RFEvaluator, mpf_to_fraction
from .numeric import ComplexApprox, workprec
from .special import BranchSpec, log_eps
from .wavefront import (
    AdmissibilityReport,
    PhaseSchedule,
    admissible,
    search_admissible,
)


@dataclass
class RegulatorValue:
    """A value in C modulo (2*pi*i)^p with error accounting.

    ``value`` is the canonical representative (lattice coefficient in
    [-1/2, 1/2)); ``breakdown`` lists per-component line-integral and crossing
    contributions, which sum to the pre-reduction value.
    """

    p: int
    value: ComplexApprox
    schedule_used: object
    quadrature_error: float
    breakdown: list = dataclass_field(default_factory=list)
    lattice_multiple: int = 0
    agreement: list = dataclass_field(default_factory=list)

    def q_value(self):
        """value / (2*pi*i)^p."""
        return self.value.value / (2 * mp.pi * mp.mpc(0, 1)) ** self.p


@dataclass
class TorsionResult:
    order: object
    certificate: object
    residual: float


def _canonical_mod_lattice(value, p):
    """Shift by the lattice so the generator coefficient lies in [-1/2, 1/2)."""
    gen = (2 * mp.pi * mp.mpc(0, 1)) ** p
    coeff = value.real / gen.real if p % 2 == 0 else value.imag / gen.imag
    k = int(mp.floor(coeff + mp.mpf("0.5")))
    return value - k * gen, k


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
            quadrature_error=total.radius,
            breakdown=breakdown,
            lattice_multiple=k,
        )


def _tanh_sinh_segment(fn, a, b, tol, precision_bits, max_level=9):
    """Double-exponential quadrature of an analytic integrand on [a, b].

    Error is estimated from the last level-to-level difference; estimates that
    stop decreasing raise ConvergenceError.
    """
    a = mp.mpf(a)
    b = mp.mpf(b)
    if a == b:
        return mp.mpc(0), 0.0
    mid = (a + b) / 2
    half = (b - a) / 2
    eps_w = mp.mpf(2) ** (-precision_bits - 8)
    w_floor = mp.mpf(2) ** (-precision_bits - 48)
    tau_max = mp.asinh(2 * mp.log(4 / eps_w) / mp.pi)

    cache = {}

    def eval_at(tau):
        val = cache.get(tau)
        if val is None:
            s = mp.pi / 2 * mp.sinh(tau)
            w = mp.pi / 2 * mp.cosh(tau) / mp.cosh(s) ** 2
            if w < w_floor:
                val = mp.mpc(0)
            else:
                u = mid + half * mp.tanh(s)
                if u <= a or u >= b:
                    val = mp.mpc(0)
                else:
                    val = fn(u) * w
            cache[tau] = val
        return val

    h = mp.mpf(1)
    kmax = int(mp.ceil(tau_max / h))
    total = eval_at(mp.mpf(0))
    for j in range(1, kmax + 1):
        total += eval_at(j * h) + eval_at(-j * h)
    results = [total * h * half]
    err_prev = None
    for level in range(1, max_level + 1):
        h = h / 2
        kmax = int(mp.ceil(tau_max / h))
        for j in range(1, kmax + 1, 2):
            total += eval_at(j * h) + eval_at(-j * h)
        results.append(total * h * half)
        err = float(abs(results[-1] - results[-2]))
        if err < tol * max(1.0, float(abs(results[-1]))):
            return results[-1], err + float(eps_w)
        if err_prev is not None and err > 4 * err_prev and err > 1e-6:
            raise ConvergenceError(
                f"quadrature estimates stopped decreasing (level {level}, "
                f"error {err:.3g})")
        err_prev = err
    if err_prev is None or err_prev > 1e-6 * max(1.0, float(abs(results[-1]))):
        raise ConvergenceError(
            f"quadrature did not reach tolerance {tol:.3g} (last error {err_prev})")
    return results[-1], err_prev + float(eps_w)


_CHUNK_LENGTH = 8.0
_MAX_LEVEL = 8


def quadrature(fn, u_lo, u_hi, precision_bits=None, tol=None,
               tails=(True, True)):
    """Integrate ``fn`` over [u_lo, u_hi] in the path parameter u = -log r.

    ``fn`` takes u and already includes its du factor; along a traced path
    oriented pole -> zero, u increases.  ``tails`` marks which ends are true
    path ends and get the truncation-tail allowance.

    The range is cut into bounded chunks and each chunk integrated by the
    double-exponential rule; chunks in the exponential tails converge at the
    first levels, so the cost concentrates where the integrand lives.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if tol is None:
        tol = float(mp.mpf(2) ** (-precision_bits // 3))
    with workprec(precision_bits + 16):
        u_lo, u_hi = mp.mpf(u_lo), mp.mpf(u_hi)
        span = u_hi - u_lo
        chunks = max(1, int(mp.ceil(span / _CHUNK_LENGTH)))
        step = span / chunks
        total = mp.mpc(0)
        err = 0.0
        for k in range(chunks):
            a = u_lo + k * step
            b = u_lo + (k + 1) * step if k < chunks - 1 else u_hi
            val, e = _tanh_sinh_segment(fn, a, b, tol, precision_bits, _MAX_LEVEL)
            total += val
            err += e
        # truncation-tail allowance, only at true path ends
        tail = 0.0
        if tails[0]:
            tail += float(abs(fn(u_lo + mp.mpf("1e-9") * span)))
        if tails[1]:
            tail += float(abs(fn(u_hi - mp.mpf("1e-9") * span)))
        return ComplexApprox(total, err + 2.0 * tail)


def _sided_log_branch(w, phase, guard, side_hint):
    """log with argument in (-pi-phase, pi-phase]; the hint resolves values
    inside the guard sliver around the cut by continuity from one side."""
    phi = mp.arg(-w * mp.e ** (1j * phase))
    if side_hint > 0:
        subtract = phi > -guard
    elif side_hint < 0:
        subtract = phi > guard
    else:
        subtract = phi > 0
    theta = mp.pi - phase + phi - (2 * mp.pi if subtract else 0)
    return mp.mpc(mp.log(abs(w)), theta)


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


def reg_n3(Z, schedule, precision_bits=None, tol=None):
    """Regulator of a curve-level cycle in the 3-cube at a fixed schedule.

    ``schedule`` is a PhaseSchedule, which is checked for admissibility here,
    or the ok AdmissibilityReport of one, which must come from this cycle at
    this precision.  The traced first cut loci and their crossings with the
    second cut are read from the report.  The k=1 term of the current (a
    holomorphic 2-form) vanishes identically on a complex curve and is
    skipped.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if tol is None:
        tol = float(mp.mpf(2) ** (-precision_bits // 3))
    if not (Z.is_curve_level and Z.n == 3):
        raise ChowregError("reg_n3 needs a curve-level cycle in the 3-cube")
    rep = _admitted(Z, schedule, precision_bits)
    _, eps2, eps3 = rep.schedule.phases
    guard = mp.mpf(2) ** (-precision_bits // 2)
    with workprec(precision_bits):
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        total = mp.mpc(0)
        total_err = 0.0
        breakdown = []
        for ci, comp in enumerate(Z.components):
            f1, f2, f3 = comp.coords
            entry = {"component": ci, "mult": comp.mult,
                     "line_integral": ComplexApprox(mp.mpc(0), 0.0),
                     "crossing_sum": ComplexApprox(mp.mpc(0), 0.0),
                     "crossings": []}
            if f1.is_constant():
                breakdown.append(entry)
                continue
            paths = rep.paths[ci]
            crossings = rep.crossings[ci]

            # crossing sum P
            p_sum = ComplexApprox(mp.mpc(0), 0.0)
            ev3 = RFEvaluator(f3, precision_bits) if not f3.is_constant() else None
            for c in crossings:
                if ev3 is None:
                    v3 = embed(f3.constant_value(), precision_bits)
                else:
                    v3 = ComplexApprox(ev3.value(c.t.value), c.t.radius * 4.0)
                lg = log_eps(v3, BranchSpec(eps3))
                p_sum = p_sum + c.sign * lg
                entry["crossings"].append({"t": c.t, "sign": c.sign, "log_f3": lg})

            # line integral L, split at crossings, branch fixed by continuity
            line = ComplexApprox(mp.mpc(0), 0.0)
            if not f3.is_constant():
                ev3q = ev3
                ev2 = RFEvaluator(f2, precision_bits) if not f2.is_constant() else None
                const_log2 = None
                if ev2 is None:
                    const_log2 = log_eps(embed(f2.constant_value(), precision_bits),
                                         BranchSpec(eps2)).value
                for path in paths:
                    xs = sorted((c for c in crossings if c.host_path is path),
                                key=lambda c: float(-c.sigma))
                    u_lo, u_hi = -path.sigma_hi, -path.sigma_lo
                    cut_us = [mp.mpf(-c.sigma) for c in xs]
                    bounds = [u_lo] + cut_us + [u_hi]
                    for seg in range(len(bounds) - 1):
                        a, b = bounds[seg], bounds[seg + 1]
                        if not (b > a):
                            continue
                        left_sign = xs[seg - 1].sign if seg >= 1 else 0
                        right_sign = -xs[seg].sign if seg < len(xs) else 0

                        def fn(u, _a=a, _b=b, _l=left_sign, _r=right_sign,
                               _path=path):
                            t = _path.point_at(-u)
                            if const_log2 is not None:
                                lg2 = const_log2
                            else:
                                hint = _l if (u - _a) <= (_b - u) else _r
                                lg2 = _sided_log_branch(ev2.value(t), eps2,
                                                        guard, hint)
                            return -(lg2 * ev3q.dlog(t)) / _path.evaluator.dlog(t)

                        piece = quadrature(fn, a, b,
                                           precision_bits=precision_bits,
                                           tol=tol,
                                           tails=(seg == 0,
                                                  seg == len(bounds) - 2))
                        line = line + piece
            entry["line_integral"] = line
            entry["crossing_sum"] = p_sum
            breakdown.append(entry)
            total += comp.mult * (line.value - two_pi_i * p_sum.value)
            total_err += abs(comp.mult) * (line.radius + float(2 * mp.pi) * p_sum.radius)
        canon, k = _canonical_mod_lattice(total, 2)
        return RegulatorValue(
            p=2,
            value=ComplexApprox(canon, total_err),
            schedule_used=rep.schedule,
            quadrature_error=total_err,
            breakdown=breakdown,
            lattice_multiple=k,
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
    if precision_bits is None:
        precision_bits = mp.mp.prec
    with workprec(precision_bits):
        if Z.is_point_level and Z.n == 1:
            values = []
            bound = mp.mpf(eps_start)
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
        values = []
        bound = mp.mpf(eps_start)
        for k in range(3):
            # the accepted report is dropped once its schedule is evaluated
            rep = search_admissible(Z, bound, seed=seed,
                                    precision_bits=precision_bits)
            values.append((bound, reg_n3(Z, rep, precision_bits=precision_bits)))
            del rep
            bound = bound / 3
        return _reconcile(values, 2, tol)


def _pairwise_agreement(values, p, tol):
    """(a, b, lattice multiple, residual, ok) for every pair of values; a pair
    agrees when its difference mod the lattice is within the two error
    radii plus tol."""
    out = []
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            k, resid = lattice_difference(values[a].value.value,
                                          values[b].value.value, p)
            budget = values[a].quadrature_error + values[b].quadrature_error + tol
            out.append((a, b, k, float(resid), float(resid) <= budget))
    return out


def _reconcile(values, p, tol):
    """Pairwise lattice agreement of evaluations at shrinking bounds; refuses
    to return anything when they disagree beyond combined errors."""
    agreement = []
    for a, b, k, resid, ok in _pairwise_agreement([v for _, v in values], p, tol):
        agreement.append({
            "bounds": (float(values[a][0]), float(values[b][0])),
            "lattice_multiple": k,
            "residual": resid,
            "ok": ok,
        })
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
    """Evaluate at each schedule and compare pairwise mod the lattice."""
    if precision_bits is None:
        precision_bits = mp.mp.prec
    vals = []
    with workprec(precision_bits):
        for s in schedules:
            if Z.is_curve_level and Z.n == 3:
                vals.append(reg_n3(Z, s, precision_bits=precision_bits))
            elif Z.is_point_level and Z.n == 1:
                vals.append(reg_n1(Z, s.phases[0], precision_bits))
            else:
                raise ChowregError("phase independence applies to n=1 or n=3 cycles")
        pairs = [{"schedules": (a, b), "lattice_multiple": k, "residual": resid,
                  "ok": ok}
                 for a, b, k, resid, ok in _pairwise_agreement(vals, vals[0].p, tol)]
        return {"ok": all(p["ok"] for p in pairs), "pairs": pairs, "values": vals}


def _cf_minimal_denominator(x, max_order, tol):
    """Smallest denominator m <= max_order with |x - p/m| < tol/m, via the
    continued-fraction convergents of x (best approximations, so the first
    qualifying convergent has the minimal denominator)."""
    tol_f = Fraction(tol).limit_denominator(10 ** 15)
    n, d = x.numerator, x.denominator
    p_prev, p_curr = 1, 0
    q_prev, q_curr = 0, 1
    n, d = int(n), int(d)
    while d:
        a = n // d
        n, d = d, n - a * d
        p_prev, p_curr = a * p_prev + p_curr, p_prev
        q_prev, q_curr = a * q_prev + q_curr, q_prev
        den = int(q_prev)
        if den < 1:
            continue
        approx = Fraction(int(p_prev), den)
        if den > max_order:
            return None
        if abs(x - approx) < tol_f / den:
            return den, approx
    return None


def torsion_order(value, max_order=200, tol=1e-6, p=None):
    """Least m <= max_order with m * value in the lattice, with certificate
    q = value / (2*pi*i)^p recognized as a fraction of denominator m."""
    if not isinstance(value, RegulatorValue):
        raise ChowregError("torsion_order expects a RegulatorValue")
    v = value
    if p is None:
        p = v.p
    if v.quadrature_error >= tol / (2 * max_order):
        raise PrecisionError(
            "torsion recognition needs quadrature error below "
            f"{tol / (2 * max_order):.3g}, have {v.quadrature_error:.3g}; "
            "raise the working precision")
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
