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
path there is the closed form of a Moebius first coordinate, which every
shipped 3-cube fixture has, or the traced branch of one of higher degree.
Either is split at its crossings into stretches on which the branch of
log f_2 is fixed.

On a Moebius path f_1 = r direction, so f_2 is c prod (r - s_k)^{n_k} and
dlog f_3 / dlog f_1 is sum_j m_j r / (r - rho_j), with the s_k and rho_j the
zeros and poles of f_2 and f_3 in the radius.  Each stretch integral is
then a sum of logs and dilogarithms at its two ends (Lewin 1981; Zagier
2007), with the dilogarithm's ball radius carried into the stretch's
radius: no quadrature node runs.

A traced path keeps numerical quadrature in its log-radius u = -log r.
Each stretch is integrated in x = tanh(u/2) = (1 - r)/(1 + r), which maps
the whole path onto (-1, 1); there the integrand is bounded, with log-type
behaviour only at the path ends x = +-1, which is the case one
double-exponential (tanh-sinh) segment resolves.  Its nodes on [-1, 1] are
computed once per precision and shared by every stretch, and each hands the
integrand its radius r, whose point the integrand reads from the path's
``solve_at``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import mpmath as mp

from .cycles import check_face_proper, closed_facets, is_normalized, normalize
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
from .special import BranchSpec, li2, log_eps
from .wavefront import (
    AdmissibilityReport,
    PhaseSchedule,
    _coordinate_value_at,
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
            breakdown=breakdown,
            lattice_multiple=k,
        )


_MAX_LEVEL = 10
# quadrature runs its integrand, and the closed form of a Moebius path its
# logs and dilogarithms, this many bits above the working precision
_EXTRA_BITS = 16


@functools.lru_cache(maxsize=None)
def _tanh_sinh_nodes(prec, precision_bits, level):
    """The tanh-sinh nodes on [-1, 1] that level ``level`` (step 2^-level
    in tau) adds, at ``prec`` bits, computed once and shared by every
    quadrature call: at tau = +-j h for every j at level 0 and every odd j
    above, up to the tau where the weight falls below 2^(-precision_bits
    - 8).  They come as (plus, minus) pairs, level 0 opening with the
    centre paired with None; a node is its (abscissa, weight), or None when
    the weight is below the floor."""
    with workprec(prec):
        eps_w = mp.mpf(2) ** (-precision_bits - 8)
        w_floor = mp.mpf(2) ** (-precision_bits - 48)
        tau_max = mp.asinh(2 * mp.log(4 / eps_w) / mp.pi)
        h = mp.mpf(2) ** -level
        kmax = int(mp.ceil(tau_max / h))

        def node(tau):
            s = mp.pi / 2 * mp.sinh(tau)
            w = mp.pi / 2 * mp.cosh(tau) / mp.cosh(s) ** 2
            return None if w < w_floor else (mp.tanh(s), w)

        pairs = [(node(mp.mpf(0)), None)] if level == 0 else []
        pairs += [(node(j * h), node(-j * h))
                  for j in range(1, kmax + 1, 1 if level == 0 else 2)]
        return tuple(pairs)


def _tanh_sinh_segment(fn, a, b, tol, precision_bits):
    """Double-exponential quadrature of an analytic integrand on [a, b].

    Error is estimated from the last level-to-level difference, over at most
    ``_MAX_LEVEL`` halvings of the step; estimates that stop decreasing raise
    ConvergenceError.  Each level adds only the new odd-indexed nodes, so
    every tau is visited once.  Abscissae tanh(pi/2 sinh tau) on [-1, 1]
    and weights come from ``_tanh_sinh_nodes``, shared by every call at
    this precision, and are mapped onto [a, b] here; a node whose weight is
    below the floor contributes nothing.
    """
    a = mp.mpf(a)
    b = mp.mpf(b)
    if a == b:
        return mp.mpc(0), 0.0
    mid = (a + b) / 2
    half = (b - a) / 2
    eps_w = mp.mpf(2) ** (-precision_bits - 8)

    def eval_at(node):
        if node is None:
            return mp.mpc(0)
        x, w = node
        u = mid + half * x
        if u <= a or u >= b:
            return mp.mpc(0)
        return fn(u) * w

    def add_level(level, total):
        for plus, minus in _tanh_sinh_nodes(mp.mp.prec, precision_bits,
                                            level):
            total += eval_at(plus) + eval_at(minus)
        return total

    h = mp.mpf(1)
    total = add_level(0, mp.mpc(0))
    results = [total * h * half]
    err_prev = None
    for level in range(1, _MAX_LEVEL + 1):
        h = h / 2
        total = add_level(level, total)
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


def quadrature(fn, u_lo, u_hi, precision_bits=None, tol=None,
               tails=(True, True)):
    """Integrate over [u_lo, u_hi] in the path parameter u = -log r.

    ``fn`` takes the radius r = e^{-u} and returns the integrand with its du
    factor; along a traced path oriented pole -> zero, u increases and r
    decreases.  ``tails`` marks which ends are true path ends and get the
    truncation-tail allowance.

    The integral is taken in x = tanh(u/2) = (1 - r)/(1 + r), which maps the
    whole log-radius line onto (-1, 1): the integrand
    fn(r(x)) * 2/((1 - x)(1 + x)), r(x) = (1 - x)/(1 + x), is bounded
    there, since fn decays like e^{-|u|} towards the pole and the zero, and
    keeps only log-type behaviour at x = +-1.  One double-exponential
    segment over [tanh(u_lo/2), tanh(u_hi/2)] resolves it: its nodes crowd
    towards the path ends, where the stretch's exponential tails are.  A
    node costs one division for its radius and no log; rounding never moves
    it outside [e^{-u_hi}, e^{-u_lo}], so ``fn`` is only asked for radii on
    the stretch.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if tol is None:
        tol = float(mp.mpf(2) ** (-precision_bits // 3))
    with workprec(precision_bits + _EXTRA_BITS):
        u_lo, u_hi = mp.mpf(u_lo), mp.mpf(u_hi)
        r_lo, r_hi = mp.exp(-u_hi), mp.exp(-u_lo)

        def in_x(x):
            below, above = 1 - x, 1 + x
            r = min(max(below / above, r_lo), r_hi)
            return fn(r) * 2 / (below * above)

        total, err = _tanh_sinh_segment(in_x, mp.tanh(u_lo / 2),
                                        mp.tanh(u_hi / 2), tol,
                                        precision_bits)
        # truncation-tail allowance, only at true path ends
        span = u_hi - u_lo
        tail = 0.0
        if tails[0]:
            tail += float(abs(fn(mp.exp(-(u_lo + mp.mpf("1e-9") * span)))))
        if tails[1]:
            tail += float(abs(fn(mp.exp(-(u_hi - mp.mpf("1e-9") * span)))))
        return ComplexApprox(total, err + 2.0 * tail)


def _sided_log_branch(w, phase, rot, guard, side_hint):
    """log with argument in (-pi-phase, pi-phase], given ``rot`` =
    e^{i phase}; the hint resolves values inside the guard sliver around the
    cut by continuity from one side."""
    phi = mp.arg(-w * rot)
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


def _along_path(path, ev2, ev3):
    """The integrand's two factors along a traced first-locus ``path`` as a
    function of the radius r: r -> (f_2, dlog f_3 / dlog f_1) at the path
    point of radius r, with None for f_2 when ``ev2`` is None (a constant
    f_2).  The quotient of dlogs is dt/du times -dlog f_3.  The point is
    ``solve_at(log r)``, with the log-radius held to the path's span
    against rounding."""
    def along(r):
        sigma = min(max(mp.log(r), path.sigma_lo), path.sigma_hi)
        t, n1, d1 = path.solve_at(sigma)
        v2 = None if ev2 is None else ev2.value(t)
        return v2, ev3.dlog(t) / path.evaluator.dlog(t, n1, d1)
    return along


def _stretches(bounds, xs):
    """(seg, a, b, left sign, right sign) for each nonempty stretch [a, b]
    between consecutive log-radius ``bounds`` -u of a path, split at its
    crossings ``xs``: the sign of the crossing that opens it (0 at the
    pole end) and minus that of the one that closes it (0 at the zero
    end) tell from which side the stretch meets the second cut."""
    for seg in range(len(bounds) - 1):
        a, b = bounds[seg], bounds[seg + 1]
        if b > a:
            yield (seg, a, b, xs[seg - 1].sign if seg >= 1 else 0,
                   -xs[seg].sign if seg < len(xs) else 0)


def _in_radius_divisor(comp, k, path, precision_bits):
    """(n, s) for each zero or pole of coordinate k, of order n, at which
    f_1 is finite, with s = f_1 / direction there.  Along the Moebius
    ``path``, f_1 = r direction, so coordinate k is c prod (r - s)^n and
    dlog f_k / dlog f_1 = sum n r / (r - s); a point where f_1 = oo only
    moves c.  ``admissible`` keeps every s off the positive real axis
    (face-on-cut), so log(r - s) is continuous on the path.  The values of
    f_1 are kept on the component, since no schedule moves them."""
    key = ("first_at_divisor", k, precision_bits)
    if key not in comp._memo:
        comp._memo[key] = [
            (pt.multiplicity, v)
            for pt in comp.coords[k - 1].divisor(precision_bits)
            if (v := _coordinate_value_at(comp, 1, pt.location)) is not INF]
    return [(n, v / path.direction if v != 0 else mp.mpc(0))
            for n, v in comp._memo[key]]


def _dilog_pairs(zeros2, zeros3):
    """How each pair of a zero or pole s of f_2 and rho of f_3 in the
    radius (``_in_radius_divisor``) enters the antiderivative, as
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
    real axis), and the integer q is fixed once, at r = 1.
    """
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    pairs = []
    for j, (m, rho) in enumerate(zeros3):
        for n, s in zeros2:
            if s == rho:
                pairs.append((m * n, j, None, False, 0))
                continue
            delta = s - rho
            # the real r at which z(r) is real, or 1 when the line z(r) is
            # parallel to the real axis
            r_real = (-(rho * delta.conjugate()).imag / delta.imag
                      if delta.imag else 1)
            inverted = ((r_real - rho) / delta).real > 1
            z1 = (1 - rho) / delta
            if inverted:
                d = 0
                rest = mp.log(1 - rho) + mp.log(1 - 1 / z1)
            else:
                d = mp.log(rho - s)
                rest = d + mp.log(1 - z1)
            q = int(mp.nint((mp.log(1 - s) - rest).imag / (2 * mp.pi)))
            pairs.append((m * n, j, delta, inverted, d + two_pi_i * q))
    return pairs


def _antiderivative(r, zeros3, pairs):
    """(H, G, radius, size) at the radius r > 0: G = sum_j m_j log(r - rho_j)
    over ``zeros3``, and H an antiderivative of
    (sum_k n_k log(r - s_k)) sum_j m_j / (r - rho_j), summed over the
    ``_dilog_pairs``.  ``radius`` adds the dilogarithms' radii and ``size``
    the absolute values of the terms of H and G."""
    logs = [mp.log(r - rho) for _, rho in zeros3]
    h, g, radius, size = mp.mpc(0), mp.mpc(0), 0.0, 0.0
    for coeff, j, delta, inverted, d in pairs:
        lr = logs[j]
        if delta is None:
            term = lr ** 2 / 2
        else:
            rho = zeros3[j][1]
            li = li2(delta / (r - rho) if inverted else (r - rho) / delta)
            term = d * lr + (lr ** 2 / 2 + li.value if inverted
                             else -li.value)
            radius += abs(coeff) * li.radius
        h += coeff * term
        size += abs(complex(coeff * term))
    for (m, _), lr in zip(zeros3, logs):
        g += m * lr
        size += abs(complex(m * lr))
    return h, g, radius, size


def _moebius_line(comp, path, ev2, const_log2, bounds, xs, eps2, guard,
                  precision_bits):
    """The line integral over each stretch of a Moebius ``path``, in closed
    form, as a list of balls.

    Along the path f_1 = r direction, so with the zeros and poles s_k of
    f_2 and rho_j of f_3 in the radius (``_in_radius_divisor``) a stretch
    from radius r_a down to r_b contributes
    L = -int log f_2 dlog f_3 / dlog f_1 du
      = int_{r_a}^{r_b} log^{eps_2} f_2 sum_j m_j dr / (r - rho_j).
    On the stretch log^{eps_2} f_2 = K + sum_k n_k log(r - s_k): the branch
    of log f_2 is fixed between crossings, and K is fixed once, at the
    middle log-radius, by the sided branch the crossing signs pick.  So
    L = [H + K G] from r_a to r_b (``_antiderivative``).  The
    radius adds the dilogarithms' radii, a rounding term
    2^(8 - precision_bits) times the summed size of the terms, and at a
    true path end the tail allowance of ``quadrature``: twice the integrand
    probed 1e-9 of the stretch inside the end.
    """
    with workprec(precision_bits + _EXTRA_BITS):
        rot2 = mp.expj(eps2)
        zeros2 = ([] if ev2 is None
                  else _in_radius_divisor(comp, 2, path, precision_bits))
        zeros3 = _in_radius_divisor(comp, 3, path, precision_bits)
        pairs = _dilog_pairs(zeros2, zeros3)
        ends = [_antiderivative(mp.exp(-u), zeros3, pairs) for u in bounds]
        if ev2 is not None:
            a2, b2 = path.in_radius(ev2)
        horner = RFEvaluator._horner
        rounding = mp.mpf(2) ** (8 - precision_bits)
        pieces = []
        for seg, a, b, left_sign, _ in _stretches(bounds, xs):
            r_mid = mp.exp(-(a + b) / 2)
            k = const_log2
            if ev2 is not None:
                k = _sided_log_branch(
                    horner(a2, r_mid) / horner(b2, r_mid), eps2, rot2, guard,
                    left_sign) - sum(n * mp.log(r_mid - s) for n, s in zeros2)
            (h_a, g_a, rad_a, size_a), (h_b, g_b, rad_b, size_b) = \
                ends[seg], ends[seg + 1]
            # the tail probes, at a true path end only
            inside = mp.mpf("1e-9") * (b - a)
            tail = 0.0
            for u in ([a + inside] if seg == 0 else []) + (
                    [b - inside] if seg == len(bounds) - 2 else []):
                r = mp.exp(-u)
                lg2 = k + sum(n * mp.log(r - s) for n, s in zeros2)
                tail += float(abs(lg2 * sum(m * r / (r - rho)
                                            for m, rho in zeros3)))
            size = size_a + size_b + float(abs(k)) * (float(abs(g_a))
                                                     + float(abs(g_b)))
            pieces.append(ComplexApprox(
                h_b - h_a + k * (g_b - g_a),
                rad_a + rad_b + float(rounding) * size + 2.0 * tail))
        return pieces


def reg_n3(Z, schedule, precision_bits=None):
    """Regulator of a curve-level cycle in the 3-cube at a fixed schedule.

    ``schedule`` is a PhaseSchedule, which is checked for admissibility here,
    or the ok AdmissibilityReport of one, which must come from this cycle at
    this precision.  The traced first cut loci and their crossings with the
    second cut are read from the report.  The k=1 term of the current (a
    holomorphic 2-form) vanishes identically on a complex curve and is
    skipped.  A stretch of a Moebius path is integrated in closed form
    (``_moebius_line``), one of a traced path to ``quadrature``'s default
    tolerance, 2^(-precision_bits/3).
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    if not (Z.is_curve_level and Z.n == 3):
        raise ChowregError("reg_n3 needs a curve-level cycle in the 3-cube")
    rep = _admitted(Z, schedule, precision_bits)
    _, eps2, eps3 = rep.schedule.phases
    guard = mp.mpf(2) ** (-precision_bits // 2)
    with workprec(precision_bits + _EXTRA_BITS):
        # the cut rotation at the precision the integrand runs at
        rot2 = mp.expj(eps2)
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
            ev3 = None if f3.is_constant() else f3.evaluator(precision_bits)
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
                ev2 = None if f2.is_constant() else f2.evaluator(precision_bits)
                const_log2 = None
                if ev2 is None:
                    const_log2 = log_eps(embed(f2.constant_value(), precision_bits),
                                         BranchSpec(eps2)).value
                for path in paths:
                    xs = sorted((c for c in crossings if c.host_path is path),
                                key=lambda c: float(-c.sigma))
                    bounds = ([-path.sigma_hi] + [mp.mpf(-c.sigma) for c in xs]
                              + [-path.sigma_lo])
                    if path.evaluator.linear is not None:
                        for piece in _moebius_line(comp, path, ev2, const_log2,
                                                   bounds, xs, eps2, guard,
                                                   precision_bits):
                            line = line + piece
                        continue
                    along = _along_path(path, ev2, ev3)
                    for seg, a, b, left_sign, right_sign in _stretches(bounds,
                                                                       xs):
                        # nodes at or above this radius are nearer the
                        # left end of the stretch
                        r_mid = mp.exp(-(a + b) / 2)

                        def fn(r, _l=left_sign, _r=right_sign, _mid=r_mid):
                            v2, ratio = along(r)
                            if v2 is None:
                                lg2 = const_log2
                            else:
                                lg2 = _sided_log_branch(
                                    v2, eps2, rot2, guard,
                                    _l if r >= _mid else _r)
                            return -lg2 * ratio

                        piece = quadrature(fn, a, b,
                                           precision_bits=precision_bits,
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
        closed, facets = closed_facets(Z, precision_bits)
        if not closed:
            raise ChowregError("cycle is not closed; the regulator needs ker(boundary)")
        if not is_normalized(Z, facets):
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
            budget = values[a].value.radius + values[b].value.radius + tol
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


def torsion_order(value, max_order=200, tol=1e-6):
    """Least m <= max_order with m * value in the lattice, with certificate
    q = value / (2*pi*i)^p recognized as a fraction of denominator m."""
    if not isinstance(value, RegulatorValue):
        raise ChowregError("torsion_order expects a RegulatorValue")
    v = value
    if v.value.radius >= tol / (2 * max_order):
        raise PrecisionError(
            "torsion recognition needs an error radius below "
            f"{tol / (2 * max_order):.3g}, have {v.value.radius:.3g}; "
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
